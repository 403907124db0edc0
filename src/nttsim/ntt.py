"""Reference negacyclic NTT/INTT and polynomial multiplication.

The forward transform is the radix-2 decimation-in-time form that takes
natural-order input to bit-reversed output; the inverse is the matching
decimation-in-frequency form taking bit-reversed input back to natural
order. Chaining them needs no bit-reversal pass anywhere. Twiddles are
merged powers of psi (a primitive 2N-th root), so the wrap of
Z_q[x]/(x^N + 1) is built into the tables.

The inverse butterfly halves both legs at every stage, which replaces the
usual final multiplication by N^-1.

Array functions accept stacks of polynomials (shape (..., N)). Every
stage runs the same per-stage butterfly kernels: numpy batch kernels for
moduli up to 32 bits, the scalar Barrett kernel on Python ints above.
"""

from dataclasses import dataclass
from typing import IO, List, Sequence

import numpy as np

from nttsim.modarith import (
    Modulus,
    barrett_mul_hw,
    barrett_mul_hw_batch,
    half_mod_batch,
    mod_pow,
)


def _bit_reverse(x: int, bits: int) -> int:
    y = 0
    for _ in range(bits):
        y = (y << 1) | (x & 1)
        x >>= 1
    return y


def _check_power_of_two(n: int) -> int:
    if n < 4 or n & (n - 1):
        raise ValueError(f"polynomial length {n} must be a power of two >= 4")
    return n.bit_length() - 1


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector over Z_q, length a power of two."""

    coeffs: np.ndarray
    mod: Modulus

    @classmethod
    def from_ints(cls, values: Sequence[int], mod: Modulus) -> "Polynomial":
        _check_power_of_two(len(values))
        if any(not 0 <= int(v) < mod.q for v in values):
            raise ValueError(f"coefficients not reduced mod {mod.q}")
        return cls(np.array([int(v) for v in values], dtype=np.uint64), mod)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def to_ints(self) -> List[int]:
        return [int(v) for v in self.coeffs]


@dataclass(frozen=True)
class TwiddleTable:
    """Merged twiddle factors for one (q, N) pair.

    forward[j] = psi^bitrev(j), consumed per stage at indices [m, 2m);
    inverse[j] is its elementwise inverse, consumed in reverse stage
    order. The two tables are distinct, as the dataflow requires.
    """

    forward: np.ndarray
    inverse: np.ndarray
    psi: int
    psi_inv: int
    mod: Modulus
    n: int


def gen_twiddles(mod: Modulus, n: int) -> TwiddleTable:
    """Derive psi = g^((q-1)/2N) and lay out both twiddle tables."""
    bits = _check_power_of_two(n)
    q = mod.q
    if q % (2 * n) != 1:
        raise ValueError(f"q={q} is not congruent to 1 mod {2 * n}")
    if mod.g is None:
        raise ValueError("modulus has no primitive root; call with_root()")
    psi = mod_pow(mod.g, (q - 1) // (2 * n), mod)
    psi_inv = mod_pow(psi, q - 2, mod)
    assert mod_pow(psi, n, mod) == q - 1, "psi is not a primitive 2N-th root"
    pows, inv_pows = [1], [1]
    for _ in range(n - 1):
        pows.append(pows[-1] * psi % q)
        inv_pows.append(inv_pows[-1] * psi_inv % q)
    order = [_bit_reverse(j, bits) for j in range(n)]
    forward = np.array([pows[i] for i in order], dtype=np.uint64)
    inverse = np.array([inv_pows[i] for i in order], dtype=np.uint64)
    return TwiddleTable(forward, inverse, psi, psi_inv, mod, n)


_twiddle_cache: dict = {}


def cached_twiddles(mod: Modulus, n: int) -> TwiddleTable:
    key = (mod.q, mod.g, n)
    table = _twiddle_cache.get(key)
    if table is None:
        table = _twiddle_cache[key] = gen_twiddles(mod, n)
    return table


# ---------------------------------------------------------------------------
# per-stage butterfly kernels (shared with the simulator's replay)


def _add_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    s = a + b
    return np.where(s >= q, s - q, s)


def _sub_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    s = a + np.uint64(q) - b
    return np.where(s >= q, s - q, s)


def _mul_mod(a, b, mod: Modulus) -> np.ndarray:
    """Elementwise barrett_mul_hw over broadcast uint64 arrays.

    Moduli up to 32 bits run the numpy batch kernel; wider ones run the
    scalar kernel on Python ints, which is exact up to 62 bits.
    """
    if mod.k > 32:
        wide = np.frompyfunc(lambda x, y: barrett_mul_hw(x, y, mod), 2, 1)
        return wide(a, b).astype(np.uint64)
    return barrett_mul_hw_batch(a, b, mod)


def ct_stage(u, v, w, mod: Modulus):
    """Cooley-Tukey butterflies, elementwise: (u + w*v, u - w*v) mod q."""
    t = _mul_mod(v, w, mod)
    return _add_mod(u, t, mod.q), _sub_mod(u, t, mod.q)


def gs_stage(u, v, w_inv, mod: Modulus):
    """Gentleman-Sande butterflies, elementwise:
    ((u + v)/2, w_inv*(u - v)/2) mod q, halving via the shift-add form."""
    q = mod.q
    lo = half_mod_batch(_mul_mod(_sub_mod(u, v, q), w_inv, mod), q)
    return half_mod_batch(_add_mod(u, v, q), q), lo


# ---------------------------------------------------------------------------
# array transforms


def _check_lengths(values: np.ndarray, tw: TwiddleTable) -> int:
    n = values.shape[-1]
    if n != tw.n:
        raise ValueError(f"polynomial length {n} does not match table N={tw.n}")
    return n


def ntt_ct_array(values, tw: TwiddleTable) -> np.ndarray:
    """Forward transform over the last axis; natural in, bit-reversed out."""
    out = np.array(values, dtype=np.uint64, copy=True)
    n = _check_lengths(out, tw)
    batch = out.shape[:-1]
    m, t = 1, n
    while m < n:
        t //= 2
        view = out.reshape(batch + (m, 2, t))
        stage_tw = tw.forward[m:2 * m].reshape((m, 1))
        view[..., 0, :], view[..., 1, :] = ct_stage(
            view[..., 0, :], view[..., 1, :], stage_tw, tw.mod
        )
        m *= 2
    return out


def intt_gs_array(values, tw: TwiddleTable) -> np.ndarray:
    """Inverse transform over the last axis; bit-reversed in, natural out."""
    out = np.array(values, dtype=np.uint64, copy=True)
    n = _check_lengths(out, tw)
    batch = out.shape[:-1]
    t, m = 1, n
    while m > 1:
        h = m // 2
        view = out.reshape(batch + (h, 2, t))
        stage_tw = tw.inverse[h:2 * h].reshape((h, 1))
        view[..., 0, :], view[..., 1, :] = gs_stage(
            view[..., 0, :], view[..., 1, :], stage_tw, tw.mod
        )
        t *= 2
        m = h
    return out


def pointwise_mul_array(a, b, mod: Modulus) -> np.ndarray:
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError("pointwise operands must have equal shapes")
    return _mul_mod(a, b, mod)


def polymul_ntt_array(a, b, tw: TwiddleTable) -> np.ndarray:
    """a * b in Z_q[x]/(x^N + 1): forward both, pointwise, inverse."""
    fa = ntt_ct_array(a, tw)
    fb = ntt_ct_array(b, tw)
    return intt_gs_array(pointwise_mul_array(fa, fb, tw.mod), tw)


def schoolbook_negacyclic_array(a, b, mod: Modulus) -> np.ndarray:
    """O(N^2) negacyclic product: every a_i * b_j lands at (i+j) mod N,
    negated when i + j wraps past N.

    The double loop is vectorized over one axis: the slice of [-a | a]
    at offset n-shift is x^shift * a with the wrapped part already
    negated. Reduction is deferred as far as uint64 headroom allows;
    moduli above 32 bits take an exact big-int path.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError("operands must have equal shapes")
    n = a.shape[-1]
    q = mod.q
    if mod.k > 32:
        return _schoolbook_bigint(a, b, mod)
    q64 = np.uint64(q)
    neg_a = np.where(a == 0, a, q64 - a)
    doubled = np.concatenate([neg_a, a], axis=-1)
    if n * q * q < 1 << 63:
        # all N partial products fit one accumulator; reduce once
        acc = a * b[..., 0:1]
        for shift in range(1, n):
            acc = acc + doubled[..., n - shift:2 * n - shift] * b[..., shift:shift + 1]
        return acc % q64
    if (n * q) << 16 < 1 << 63:
        # 16-bit limbs of b keep both accumulators below 2^63
        b_hi, b_lo = b >> 16, b & np.uint64(0xFFFF)
        acc_hi = a * b_hi[..., 0:1]
        acc_lo = a * b_lo[..., 0:1]
        for shift in range(1, n):
            rotated = doubled[..., n - shift:2 * n - shift]
            acc_hi = acc_hi + rotated * b_hi[..., shift:shift + 1]
            acc_lo = acc_lo + rotated * b_lo[..., shift:shift + 1]
        return (((acc_hi % q64) << 16) + acc_lo % q64) % q64
    acc = (a * b[..., 0:1]) % q64
    for shift in range(1, n):
        rotated = doubled[..., n - shift:2 * n - shift]
        term = (rotated * b[..., shift:shift + 1]) % q64
        acc = _add_mod(acc, term, q)
    return acc


def _schoolbook_bigint(a: np.ndarray, b: np.ndarray, mod: Modulus) -> np.ndarray:
    q = mod.q
    n = a.shape[-1]
    flat_a = a.reshape(-1, n)
    flat_b = b.reshape(-1, n)
    rows = []
    for ra, rb in zip(flat_a, flat_b):
        acc = [0] * n
        xs, ys = [int(v) for v in ra], [int(v) for v in rb]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                k = i + j
                if k < n:
                    acc[k] = (acc[k] + x * y) % q
                else:
                    acc[k - n] = (acc[k - n] - x * y) % q
        rows.append(acc)
    return np.array(rows, dtype=np.uint64).reshape(a.shape)


# ---------------------------------------------------------------------------
# Polynomial-level wrappers


def _matched(a: Polynomial, b: Polynomial, mod: Modulus) -> None:
    if a.n != b.n:
        raise ValueError("polynomial lengths differ")
    if a.mod.q != mod.q or b.mod.q != mod.q:
        raise ValueError("polynomial moduli differ")


def ntt_ct(poly: Polynomial, tw: TwiddleTable) -> Polynomial:
    return Polynomial(ntt_ct_array(poly.coeffs, tw), poly.mod)


def intt_gs(evals: Polynomial, tw: TwiddleTable) -> Polynomial:
    return Polynomial(intt_gs_array(evals.coeffs, tw), evals.mod)


def pointwise_mul(a: Polynomial, b: Polynomial, mod: Modulus) -> Polynomial:
    _matched(a, b, mod)
    return Polynomial(pointwise_mul_array(a.coeffs, b.coeffs, mod), a.mod)


def polymul_ntt(a: Polynomial, b: Polynomial, mod: Modulus) -> Polynomial:
    _matched(a, b, mod)
    tw = cached_twiddles(mod.with_root() if mod.g is None else mod, a.n)
    return Polynomial(polymul_ntt_array(a.coeffs, b.coeffs, tw), a.mod)


def schoolbook_negacyclic(a: Polynomial, b: Polynomial, mod: Modulus) -> Polynomial:
    _matched(a, b, mod)
    return Polynomial(schoolbook_negacyclic_array(a.coeffs, b.coeffs, mod), a.mod)


# ---------------------------------------------------------------------------
# text serialization: header "N q", then one decimal coefficient per line


def write_polynomial(poly: Polynomial, stream: IO[str]) -> None:
    stream.write(f"{poly.n} {poly.mod.q}\n")
    for c in poly.coeffs:
        stream.write(f"{int(c)}\n")


def read_polynomial(stream: IO[str], mod: Modulus = None) -> Polynomial:
    header = stream.readline().split()
    if len(header) != 2:
        raise ValueError("polynomial header must be 'N q'")
    n, q = int(header[0]), int(header[1])
    if mod is None:
        from nttsim.modarith import barrett_precompute

        mod = barrett_precompute(q)
    elif mod.q != q:
        raise ValueError(f"file modulus {q} does not match expected {mod.q}")
    lines = stream.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()  # trailing blank lines are allowed
    if len(lines) != n:
        raise ValueError(
            f"polynomial header says {n} coefficients, the file has {len(lines)}"
        )
    return Polynomial.from_ints([int(line) for line in lines], mod)
