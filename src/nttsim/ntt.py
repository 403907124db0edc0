"""Reference negacyclic NTT/INTT and polynomial multiplication.

The forward transform is the radix-2 decimation-in-time form that takes
natural-order input to bit-reversed output; the inverse is the matching
decimation-in-frequency form taking bit-reversed input back to natural
order. Chaining them needs no bit-reversal pass anywhere. Twiddles are
merged powers of psi (a primitive 2N-th root), so the wrap of
Z_q[x]/(x^N + 1) is built into the tables.

The inverse butterfly halves both legs at every stage, which replaces the
usual final multiplication by N^-1.

Array functions accept stacks of polynomials (shape (..., N)) and check
once, on entry, that every value is reduced; inside the stage loop values
stay reduced by construction. The batch is cut into row blocks of at
most 2^16 values that stay in cache through all stages. A batch of two
or more blocks runs its blocks on one thread per CPU the process may
use, the calling thread taking a share and the other threads ending
with the call; a single block runs on the caller alone. The arithmetic
is exact, so outputs are identical for any thread count. Every stage
runs the in-place butterfly body ct_stage/gs_stage on uint64 rows, with
the twiddle multiply passed in. The transforms here multiply by Shoup's
method (shoup_mul_into) on quotients precomputed with the tables, and
their inverse twiddles are stored pre-halved, so the inverse butterfly
needs no halving after its multiply. The simulator's replay runs the
same bodies with the hardware Barrett multiply instead, since that is
what the modelled butterfly units execute; run() then checks it against
transforms that share no multiply with it.
"""

from dataclasses import dataclass
from typing import IO, List, Sequence

import numpy as np

from nttsim.modarith import (
    BLOCK_ELEMS,
    Modulus,
    _run_blocks,
    barrett_mul_hw_batch,
    barrett_precompute,
    check_reduced,
    find_primitive_root,
    half_mod_into,
    reduce_once_into,
    shoup_mul_into,
    shoup_precompute,
)


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
    inverse_half[j] = inverse[j]/2 mod q. forward_pre and inverse_half_pre
    hold the Shoup quotients the reference transforms multiply with.
    """

    forward: np.ndarray
    inverse: np.ndarray
    psi: int
    psi_inv: int
    mod: Modulus
    n: int
    forward_pre: np.ndarray
    inverse_half: np.ndarray
    inverse_half_pre: np.ndarray


def gen_twiddles(mod: Modulus, n: int) -> TwiddleTable:
    """The one check of q = 1 mod 2N; psi = g^((q-1)/2N) by builtin pow, g the
    smallest primitive root mod q (its only use); both tables in bit-reversed order."""
    bits = _check_power_of_two(n)
    q = mod.q
    if q % (2 * n) != 1:
        raise ValueError(f"q={q} is not congruent to 1 mod {2 * n}")
    psi = pow(find_primitive_root(q), (q - 1) // (2 * n), q)
    psi_inv = pow(psi, -1, q)
    assert pow(psi, n, q) == q - 1, "psi is not a primitive 2N-th root"
    pows, inv_pows = [1], [1]
    for _ in range(n - 1):
        pows.append(pows[-1] * psi % q)
        inv_pows.append(inv_pows[-1] * psi_inv % q)
    # reversing b + 1 bits moves the new top bit to bit 0
    order = np.zeros(1, np.intp)
    for _ in range(bits):
        order = np.concatenate([2 * order, 2 * order + 1])
    forward = np.array(pows, dtype=np.uint64)[order]
    inverse = np.array(inv_pows, dtype=np.uint64)[order]
    inverse_half = inverse.copy()
    half_mod_into(inverse_half, q, np.empty_like(inverse))
    return TwiddleTable(
        forward, inverse, psi, psi_inv, mod, n,
        forward_pre=shoup_precompute(forward, mod),
        inverse_half=inverse_half,
        inverse_half_pre=shoup_precompute(inverse_half, mod),
    )


_twiddle_cache: dict = {}


def cached_twiddles(mod: Modulus, n: int) -> TwiddleTable:
    key = (mod.q, n)
    table = _twiddle_cache.get(key)
    if table is None:
        table = _twiddle_cache[key] = gen_twiddles(mod, n)
    return table


# ---------------------------------------------------------------------------
# per-stage butterfly bodies, shared with the simulator's replay: mul(x,
# *w, mod, out, tmp) writes the twiddle products w*x mod q into out, using
# tmp; neither buffer aliases x


def ct_stage(u, v, mul, w, mod: Modulus, s1, s2) -> None:
    """Cooley-Tukey butterflies, in place: (u, v) <- (u + t, u - t) mod q
    with t = mul(v, *w), the twiddle products.

    u, v and the scratch buffers s1, s2 share one shape, all uint64; the
    twiddle operands w broadcast to it. Operands must be reduced.
    """
    q = mod.q
    mul(v, *w, mod, s1, s2)  # t
    np.subtract(q, s1, out=s2)
    np.add(s2, u, out=s2)  # u - t + q < 2q
    np.add(u, s1, out=u)  # u + t < 2q
    reduce_once_into(s2, q, v, s1)
    reduce_once_into(u, q, u, s1)


def gs_stage(u, v, mul, w, mod: Modulus, s1, s2) -> None:
    """Gentleman-Sande butterflies, in place:
    (u, v) <- ((u + v)/2, mul(u - v, *w)) mod q, halving via the shift-add
    form; mul must include the second leg's halving. Buffers and operands
    as in ct_stage."""
    # u and v are strided views, slow to stream when groups are short, so
    # most passes run on the contiguous scratch
    q = mod.q
    np.add(u, v, out=s1)
    reduce_once_into(s1, q, s1, s2)
    half_mod_into(s1, q, s2)
    np.subtract(q, v, out=s2)
    np.add(s2, u, out=s2)  # u - v + q < 2q
    u[...] = s1
    reduce_once_into(s2, q, v, s1)
    mul(v, *w, mod, s1, s2)
    v[...] = s1


# ---------------------------------------------------------------------------
# array transforms


def _reduced_copy(values, tw: TwiddleTable) -> np.ndarray:
    """A uint64 copy of values, checked for length N and reduced entries."""
    out = np.array(values, dtype=np.uint64, copy=True)
    n = out.shape[-1] if out.ndim else 0
    if n != tw.n:
        raise ValueError(f"polynomial length {n} does not match table N={tw.n}")
    return check_reduced(out, tw.mod.q)


def _run_stages(x: np.ndarray, tw: TwiddleTable, butterfly, tables, groups) -> None:
    """Apply butterfly stages in place to x, shape (rows, N), by row blocks
    that _run_blocks shares out.

    groups holds each stage's butterfly-group count g: the stage pairs
    halves 0 and 1 of the (g, 2, N/2g) view of every row, multiplying
    group j by shoup_mul_into with operands table[g + j] of each of the
    (twiddle, quotient) tables. Stages whose groups hold at most 8
    butterflies pair the same halves in the transposed (N/2g, 2, g) view.
    """
    rows, n = x.shape
    step = max(1, BLOCK_ELEMS // n)  # rows per cache block

    def share(lo: int, hi: int) -> None:
        scratch = np.empty((2, min(hi - lo, step) * n // 2), np.uint64)
        for start in range(lo, hi, step):
            work = x[start:start + step]
            r = len(work)
            s1, s2 = scratch[:, :r * n // 2]
            for g in groups:
                pairs, per_group = work.reshape(r, g, 2, n // (2 * g)), (slice(g, 2 * g), None)
                if n // (2 * g) <= 8:
                    # numpy streams along the g groups, not within each short one
                    pairs, per_group = pairs.transpose(0, 3, 2, 1), slice(g, 2 * g)
                shape = pairs.shape[:2] + pairs.shape[3:]
                butterfly(pairs[:, :, 0], pairs[:, :, 1], shoup_mul_into,
                          [table[per_group] for table in tables], tw.mod,
                          s1.reshape(shape), s2.reshape(shape))

    _run_blocks(share, rows, step)


def ntt_ct_array(values, tw: TwiddleTable) -> np.ndarray:
    """Forward transform over the last axis; natural in, bit-reversed out."""
    out = _reduced_copy(values, tw)
    groups = [1 << s for s in range(tw.n.bit_length() - 1)]
    _run_stages(out.reshape(-1, tw.n), tw, ct_stage, (tw.forward, tw.forward_pre), groups)
    return out


def intt_gs_array(values, tw: TwiddleTable) -> np.ndarray:
    """Inverse transform over the last axis; bit-reversed in, natural out."""
    out = _reduced_copy(values, tw)
    groups = [1 << s for s in reversed(range(tw.n.bit_length() - 1))]
    _run_stages(out.reshape(-1, tw.n), tw, gs_stage,
                (tw.inverse_half, tw.inverse_half_pre), groups)
    return out


def pointwise_mul_array(a, b, mod: Modulus) -> np.ndarray:
    """barrett_mul_hw_batch of two arrays of equal shape, not broadcast."""
    if np.shape(a) != np.shape(b):
        raise ValueError("pointwise operands must have equal shapes")
    return barrett_mul_hw_batch(a, b, mod)


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
    negated. Reduction is deferred as far as uint64 headroom allows.
    This is the oracle the transforms are checked against, so it shares
    no kernel with them.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError("operands must have equal shapes")
    n = a.shape[-1]
    q = mod.q
    # the oracle's own choice: Python ints above 32 bits, where products
    # leave a word
    dtype = np.dtype(np.uint64) if mod.k <= 32 else np.dtype(object)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    q64 = dtype.type(q)
    neg_a = np.where(a == 0, a, q64 - a)
    doubled = np.concatenate([neg_a, a], axis=-1)
    if n * q * q < 1 << 63:
        # all N partial products fit one accumulator; reduce once
        acc = a * b[..., 0:1]
        for shift in range(1, n):
            acc = acc + doubled[..., n - shift:2 * n - shift] * b[..., shift:shift + 1]
        return acc % q64
    if mod.k <= 32 and (n * q) << 16 < 1 << 63:
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
        term = doubled[..., n - shift:2 * n - shift] * b[..., shift:shift + 1]
        acc = (acc + term % q64) % q64
    return acc.astype(np.uint64, copy=False)


# ---------------------------------------------------------------------------
# Polynomial-level wrappers: the operands' modulus and length fix the table


def _matched(a: Polynomial, b: Polynomial) -> None:
    if a.n != b.n:
        raise ValueError("polynomial lengths differ")
    if a.mod.q != b.mod.q:
        raise ValueError("polynomial moduli differ")


def ntt_ct(poly: Polynomial) -> Polynomial:
    return Polynomial(ntt_ct_array(poly.coeffs, cached_twiddles(poly.mod, poly.n)), poly.mod)


def intt_gs(evals: Polynomial) -> Polynomial:
    return Polynomial(intt_gs_array(evals.coeffs, cached_twiddles(evals.mod, evals.n)), evals.mod)


def pointwise_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    _matched(a, b)
    return Polynomial(pointwise_mul_array(a.coeffs, b.coeffs, a.mod), a.mod)


def polymul_ntt(a: Polynomial, b: Polynomial) -> Polynomial:
    _matched(a, b)
    tw = cached_twiddles(a.mod, a.n)
    return Polynomial(polymul_ntt_array(a.coeffs, b.coeffs, tw), a.mod)


def schoolbook_negacyclic(a: Polynomial, b: Polynomial) -> Polynomial:
    _matched(a, b)
    return Polynomial(schoolbook_negacyclic_array(a.coeffs, b.coeffs, a.mod), a.mod)


# ---------------------------------------------------------------------------
# text serialization: header "N q", then one decimal coefficient per line


def write_polynomial(poly: Polynomial, stream: IO[str]) -> None:
    stream.write(f"{poly.n} {poly.mod.q}\n")
    for c in poly.coeffs:
        stream.write(f"{int(c)}\n")


def read_polynomial(stream: IO[str]) -> Polynomial:
    """The polynomial in a file, over the modulus its header names."""
    header = stream.readline().split()
    if len(header) != 2:
        raise ValueError("polynomial header must be 'N q'")
    n, mod = int(header[0]), barrett_precompute(int(header[1]))
    lines = stream.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()  # trailing blank lines are allowed
    if len(lines) != n:
        raise ValueError(f"polynomial header says {n} coefficients, the file has {len(lines)}")
    return Polynomial.from_ints([int(line) for line in lines], mod)
