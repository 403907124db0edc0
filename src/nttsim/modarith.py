"""Exact modular arithmetic kernels.

Two Barrett multiplication variants are provided: a plain one that reduces
the full double-width product in a single step, and a hardware-shaped one
that right-shifts the product before multiplying by the precomputed
reciprocal so that every multiply fits a split-operand step multiplier.
Both return the exact residue. The hardware variant is the one the
simulator's butterfly units execute, on scalars and on arrays; the plain
variant, the baseline it is measured against, is a scalar model only. A
third multiply, Shoup's, is for an operand fixed in advance, such as a
twiddle factor: its quotient w' = floor(w * 2^s / q) is precomputed once,
so each product costs about half the passes of the Barrett one. The
reference transforms use it.

Moduli are primes in [3, 2^62). Scalar functions operate on Python ints.
The array kernels (``*_into``) compute the same formulas elementwise into
caller-owned uint64 buffers, without operand checks: barrett_mul_hw_into,
shoup_mul_into (its quotients from shoup_precompute), reduce_once_into
and half_mod_into. Above 32 bits the hardware and Shoup multiplies take
their double-word products from 32-bit partial products.
barrett_mul_hw_batch checks its uint64 operands, then runs the hardware
kernel in cache blocks of BLOCK_ELEMS values, and _run_blocks shares
a range of two or more blocks out over the CPUs the process may use
(os.sched_getaffinity, or os.cpu_count() where that is missing) on
threads that end with the call.
"""

import math
import os
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_STEP_WIDTH = 32

_MASK16 = 0xFFFF
_MASK32 = 0xFFFF_FFFF

# Deterministic Miller-Rabin witness set for all inputs below 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(x: int) -> bool:
    """Deterministic primality test, valid for all x < 2^64."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        y = pow(w, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = (y * y) % x
            if y == x - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """A prime modulus with its precomputed Barrett constants.

    k is the bit count ceil(log2 q), m = floor(2^(2k) / q) and always has
    exactly k+1 bits. Everything else a transform needs, the primitive
    root included, follows from q and is derived by ntt.gen_twiddles.
    """

    q: int
    k: int
    m: int


class WordProduct(NamedTuple):
    """A 2W-bit product held as two W-bit halves."""

    lo: int
    hi: int
    width: int

    @property
    def value(self) -> int:
        return (self.hi << self.width) | self.lo


class BarrettTrace(NamedTuple):
    """Intermediates of one Barrett multiplication, for the t2/t4 checks."""

    t1: int
    t2: int
    t3: int
    t4: int
    z: int


def barrett_precompute(q: int) -> Modulus:
    """Validate a prime and derive its Barrett constants. Whether q has an
    N-point transform (q = 1 mod 2N) is ntt.gen_twiddles' check."""
    if not 3 <= q < 2**62:
        raise ValueError(f"modulus {q} outside supported range [3, 2^62)")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    k = q.bit_length()
    return Modulus(q=q, k=k, m=(1 << (2 * k)) // q)


def _check_operands(a: int, b: int, q: int) -> None:
    if not (0 <= a < q and 0 <= b < q):
        raise ValueError(f"operands ({a}, {b}) not reduced mod {q}")


def barrett_mul_soft_trace(a: int, b: int, mod: Modulus) -> BarrettTrace:
    _check_operands(a, b, mod.q)
    t1 = a * b
    t2 = (t1 * mod.m) >> (2 * mod.k)
    t3 = t2 * mod.q
    t4 = t1 - t3
    z = t4 - mod.q if t4 >= mod.q else t4
    return BarrettTrace(t1, t2, t3, t4, z)


def barrett_mul_soft(a: int, b: int, mod: Modulus) -> int:
    """(a * b) mod q with one reduction of the full product.

    Reference variant: single conditional subtraction at the end.
    """
    return barrett_mul_soft_trace(a, b, mod).z


def step_multiply(a: int, b: int, width: int = DEFAULT_STEP_WIDTH) -> WordProduct:
    """Full product of two W-bit words from four half-width partials."""
    if width % 2:
        raise ValueError("split width must be even")
    bound = 1 << width
    if not (0 <= a < bound and 0 <= b < bound):
        raise ValueError(f"operands ({a}, {b}) exceed {width} bits")
    half = width // 2
    mask = (1 << half) - 1
    a_lo, a_hi = a & mask, a >> half
    b_lo, b_hi = b & mask, b >> half
    low = a_lo * b_lo
    mid = a_lo * b_hi + a_hi * b_lo
    high = a_hi * b_hi
    value = (high << width) + (mid << half) + low
    return WordProduct(lo=value & (bound - 1), hi=value >> width, width=width)


def barrett_mul_hw_trace(a: int, b: int, mod: Modulus) -> BarrettTrace:
    _check_operands(a, b, mod.q)
    q, k, m = mod.q, mod.k, mod.m
    # the default step width holds the (k+1)-bit intermediates up to k = 30;
    # wider, the smallest even width >= k + 2 (inclusive MSB segment)
    w = max(DEFAULT_STEP_WIDTH, (k + 3) & ~1)
    t1 = step_multiply(a, b, w).value
    t1_high = t1 >> (k - 1)
    t2 = step_multiply(t1_high, m, w).value >> (k + 1)
    t3 = step_multiply(t2, q, w).value
    t4 = t1 - t3
    assert t4 < 3 * q
    if t4 >= 2 * q:
        z = t4 - 2 * q
    elif t4 >= q:
        z = t4 - q
    else:
        z = t4
    return BarrettTrace(t1, t2, t3, t4, z)


def barrett_mul_hw(a: int, b: int, mod: Modulus) -> int:
    """(a * b) mod q via the shift-early pipeline and two-step ladder.

    The product is shifted right by k-1 before the reciprocal multiply, so
    every multiplication stays within the step multiplier's operand width.
    The quotient estimate can be one short of the plain variant's, hence
    the subtract-2q-else-q ladder and the t4 < 3q guarantee.
    """
    return barrett_mul_hw_trace(a, b, mod).z


def half_mod(x: int, q: int) -> int:
    """x/2 mod q: shift when even, shift and add (q+1)/2 when odd."""
    if q % 2 == 0:
        raise ValueError("half_mod requires an odd modulus")
    if x & 1:
        return (x >> 1) + ((q + 1) >> 1)
    return x >> 1


def _pollard_rho(x: int) -> int:
    """One nontrivial factor of composite odd x."""
    rand = random.Random(x)
    for _ in range(64):
        y = rand.randrange(2, x - 1)
        c = rand.randrange(1, x - 1)
        f = lambda v: (v * v + c) % x  # noqa: E731
        a, b, d = y, f(y), 1
        while d == 1:
            a = f(a)
            b = f(f(b))
            d = math.gcd(abs(a - b), x)
        if d != x:
            return d
    raise ValueError(f"failed to factor {x}")


def _factorize(x: int) -> set:
    """Prime factor set by trial division plus Pollard rho."""
    factors = set()
    for p in _SMALL_PRIMES:
        while x % p == 0:
            factors.add(p)
            x //= p
    stack = [x] if x > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            factors.add(v)
            continue
        d = _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    return factors


def find_primitive_root(q: int) -> int:
    """Smallest generator of Z_q^* (q prime), tested with builtin pow."""
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    if q == 2:
        return 1
    cofactors = [(q - 1) // p for p in _factorize(q - 1)]
    for g in range(2, q):
        if all(pow(g, e, q) != 1 for e in cofactors):
            return g
    raise ValueError(f"no primitive root found for {q}")


def _ntt_primes(bits: int, n: int):
    """The primes below 2^bits congruent to 1 mod 2N, largest first, by one
    downward scan in steps of 2N. The arguments are checked at the first
    draw, and a draw past the last prime raises."""
    if bits > 62:
        raise ValueError("bits must be <= 62")
    if bits < 0:
        raise ValueError(f"bit width {bits} is negative")
    if n < 2 or n & (n - 1):
        raise ValueError(f"N={n} is not a power of two")
    two_n = 2 * n
    if two_n >= 1 << bits:
        raise ValueError(f"2N={two_n} does not fit below 2^{bits}")
    candidate = ((1 << bits) - 2) // two_n * two_n + 1
    seen = 0
    while candidate > two_n:
        if is_prime(candidate):
            yield candidate
            seen += 1
        candidate -= two_n
    raise ValueError(f"no prime #{seen} below 2^{bits} congruent to 1 mod {two_n}")


def find_ntt_prime(bits: int, n: int) -> int:
    """The largest prime below 2^bits congruent to 1 mod 2N: the first of
    the one prime chain that gen_basis walks."""
    return next(_ntt_primes(bits, n))


def ntt_modulus(bits: int, n: int) -> Modulus:
    """A transform-ready modulus: a prime q = 1 mod 2N and its Barrett
    constants, from which gen_twiddles derives the N-point tables."""
    return barrett_precompute(find_ntt_prime(bits, n))


# ---------------------------------------------------------------------------
# array kernels: *_into cores take reduced operands unchecked and write
# into caller-owned buffers; barrett_mul_hw_batch checks, then calls one


# Elements per cache block. A block of 2^16 words (512 KiB) plus two
# scratch buffers of at most the same size stay within a 2 MiB L2, so the
# ~15 passes of a kernel over a block run from cache, not memory.
BLOCK_ELEMS = 1 << 16

# A batch of two or more blocks runs one share of whole blocks on each CPU
# the process may use; numpy's uint64 loops release the interpreter lock.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_blocks(share, count: int, block: int) -> None:
    """share(start, stop) over the units [0, count), cut into blocks of
    `block` units: one share of whole blocks per CPU, capped at the block
    count, with the calling thread running the first and the threads of
    this call's own executor the others.

    Shares must write disjoint data and allocate their own scratch, and
    call only the unchecked kernels. Under two blocks or on one CPU the
    whole range runs inline and no thread starts. A share's exception
    reaches the caller once every share has finished, and no thread
    outlives the call.
    """
    blocks = -(-count // block)
    shares = min(_CPUS, blocks)
    if shares < 2:
        share(0, count)
        return
    # imported here, so that a process with no batch of several blocks,
    # such as the nttsim command, never pays for the import
    from concurrent.futures import ThreadPoolExecutor

    cuts = [min(count, i * blocks // shares * block) for i in range(shares + 1)]
    with ThreadPoolExecutor(shares - 1, thread_name_prefix="nttsim-blocks") as pool:
        futures = [pool.submit(share, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        share(cuts[0], cuts[1])
    for future in futures:
        future.result()


def check_reduced(values: np.ndarray, q: int) -> np.ndarray:
    """values itself, once checked to lie in [0, q)."""
    if values.size and int(values.max()) >= q:
        raise ValueError(f"operands not reduced mod {q}")
    return values


def reduce_once_into(x: np.ndarray, q: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = x - q where x >= q, else x; exact for 0 <= x < 2q. out may be x."""
    np.subtract(x, q, out=tmp)
    # below q, x - q wraps past 2^64 - q > x, so the minimum selects
    np.minimum(x, tmp, out=out)


def _mulhi(a, b) -> np.ndarray:
    """(a * b) >> 64 elementwise on uint64, from four 32x32-bit partials."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def barrett_mul_hw_into(a, b, mod: Modulus, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = barrett_mul_hw(a, b) elementwise, on uint64.

    a and b broadcast to out's shape; tmp has out's shape, and neither
    buffer may alias an operand. Above 32 bits t1 and t1_high * m span
    two words: the low word is the wrapping product, the high one _mulhi.
    """
    q, k, m = mod.q, mod.k, mod.m
    np.multiply(a, b, out=out)  # t1 mod 2^64, all of t1 up to 32 bits
    np.right_shift(out, k - 1, out=tmp)  # t1_high < 2^(k+1)
    if k < 32:
        # t1_high * m < 2^(2k+2) fits a word below 32 bits
        np.multiply(tmp, m, out=tmp)
        np.right_shift(tmp, k + 1, out=tmp)
    elif k == 32:
        # t2 = (t1_high * m) >> 33 over 16-bit limbs of m, with out as
        # scratch; t1 is recomputed after
        np.multiply(tmp, m & _MASK16, out=out)
        np.right_shift(out, 16, out=out)
        np.multiply(tmp, m >> 16, out=tmp)
        np.add(tmp, out, out=tmp)
        np.right_shift(tmp, k - 15, out=tmp)
        np.multiply(a, b, out=out)
    else:
        tmp |= _mulhi(a, b) << (65 - k)  # t1_high
        hi = _mulhi(tmp, m)
        np.multiply(tmp, m, out=tmp)
        np.right_shift(tmp, k + 1, out=tmp)
        tmp |= hi << (63 - k)  # t2
    np.multiply(tmp, q, out=tmp)  # t3 mod 2^64
    np.subtract(out, tmp, out=out)  # t4 < 3q < 2^64, so exact mod 2^64
    reduce_once_into(out, 2 * q, out, tmp)
    reduce_once_into(out, q, out, tmp)


def shoup_precompute(w: np.ndarray, mod: Modulus) -> np.ndarray:
    """Shoup quotients w' = floor(w * 2^s / q) of reduced uint64 w, with
    s = 32 up to 32 bits and 64 above: shoup_mul_into's fixed operand.

    w' * q = w * 2^s - (w * 2^s mod q) and w' < 2^s, so w' is
    -(w * 2^s mod q) times q's inverse, taken mod 2^s: an exact division
    that never leaves a word.
    """
    s = 32 if mod.k <= 32 else 64
    low = barrett_mul_hw_batch(w, pow(2, s, mod.q), mod)
    q_inv = np.uint64(pow(mod.q, -1, 1 << s))
    return (np.uint64(0) - low) * q_inv & np.uint64((1 << s) - 1)


def shoup_mul_into(v, w, w_pre, mod: Modulus, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = (v * w) mod q elementwise on uint64, for a fixed operand w
    with its precomputed w_pre = shoup_precompute(w) (Shoup's MulModPrecon).

    w and w_pre broadcast to out's shape; tmp has out's shape and may not
    alias v, out may. The quotient estimate (v * w') >> s is at most one
    short, so r = v * w - estimate * q < 2q is exact as a wrapping word.
    """
    q = mod.q
    if mod.k <= 32:
        np.multiply(v, w_pre, out=tmp)  # < 2^64 as v, w' < 2^32
        np.right_shift(tmp, 32, out=tmp)
        np.multiply(tmp, q, out=tmp)
    else:
        np.multiply(_mulhi(v, w_pre), q, out=tmp)
    np.multiply(v, w, out=out)
    np.subtract(out, tmp, out=out)  # r < 2q
    reduce_once_into(out, q, out, tmp)


def half_mod_into(x: np.ndarray, q: int, tmp: np.ndarray) -> None:
    """x = half_mod(x, q) elementwise, in place; q odd, x reduced."""
    np.bitwise_and(x, 1, out=tmp)
    np.multiply(tmp, (q + 1) >> 1, out=tmp)
    np.right_shift(x, 1, out=x)
    np.add(x, tmp, out=x)


def barrett_mul_hw_batch(a, b, mod: Modulus) -> np.ndarray:
    """Elementwise barrett_mul_hw over uint64 arrays, once checked to be
    reduced, one cache block at a time, the blocks shared out by _run_blocks."""
    a, b = (check_reduced(np.asarray(x, dtype=np.uint64), mod.q) for x in (a, b))
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, np.uint64)
    flat_a, flat_b, flat_out = a.reshape(-1), b.reshape(-1), out.reshape(-1)

    def share(lo: int, hi: int) -> None:
        tmp = np.empty(min(hi - lo, BLOCK_ELEMS), np.uint64)
        for start in range(lo, hi, BLOCK_ELEMS):
            block = slice(start, start + BLOCK_ELEMS)
            x, y = flat_a[block], flat_b[block]
            barrett_mul_hw_into(x, y, mod, flat_out[block], tmp[:len(x)])

    _run_blocks(share, out.size, BLOCK_ELEMS)
    return out
