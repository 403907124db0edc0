"""Shared independent oracles for the test suite.

Everything here is deliberately naive: sieves, double loops, dense matrices
and Python big integers. These oracles never call into the fast paths they
are used to check. plain_barrett is the one word-level helper: the plain
Barrett variant on uint64 arrays, which only the tests evaluate on arrays.
"""

import random

import numpy as np
import pytest


def sieve_primes(limit):
    """All primes < limit by Eratosthenes."""
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p:limit:p] = bytearray(len(range(p * p, limit, p)))
    return [i for i, f in enumerate(flags) if f]


def naive_is_prime(x):
    """Trial division, for values small enough to afford it."""
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def mulmod_oracle(a, b, q):
    """Wide-integer multiply-then-remainder; Python ints never overflow."""
    return (a * b) % q


def plain_barrett(a, b, mod):
    """The plain Barrett variant elementwise on uint64, as the scalar
    barrett_mul_soft computes it: t2 = (t1 * m) >> 2k, one subtraction.

    Only the widths the tests draw. Up to 21 bits t1 * m < 2^(3k+1) fits
    a word. At 32 bits m = 2^32 + c with c < 2^32, and over the 32-bit
    halves h, l of t1, t2 = h + ((l + h*c + ((l*c) >> 32)) >> 32), whose
    inner sum stays below 2^64. The passes run in place over three arrays:
    a fresh temporary per pass made the exhaustive sweep twice as slow.
    """
    q, k, m = mod.q, mod.k, mod.m
    t1 = np.multiply(a, b, dtype=np.uint64)
    t2 = np.empty_like(t1)
    if k <= 21:
        np.multiply(t1, m, out=t2)
        np.right_shift(t2, 2 * k, out=t2)
    elif k == 32:
        c, half = m - (1 << 32), np.empty_like(t1)
        np.bitwise_and(t1, 0xFFFF_FFFF, out=half)  # l
        np.multiply(half, c, out=t2)
        np.right_shift(t2, 32, out=t2)
        np.add(t2, half, out=t2)
        np.right_shift(t1, 32, out=half)  # h
        np.multiply(half, c, out=t1)
        np.add(t2, t1, out=t2)
        np.right_shift(t2, 32, out=t2)
        np.add(t2, half, out=t2)
        np.multiply(a, b, out=t1)  # t1 again
    else:
        raise ValueError(f"plain_barrett has no {k}-bit path")
    np.multiply(t2, q, out=t2)
    np.subtract(t1, t2, out=t1)  # t4 < 2q
    np.subtract(t1, q, out=t2)  # below q, t4 - q wraps above t4
    return np.minimum(t1, t2, out=t1)


def negacyclic_schoolbook_oracle(a, b, q):
    """Big-integer double loop over Z_q[x]/(x^N + 1).

    Accumulates every a_n * b_m into position (n + m) mod N with a sign flip
    on wraparound, then reduces once at the end.
    """
    n = len(a)
    acc = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                acc[k] += ai * bj
            else:
                acc[k - n] -= ai * bj
    return [x % q for x in acc]


def multiplicative_order(g, q):
    """Order of g in Z_q^* by repeated multiplication."""
    x = g % q
    order = 1
    while x != 1:
        x = (x * g) % q
        order += 1
    return order


def bit_reverse(x, bits):
    y = 0
    for _ in range(bits):
        y = (y << 1) | (x & 1)
        x >>= 1
    return y


def naive_negacyclic_ntt(coeffs, psi, q):
    """Dense evaluation at the odd powers of psi, natural order.

    E[j] = sum_i coeffs[i] * psi^((2j+1) * i) mod q.
    """
    n = len(coeffs)
    out = []
    for j in range(n):
        root = pow(psi, 2 * j + 1, q)
        acc = 0
        for i in range(n):
            acc = (acc + coeffs[i] * pow(root, i, q)) % q
        out.append(acc)
    return out


def naive_negacyclic_intt(evals_natural, psi, q):
    """Dense inverse of naive_negacyclic_ntt, scaled by N^-1."""
    n = len(evals_natural)
    n_inv = pow(n, q - 2, q)
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = (acc + evals_natural[j] * pow(psi, -(2 * j + 1) * i, q)) % q
        out.append((acc * n_inv) % q)
    return out


@pytest.fixture(scope="session")
def rng():
    return random.Random(0x5EED)
