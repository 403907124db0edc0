"""Independent correctness oracles for the benchmark.

None of these call the transforms under test. Products up to 32 bits go
to the library's O(N^2) schoolbook (no NTT inside); wider products and
RNS products go to a Python big-integer product by Kronecker
substitution; transforms are checked by evaluating the input polynomial
at the odd powers of psi that the bit-reversed output positions name.
"""

from typing import List, Sequence

import numpy as np

from nttsim.modarith import Modulus
from nttsim.ntt import schoolbook_negacyclic_array


def _slot_bytes(modulus: int, n: int) -> int:
    # a full negacyclic convolution slot holds n products below modulus^2
    bits = 2 * modulus.bit_length() + n.bit_length() + 1
    return (bits + 7) // 8


def _pack(values: Sequence[int], width: int) -> int:
    return int.from_bytes(b"".join(int(v).to_bytes(width, "little") for v in values), "little")


def negacyclic_bigint(a: Sequence[int], b: Sequence[int], modulus: int) -> List[int]:
    """a * b in Z_modulus[x]/(x^N + 1) for any modulus, by one big-int product."""
    n = len(a)
    if len(b) != n:
        raise ValueError("operands differ in length")
    width = _slot_bytes(modulus, n)
    raw = (_pack(a, width) * _pack(b, width)).to_bytes(2 * n * width, "little")
    slots = [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(2 * n)]
    return [(slots[i] - slots[i + n]) % modulus for i in range(n)]


def product_matches(a, b, got, mod: Modulus) -> bool:
    """Check one negacyclic product mod the prime mod.q."""
    if mod.k <= 32:
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        want = schoolbook_negacyclic_array(a, b, mod)
        return bool(np.array_equal(want, np.asarray(got, dtype=np.uint64)))
    want = negacyclic_bigint([int(x) for x in a], [int(x) for x in b], mod.q)
    return want == [int(x) for x in got]


def _bit_reverse(x: int, bits: int) -> int:
    return int(format(x, f"0{bits}b")[::-1], 2)


def sample_points(n: int, count: int = 64) -> List[int]:
    """Deterministic, well-spread output positions, always with 0 and n-1."""
    return sorted({0, n - 1} | {(i * 2654435761) % n for i in range(count)})


def ntt_matches(coeffs: Sequence[int], out: Sequence[int], q: int, psi: int) -> bool:
    """out[k] == a(psi^(2*bitrev(k) + 1)) at sampled k.

    psi is first checked to be a primitive 2N-th root of unity mod q.
    """
    n = len(coeffs)
    if pow(psi, n, q) != q - 1:
        return False
    bits = n.bit_length() - 1
    values = [int(c) for c in reversed(coeffs)]
    for k in sample_points(n):
        x = pow(psi, 2 * _bit_reverse(k, bits) + 1, q)
        acc = 0
        for c in values:
            acc = (acc * x + c) % q
        if acc != int(out[k]):
            return False
    return True
