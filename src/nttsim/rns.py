"""Residue number system over chains of word-sized NTT-friendly primes.

Coefficients mod Q = q_1 * ... * q_Nq are held as one residue polynomial
per prime, so a large-modulus polynomial product runs as Nq independent
word-sized products. Reconstruction uses the Gauss CRT formula with
precomputed weights; the accelerator itself never reconstructs, but the
mod-Q oracle tests need it.

Inputs are canonical representatives in [0, Q); centered forms are out of
scope.
"""

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from nttsim.modarith import Modulus, _ntt_primes, _short_chain, barrett_precompute
from nttsim.ntt import Polynomial, _as_ints, _check_power_of_two, polymul_ntt


# The most moduli a basis holds. The prime scan and the CRT weights (whose
# cost grows with the square of the count) run before any operand exists,
# so a mistyped count is refused from its value alone.
MAX_NQ = 64


def _check_count(n_q: int) -> None:
    if n_q < 1:
        raise ValueError("at least one modulus is required")
    if n_q > MAX_NQ:
        raise ValueError(f"Nq={n_q} exceeds the maximum Nq={MAX_NQ}")


@dataclass(frozen=True)
class RnsBasis:
    """Ordered prime moduli with CRT reconstruction constants.

    crt_weights[i] = (Q // q_i, (Q // q_i)^-1 mod q_i).
    """

    moduli: Tuple[Modulus, ...]
    big_q: int
    crt_weights: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_moduli(cls, moduli: Sequence[Modulus]) -> "RnsBasis":
        qs = [m.q for m in moduli]
        _check_count(len(qs))
        if len(set(qs)) != len(qs):
            raise ValueError("basis primes must be distinct")
        big_q = 1
        for q in qs:
            big_q *= q
        weights = []
        for q in qs:
            w = big_q // q
            weights.append((w, pow(w % q, -1, q)))
        return cls(tuple(moduli), big_q, tuple(weights))

    @classmethod
    def from_primes(cls, primes: Sequence[int]) -> "RnsBasis":
        return cls.from_moduli([barrett_precompute(q) for q in primes])

    @property
    def n_q(self) -> int:
        return len(self.moduli)


@dataclass(frozen=True)
class RnsPolynomial:
    """One residue polynomial per basis modulus: at least one, all of equal
    length, with distinct moduli, which are the residue polynomials' own."""

    residue_polys: Tuple[Polynomial, ...]

    def __post_init__(self):
        polys = self.residue_polys
        if not polys:
            raise ValueError("at least one residue polynomial is required")
        if len({p.n for p in polys}) > 1:
            raise ValueError("residue polynomial lengths differ")
        if len({p.mod.q for p in polys}) < len(polys):
            raise ValueError("residue moduli must be distinct")

    @property
    def n(self) -> int:
        return self.residue_polys[0].n


def gen_basis(word_bits: int, n_q: int, n: int) -> RnsBasis:
    """The n_q largest primes below 2^word_bits congruent to 1 mod 2N,
    drawn from one scan of the candidates: the one prime chain, which the
    simulator config and the CLI also use."""
    _check_count(n_q)
    primes = list(itertools.islice(_ntt_primes(word_bits, n), n_q))
    if len(primes) < n_q:
        raise _short_chain(len(primes), n_q, word_bits, n)
    moduli = [barrett_precompute(q) for q in primes]
    return RnsBasis.from_moduli(moduli)


def decompose(coeffs: Sequence[int], basis: RnsBasis) -> RnsPolynomial:
    """Split coefficients in [0, Q) into per-modulus residue polynomials."""
    values = np.array(_as_ints(coeffs), dtype=object)
    _check_power_of_two(len(values))
    bad = values[(values < 0) | (values >= basis.big_q)]
    if bad.size:
        raise ValueError(f"coefficient {bad[0]} outside [0, Q={basis.big_q})")
    polys = tuple(
        Polynomial((values % mod.q).astype(np.uint64), mod) for mod in basis.moduli
    )
    return RnsPolynomial(polys)


def _check_basis(rns_poly: RnsPolynomial, basis: RnsBasis) -> None:
    if tuple(p.mod for p in rns_poly.residue_polys) != basis.moduli:
        raise ValueError("operand bases do not match")


def reconstruct(rns_poly: RnsPolynomial, basis: RnsBasis) -> List[int]:
    """Gauss CRT: sum_i x_i * (Q/q_i) * inv_i mod Q, per coefficient, once
    the residue moduli are checked to be basis's, in order."""
    _check_basis(rns_poly, basis)
    acc = 0
    for poly, (w, inv) in zip(rns_poly.residue_polys, basis.crt_weights):
        acc = acc + poly.coeffs.astype(object) * (w * inv)
    return (acc % basis.big_q).tolist()


def rns_polymul(
    a: RnsPolynomial, b: RnsPolynomial, basis: RnsBasis
) -> RnsPolynomial:
    """Component-wise negacyclic product across independent channels."""
    _check_basis(a, basis)
    _check_basis(b, basis)
    products = tuple(polymul_ntt(pa, pb) for pa, pb in zip(a.residue_polys, b.residue_polys))
    return RnsPolynomial(products)
