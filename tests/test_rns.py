"""Tests for residue-number-system decomposition and reconstruction."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from nttsim import modarith, rns
from nttsim.cli import main
from nttsim.ntt import Polynomial, polymul_ntt
from nttsim.rns import RnsBasis, RnsPolynomial, decompose, gen_basis, reconstruct, rns_polymul
from nttsim.sim import make_sim_config

from conftest import negacyclic_schoolbook_oracle


class TestBasis:
    def test_small_crt_pair(self):
        basis = RnsBasis.from_primes([3, 5])
        assert basis.big_q == 15
        assert basis.n_q == 2
        for (w, inv), mod in zip(basis.crt_weights, basis.moduli):
            assert w == 15 // mod.q
            assert (w * inv) % mod.q == 1

    def test_word32_nq2_covers_60_bits(self):
        basis = gen_basis(32, 2, 4096)
        assert math.ceil(math.log2(basis.big_q)) >= 60
        for mod in basis.moduli:
            assert mod.q % 8192 == 1

    def test_word32_nq6_covers_180_bits(self):
        basis = gen_basis(32, 6, 4096)
        assert math.ceil(math.log2(basis.big_q)) >= 180
        assert len({m.q for m in basis.moduli}) == 6

    def test_pairwise_coprime(self):
        basis = gen_basis(30, 4, 1024)
        qs = [m.q for m in basis.moduli]
        for i in range(4):
            for j in range(i + 1, 4):
                assert math.gcd(qs[i], qs[j]) == 1

    def test_duplicate_primes_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis.from_primes([3, 3])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="^at least one modulus is required$"):
            RnsBasis.from_moduli([])

    def test_channel_count_bound(self, monkeypatch):
        # refused from the count alone, before the prime scan and the CRT
        # weights, whose cost grows with the square of the count
        assert rns.MAX_NQ == 64
        primes = list(itertools.islice(modarith._ntt_primes(30, 16), rns.MAX_NQ + 1))
        assert gen_basis(30, rns.MAX_NQ, 16).n_q == RnsBasis.from_primes(primes[:-1]).n_q == 64
        message = "^Nq=65 exceeds the maximum Nq=64$"
        with pytest.raises(ValueError, match=message):
            RnsBasis.from_primes(primes)

        def no_scan(*args):
            raise AssertionError("prime scan before the count check")

        monkeypatch.setattr(rns, "_ntt_primes", no_scan)
        with pytest.raises(ValueError, match=message):
            gen_basis(30, rns.MAX_NQ + 1, 16)
        with pytest.raises(ValueError, match="^Nq=16000 exceeds the maximum Nq=64$"):
            make_sim_config(16, 2, q_bits=62, n_q=16000)

    def test_insufficient_primes(self):
        with pytest.raises(ValueError):
            gen_basis(9, 40, 16)

    @pytest.mark.parametrize("bits,n_q,n,message", [
        (14, 2, 1024, "only 1 prime below 2^14 is congruent to 1 mod 2048; 2 were asked for"),
        (9, 40, 16, "only 5 primes below 2^9 are congruent to 1 mod 32; 40 were asked for"),
        (6, 2, 16, "no prime below 2^6 is congruent to 1 mod 32; 2 were asked for"),
    ])
    def test_short_chain_counts_what_it_found(self, bits, n_q, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_basis(bits, n_q, n)

    def test_chain_is_one_scan(self, monkeypatch):
        # each prime of the chain is drawn once, not rescanned from 2^bits
        two_n = 2 * 4096
        candidates = range((1 << 60) + 1 - two_n, two_n, -two_n)
        want = list(itertools.islice(filter(modarith.is_prime, candidates), 32))
        calls = []
        is_prime = modarith.is_prime
        monkeypatch.setattr(modarith, "is_prime", lambda x: calls.append(x) or is_prime(x))
        assert [m.q for m in gen_basis(60, 32, 4096).moduli] == want
        assert len(calls) < 1000

    def test_one_chain_everywhere(self, capsys):
        # the basis, the simulator config and the CLI pick the same primes
        want = [gen_basis(30, i + 1, 1024).moduli[i].q for i in range(4)]
        assert [m.q for m in gen_basis(30, 4, 1024).moduli] == want
        config = make_sim_config(1024, 8, q_bits=30, n_q=4)
        assert [m.q for m in config.moduli] == want
        assert main(["sim", "--n", "1024", "--npe", "8", "--q-bits", "30", "--nq", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["moduli"] == want


class TestRnsPolynomial:
    def test_rejects_no_residue_polynomial(self):
        with pytest.raises(ValueError, match="^at least one residue polynomial is required$"):
            RnsPolynomial(())

    def test_rejects_unequal_lengths(self):
        basis = gen_basis(14, 2, 16)
        long, short = decompose([5] * 16, basis), decompose([5] * 8, basis)
        with pytest.raises(ValueError, match="^residue polynomial lengths differ$"):
            RnsPolynomial((long.residue_polys[0], short.residue_polys[1]))

    def test_rejects_repeated_modulus(self):
        poly = decompose([5] * 16, gen_basis(14, 2, 16)).residue_polys[0]
        with pytest.raises(ValueError, match="^residue moduli must be distinct$"):
            RnsPolynomial((poly, poly))


class TestDecomposeReconstruct:
    def test_value_seven_under_3_5(self):
        basis = RnsBasis.from_primes([3, 5])
        r = decompose([7, 3, 1, 0], basis)
        assert r.residue_polys[0].to_ints() == [1, 0, 1, 0]
        assert r.residue_polys[1].to_ints() == [2, 3, 1, 0]
        assert reconstruct(r, basis) == [7, 3, 1, 0]

    def test_zero(self):
        basis = RnsBasis.from_primes([3, 5])
        r = decompose([0, 0, 0, 0], basis)
        assert all(p.to_ints() == [0] * 4 for p in r.residue_polys)
        assert reconstruct(r, basis) == [0] * 4

    def test_rejects_out_of_range(self):
        basis = RnsBasis.from_primes([3, 5])
        with pytest.raises(ValueError):
            decompose([15, 0, 0, 0], basis)
        with pytest.raises(ValueError):
            decompose([-1, 0, 0, 0], basis)

    @pytest.mark.parametrize("value", [1.7, np.float64(2.9), "5"],
                             ids=["float", "numpy float", "str"])
    def test_rejects_non_integers(self, value):
        # int() would truncate a float and parse a string
        basis = gen_basis(30, 2, 16)
        with pytest.raises(ValueError, match="^coefficients must be integers$"):
            decompose([value] * 16, basis)

    def test_foreign_basis_rejected(self):
        # CRT weights of another basis would give wrong coefficients
        basis = gen_basis(30, 2, 16)
        reverse = RnsBasis.from_moduli(basis.moduli[::-1])
        for residues, other in (
            (decompose([basis.big_q - 7] * 16, basis), gen_basis(20, 2, 16)),
            (decompose([basis.big_q - 5] * 16, basis), reverse),
        ):
            with pytest.raises(ValueError, match="operand bases do not match"):
                reconstruct(residues, other)

    def test_roundtrip_random(self, rng):
        basis = gen_basis(30, 3, 16)
        big_q = basis.big_q
        values = [rng.randrange(big_q) for _ in range(10_000)]
        for start in range(0, 10_000, 16):
            chunk = values[start:start + 16]
            assert reconstruct(decompose(chunk, basis), basis) == chunk

    def test_single_modulus_degenerates_to_identity(self, rng):
        basis = gen_basis(14, 1, 16)
        q = basis.big_q
        coeffs = [rng.randrange(q) for _ in range(16)]
        r = decompose(coeffs, basis)
        assert r.residue_polys[0].to_ints() == coeffs
        assert reconstruct(r, basis) == coeffs

    def test_product_homomorphism(self, rng):
        basis = gen_basis(28, 3, 16)
        big_q = basis.big_q
        for _ in range(100):
            x, y = rng.randrange(big_q), rng.randrange(big_q)
            rx = decompose([x] + [0] * 15, basis)
            ry = decompose([y] + [0] * 15, basis)
            rxy = decompose([(x * y) % big_q] + [0] * 15, basis)
            for px, py, pxy, mod in zip(
                rx.residue_polys, ry.residue_polys, rxy.residue_polys, basis.moduli
            ):
                assert (px.to_ints()[0] * py.to_ints()[0]) % mod.q == pxy.to_ints()[0]


class TestRnsPolymul:
    def test_single_modulus_matches_plain(self, rng):
        basis = gen_basis(14, 1, 8)
        mod = basis.moduli[0]
        a = [rng.randrange(mod.q) for _ in range(8)]
        b = [rng.randrange(mod.q) for _ in range(8)]
        got = rns_polymul(decompose(a, basis), decompose(b, basis), basis)
        plain = polymul_ntt(Polynomial.from_ints(a, mod), Polynomial.from_ints(b, mod))
        assert got.residue_polys[0].to_ints() == plain.to_ints()

    def test_matches_bigint_schoolbook(self, rng):
        basis = gen_basis(14, 2, 8)
        big_q = basis.big_q
        for _ in range(20):
            a = [rng.randrange(big_q) for _ in range(8)]
            b = [rng.randrange(big_q) for _ in range(8)]
            got = reconstruct(
                rns_polymul(decompose(a, basis), decompose(b, basis), basis), basis
            )
            assert got == negacyclic_schoolbook_oracle(a, b, big_q)

    def test_zero_annihilates(self, rng):
        basis = gen_basis(14, 2, 8)
        a = [rng.randrange(basis.big_q) for _ in range(8)]
        zero = [0] * 8
        got = reconstruct(
            rns_polymul(decompose(a, basis), decompose(zero, basis), basis), basis
        )
        assert got == zero

    def test_mismatched_basis_rejected(self):
        b1 = gen_basis(14, 2, 8)
        b2 = gen_basis(15, 2, 8)
        pa = decompose([0] * 8, b1)
        pb = decompose([0] * 8, b2)
        with pytest.raises(ValueError):
            rns_polymul(pa, pb, b1)
        with pytest.raises(ValueError, match="operand bases do not match"):
            rns_polymul(pb, pa, b1)
        # the same primes in another order have the same Q
        reverse = RnsBasis.from_moduli(b1.moduli[::-1])
        with pytest.raises(ValueError, match="operand bases do not match"):
            rns_polymul(pa, pa, reverse)

    def test_length_mismatch_rejected_before_any_product(self):
        basis = gen_basis(14, 2, 16)
        with pytest.raises(ValueError, match="polynomial lengths differ"):
            rns_polymul(decompose([0] * 8, basis), decompose([0] * 16, basis), basis)
