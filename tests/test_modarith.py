"""Tests for exact modular arithmetic kernels.

Expected values are frozen from independent oracles: wide-integer
multiply-then-remainder, exhaustive order checks, and a prime sieve.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nttsim import modarith
from nttsim.modarith import (
    Modulus,
    barrett_mul_hw,
    barrett_mul_hw_batch,
    barrett_mul_hw_trace,
    barrett_mul_soft,
    barrett_mul_soft_trace,
    barrett_precompute,
    find_ntt_prime,
    find_primitive_root,
    half_mod,
    is_prime,
    ntt_modulus,
    shoup_mul_into,
    shoup_precompute,
    step_multiply,
)
from nttsim.ntt import gen_twiddles
from nttsim.rns import gen_basis

from conftest import multiplicative_order, mulmod_oracle, plain_barrett, sieve_primes

PRIMES_1K = sieve_primes(1000)


class TestPrecompute:
    def test_q17(self):
        mod = barrett_precompute(17)
        # oracle: k = ceil(log2 17) = 5, m = floor(2^10 / 17) = 60
        assert (mod.q, mod.k, mod.m) == (17, 5, 60)

    def test_q3(self):
        mod = barrett_precompute(3)
        assert (mod.q, mod.k, mod.m) == (3, 2, 5)  # floor(16 / 3)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            barrett_precompute(4)

    def test_rejects_below_floor(self):
        with pytest.raises(ValueError):
            barrett_precompute(2)

    def test_rejects_63_bit_prime(self):
        # 2^63 - 735 is prime and 1 mod 32, but its t4 < 3q leaves a word
        q = 9223372036854775073
        assert is_prime(q) and q.bit_length() == 63
        with pytest.raises(ValueError, match=r"outside supported range \[3, 2\^62\)"):
            barrett_precompute(q)

    def test_m_bit_length_is_k_plus_one(self):
        # m has exactly k+1 bits for every prime modulus
        for q in PRIMES_1K:
            if q < 3:
                continue
            mod = barrett_precompute(q)
            assert mod.m.bit_length() == mod.k + 1
            assert 2 ** (mod.k - 1) < q <= 2 ** mod.k

    def test_direct_division_oracle(self):
        for q in PRIMES_1K[1:]:
            mod = barrett_precompute(q)
            k = math.ceil(math.log2(q))
            assert mod.k == k
            assert mod.m == (1 << (2 * k)) // q


class TestIsPrime:
    def test_against_sieve(self):
        flags = set(sieve_primes(5000))
        for x in range(5000):
            assert is_prime(x) == (x in flags)

    def test_large_known(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)
        assert is_prime(4293918721)  # 2^32 - 2^20 + 1


class TestBarrettSoft:
    def test_small_example(self):
        mod = barrett_precompute(17)
        assert barrett_mul_soft(5, 7, mod) == 1  # 35 mod 17

    def test_zero_annihilates(self):
        for q in (5, 17, 12289):
            mod = barrett_precompute(q)
            assert barrett_mul_soft(0, q - 1, mod) == 0
            assert barrett_mul_soft(q - 1, 0, mod) == 0

    def test_rejects_out_of_range(self):
        mod = barrett_precompute(17)
        with pytest.raises(ValueError):
            barrett_mul_soft(17, 3, mod)
        with pytest.raises(ValueError):
            barrett_mul_soft(3, 99, mod)

    def test_exhaustive_small_primes(self):
        # Every (a, b) pair for every prime q < 256, against the
        # wide-integer multiply-then-remainder oracle.
        for q in sieve_primes(256):
            if q < 3:
                continue
            mod = barrett_precompute(q)
            for a in range(q):
                for b in range(a, q):
                    got = barrett_mul_soft(a, b, mod)
                    assert got == mulmod_oracle(a, b, q)
                    assert barrett_mul_soft(b, a, mod) == got


class TestBarrettHw:
    def test_matches_soft_small(self):
        mod = barrett_precompute(17)
        assert barrett_mul_hw(5, 7, mod) == 1

    def test_rejects_out_of_range(self):
        mod = barrett_precompute(17)
        with pytest.raises(ValueError):
            barrett_mul_hw(18, 2, mod)

    def test_exhaustive_ntt_friendly_primes(self):
        # Smallest 50 primes congruent to 1 mod 8, every (a, b) pair,
        # through the batch kernel, against both the plain variant and
        # the wide-integer oracle.
        primes = [q for q in sieve_primes(2000) if q % 8 == 1][:50]
        assert len(primes) == 50
        for q in primes:
            mod = barrett_precompute(q)
            a = np.repeat(np.arange(q, dtype=np.uint64), q)
            b = np.tile(np.arange(q, dtype=np.uint64), q)
            hw = barrett_mul_hw_batch(a, b, mod)
            soft = plain_barrett(a, b, mod)
            expect = (a * b) % np.uint64(q)
            np.testing.assert_array_equal(hw, soft)
            np.testing.assert_array_equal(hw, expect)

    def test_random_32bit_prime_oracle(self, rng):
        q = find_ntt_prime(32, 4096)
        mod = barrett_precompute(q)
        n = 10**6
        gen = np.random.default_rng(1)
        # random pairs, then every pair of edge values
        edges = np.array([0, 1, 2, q - 1, q - 2, 2**31, q // 2, (q + 1) // 2], dtype=np.uint64)
        a = np.concatenate([gen.integers(0, q, size=n, dtype=np.uint64), np.repeat(edges, len(edges))])
        b = np.concatenate([gen.integers(0, q, size=n, dtype=np.uint64), np.tile(edges, len(edges))])
        hw = barrett_mul_hw_batch(a, b, mod)
        np.testing.assert_array_equal(hw, (a * b) % np.uint64(q))
        np.testing.assert_array_equal(hw, plain_barrett(a, b, mod))
        # spot-check the scalar path against the batch path
        for _ in range(200):
            x, y = rng.randrange(q), rng.randrange(q)
            assert barrett_mul_hw(x, y, mod) == mulmod_oracle(x, y, q)
            assert barrett_mul_soft(x, y, mod) == mulmod_oracle(x, y, q)

    def test_t4_relation_instrumented(self, rng):
        # Hardware t4 equals the software t4 or that value plus q, and
        # stays below 3q, for every pair of a small prime plus randoms
        # under a 32-bit prime.
        mod = barrett_precompute(97)
        for a in range(97):
            for b in range(97):
                s = barrett_mul_soft_trace(a, b, mod)
                h = barrett_mul_hw_trace(a, b, mod)
                assert h.t4 in (s.t4, s.t4 + 97)
                assert h.t4 < 3 * 97
                assert h.t2 in (s.t2, s.t2 - 1)
                assert h.z == s.z
        big = gen_basis(32, 2, 4096).moduli[1]
        for _ in range(2000):
            a, b = rng.randrange(big.q), rng.randrange(big.q)
            s = barrett_mul_soft_trace(a, b, big)
            h = barrett_mul_hw_trace(a, b, big)
            assert h.t4 in (s.t4, s.t4 + big.q)
            assert h.t4 < 3 * big.q
            assert s.t4 < 2 * big.q


class TestStepMultiply:
    def test_full_width_corner(self):
        p = step_multiply(0xFFFF_FFFF, 0xFFFF_FFFF, 32)
        assert p.value == 0xFFFF_FFFE_0000_0001
        assert p.hi == 0xFFFF_FFFE and p.lo == 0x0000_0001

    def test_identity(self):
        for x in (0, 1, 12345, 2**31):
            assert step_multiply(1, x, 32).value == x
            assert step_multiply(x, 1, 32).value == x

    def test_random_pairs_both_widths(self, rng):
        # 10^6 random pairs split across W in {16, 32}, against the
        # wide-integer oracle.
        for width in (16, 32):
            hi = 1 << width
            for _ in range(500_000):
                a, b = rng.randrange(hi), rng.randrange(hi)
                p = step_multiply(a, b, width)
                assert p.value == a * b
                assert p.lo < hi and p.hi < hi

    def test_rejects_odd_width(self):
        with pytest.raises(ValueError):
            step_multiply(1, 1, 15)

    def test_rejects_oversized_operand(self):
        with pytest.raises(ValueError):
            step_multiply(1 << 16, 1, 16)


class TestHalfMod:
    def test_even(self):
        assert half_mod(6, 17) == 3

    def test_odd(self):
        assert half_mod(7, 17) == 12  # 3 + 9; 2*12 mod 17 == 7

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            half_mod(3, 16)

    def test_doubling_identity_exhaustive(self):
        for q in sieve_primes(500):
            if q == 2:
                continue
            for x in range(q):
                assert (2 * half_mod(x, q)) % q == x


class TestPrimitiveRoot:
    def test_q17(self):
        # oracle: exhaustive order check over all candidates below 17
        orders = {g: multiplicative_order(g, 17) for g in range(2, 17)}
        smallest = min(g for g, o in orders.items() if o == 16)
        assert smallest == 3
        assert find_primitive_root(17) == 3

    def test_q7681(self):
        g = find_primitive_root(7681)
        assert g == 17
        assert multiplicative_order(17, 7681) == 7680

    def test_order_property_random_primes(self, rng):
        candidates = [q for q in sieve_primes(20000) if q % 8 == 1]
        for q in rng.sample(candidates, 50):
            g = find_primitive_root(q)
            assert multiplicative_order(g, q) == q - 1

    def test_q2(self):
        # Z_2^* = {1}: 1 generates it
        assert find_primitive_root(2) == 1

    @pytest.mark.parametrize("q", [0, 1, 4, 9, 15])
    def test_rejects_non_primes(self, q):
        with pytest.raises(ValueError, match="not prime"):
            find_primitive_root(q)


class TestShoupMul:
    """shoup_mul_into against Python's (v * w) % q, on each side of the
    32-bit branch and at the 62-bit limit."""

    BITS = [14, 31, 32, 33, 40, 62]

    @staticmethod
    def shift(mod):
        return 32 if mod.k <= 32 else 64

    @pytest.mark.parametrize("bits", BITS)
    def test_matches_python(self, bits):
        mod = ntt_modulus(bits, 16)
        q = mod.q
        edges = [0, 1, q - 2, q - 1]
        gen = np.random.default_rng(bits)
        # every pair of edge values, then a random block
        v, w = (np.concatenate([np.array(e, np.uint64), gen.integers(0, q, 4096, dtype=np.uint64)])
                for e in (edges * 4, sorted(edges * 4)))
        w_pre = shoup_precompute(w, mod)
        s = self.shift(mod)
        assert w_pre.tolist() == [(x << s) // q for x in w.tolist()]
        out, tmp = np.empty_like(v), np.empty_like(v)
        shoup_mul_into(v, w, w_pre, mod, out, tmp)
        want = [(x * y) % q for x, y in zip(v.tolist(), w.tolist())]
        assert out.tolist() == want
        # before its one conditional subtraction the result lies below 2q
        for x, y, y_pre in zip(v.tolist(), w.tolist(), w_pre.tolist()):
            assert 0 <= x * y - ((x * y_pre) >> s) * q < 2 * q
        # out may be v itself
        shoup_mul_into(v, w, w_pre, mod, v, tmp)
        assert v.tolist() == want

    @pytest.mark.parametrize("bits", BITS)
    def test_table_quotients(self, bits):
        mod = ntt_modulus(bits, 16)
        q, s = mod.q, self.shift(mod)
        tw = gen_twiddles(mod, 16)
        assert [(2 * h) % q for h in tw.inverse_half.tolist()] == tw.inverse.tolist()
        for table, pre in ((tw.forward, tw.forward_pre), (tw.inverse_half, tw.inverse_half_pre)):
            assert pre.tolist() == [(x << s) // q for x in table.tolist()]


class TestFindNttPrime:
    def test_14bit_n1024(self):
        # sieve oracle: the largest 14-bit prime congruent to 1 mod 2048
        candidates = [q for q in sieve_primes(1 << 14) if q % 2048 == 1]
        assert candidates[-1] == 12289  # frozen golden constant
        assert find_ntt_prime(14, 1024) == 12289

    def test_postcondition_congruence(self):
        for idx in range(4):
            q = gen_basis(20, idx + 1, 256).moduli[idx].q
            assert q % 512 == 1
            assert is_prime(q)

    def test_distinct_indices_coprime(self):
        q0, q1 = (gen_basis(30, i + 1, 1024).moduli[i].q for i in range(2))
        assert q0 != q1
        assert math.gcd(q0, q1) == 1

    def test_descending_order(self):
        qs = [gen_basis(24, i + 1, 512).moduli[i].q for i in range(5)]
        assert qs == sorted(qs, reverse=True)
        assert all(q < 2**24 for q in qs)

    def test_exhausted_range(self):
        with pytest.raises(ValueError):
            gen_basis(8, 51, 64)

    @pytest.mark.parametrize("bits,n,message", [
        (63, 16, "bits must be <= 62"),
        (20, 12, "N=12 is not a power of two"),
        (20, 1, "N=1 is not a power of two"),
        (10, 512, r"2N=1024 does not fit below 2\^10"),
        (-1, 16, "bit width -1 is negative"),
    ])
    def test_rejects_unsupported_request(self, bits, n, message):
        with pytest.raises(ValueError, match=message):
            find_ntt_prime(bits, n)


@st.composite
def residue_pairs(draw):
    q = draw(st.sampled_from([q for q in PRIMES_1K if q >= 3]))
    a = draw(st.integers(0, q - 1))
    b = draw(st.integers(0, q - 1))
    return q, a, b


class TestProperties:
    @given(residue_pairs())
    @settings(max_examples=300, deadline=None)
    def test_both_variants_match_oracle(self, qab):
        q, a, b = qab
        mod = barrett_precompute(q)
        want = mulmod_oracle(a, b, q)
        assert barrett_mul_soft(a, b, mod) == want
        assert barrett_mul_hw(a, b, mod) == want

    @given(residue_pairs())
    @settings(max_examples=300, deadline=None)
    def test_half_mod_doubles_back(self, qab):
        q, a, _ = qab
        assert (2 * half_mod(a, q)) % q == a

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_step_multiply_exact(self, a, b):
        assert step_multiply(a, b, 32).value == a * b

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_scalar(self, data):
        # the plain variant has no array kernel: the tests' helper covers
        # the widths they draw, and 33-62-bit moduli check hw only
        mod = data.draw(st.one_of(
            st.sampled_from([17, 97, 7681, 12289, 65537, find_ntt_prime(32, 64)]).map(barrett_precompute),
            st.integers(33, 62).map(lambda bits: ntt_modulus(bits, 64)),
        ))
        q = mod.q
        n = data.draw(st.integers(1, 64))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        a = gen.integers(0, q, size=n, dtype=np.uint64)
        b = gen.integers(0, q, size=n, dtype=np.uint64)
        hw = barrett_mul_hw_batch(a, b, mod)
        soft = plain_barrett(a, b, mod) if mod.k <= 32 else None
        for i in range(n):
            if soft is not None:
                assert soft[i] == barrett_mul_soft(int(a[i]), int(b[i]), mod)
            assert hw[i] == barrett_mul_hw(int(a[i]), int(b[i]), mod)

    @pytest.mark.parametrize("bits", [33, 40, 48, 61, 62])
    def test_wide_batch_edge_operands(self, bits):
        # every pair of edge values: both ends of the range, its middle and
        # the 32-bit limb boundary, where the high-word carries happen
        mod = ntt_modulus(bits, 64)
        q = mod.q
        assert mod.k == bits
        edges = [0, 1, 2, q - 1, q - 2, 2**32 - 1, 2**32, 2**32 + 1, q // 2, (q + 1) // 2]
        a = np.repeat(np.array(edges, dtype=np.uint64), len(edges))
        b = np.tile(np.array(edges, dtype=np.uint64), len(edges))
        hw = barrett_mul_hw_batch(a, b, mod).tolist()
        for x, y, got in zip(a.tolist(), b.tolist(), hw):
            assert got == mulmod_oracle(x, y, q) == barrett_mul_hw(x, y, mod)


class TestModulusInvariants:
    def test_immutable(self):
        mod = barrett_precompute(17)
        with pytest.raises(AttributeError):
            mod.q = 19

    def test_state_is_q_k_m(self):
        # a modulus is its prime and Barrett constants, nothing else: the
        # 2N a prime was generated for is never stored
        assert [f.name for f in dataclasses.fields(Modulus)] == ["q", "k", "m"]
        mod = modarith.ntt_modulus(14, 1024)
        assert mod == barrett_precompute(12289)
