"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s``). Expected numbers
are either frozen golden counts or values recomputed here from
independent oracles.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from nttsim.modarith import (
    barrett_mul_hw,
    barrett_mul_hw_batch,
    barrett_mul_hw_trace,
    barrett_mul_soft,
    barrett_mul_soft_trace,
    barrett_precompute,
    find_ntt_prime,
    half_mod,
    ntt_modulus,
)
from nttsim.ntt import (
    Polynomial,
    cached_twiddles,
    intt_gs_array,
    ntt_ct_array,
    polymul_ntt_array,
    schoolbook_negacyclic_array,
)
from nttsim.rns import decompose, gen_basis, reconstruct, rns_polymul
from nttsim.layout import verify_conflict_free
from nttsim.schedule import (
    PROFILES,
    PipelineConfig,
    build_schedule,
    check_raw_bound,
    validate_geometry,
)
from nttsim.sim import detect_hazards, make_sim_config, predicted_cycles, run

from conftest import negacyclic_schoolbook_oracle, plain_barrett, sieve_primes
from timing_oracle import oracle_timing


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {cid}: {description}")
        raise
    print(f"\n[PASS] criterion {cid}: {description}")


def valid_npes(n_total):
    n = 1 << ((n_total.bit_length() - 1) // 2)
    npe = 1
    out = []
    while npe <= n // 2:
        out.append(npe)
        npe *= 2
    return out


def random_poly(mod, n, seed):
    gen = np.random.default_rng(seed)
    return Polynomial(gen.integers(0, mod.q, size=n, dtype=np.uint64), mod)


# the cycle-stepped oracle is run on every N up to this size
ORACLE_MAX_N = 1024


def assert_timing_matches_oracle(trace, pipe, *reports):
    """Static and dynamic reports agree with the independent oracle."""
    want = oracle_timing(trace, pipe)
    for rep in reports:
        got = (rep.events, rep.stall_cycles, rep.per_stage, rep.total_cycles)
        assert got == (
            want.events, want.stall_cycles, want.per_stage, want.total_cycles
        ), (trace.N, trace.npe, trace.op_kind, trace.layout_kind)


# golden per-PE clock-cycle counts for N=4096, 32-bit profile
TABLE_N4096 = {
    1: (24595, 4114, 24596),
    2: (12307, 2066, 12308),
    4: (6163, 1042, 6164),
    8: (3091, 530, 3092),
    16: (1555, 274, 1556),
    32: (787, 146, 788),
}

# golden NTT counts for N=1024, 14-bit profile
TABLE_N1024 = {1: 5135, 2: 2575, 4: 1295, 8: 655, 16: 335}


class TestCriterion1:
    def test_n4096_cycle_table_exact(self):
        with criterion(1, "N=4096 32-bit cycle table, exact, zero hazards"):
            cfg_mod = ntt_modulus(32, 4096)
            a = random_poly(cfg_mod, 4096, 101)
            b = random_poly(cfg_mod, 4096, 102)
            for npe, (want_ntt, want_mult, want_intt) in TABLE_N4096.items():
                cfg = make_sim_config(4096, npe, moduli=[cfg_mod], profile="q32")
                got = {}
                for op, operand_b, want in (
                    ("ntt", None, want_ntt),
                    ("mult", b, want_mult),
                    ("intt", None, want_intt),
                ):
                    report = run(cfg, a, operand_b, op=op)
                    assert report.stall_cycles == 0, (npe, op)
                    assert report.bank_conflict_count == 0, (npe, op)
                    got[op] = report.total_cycles
                assert got == {"ntt": want_ntt, "mult": want_mult, "intt": want_intt}, npe


class TestCriterion2:
    def test_n1024_and_n16384_cycles(self):
        with criterion(2, "N=1024 14-bit NTT column and N=16384 Npe=16"):
            mod14 = ntt_modulus(14, 1024)
            a = random_poly(mod14, 1024, 103)
            for npe, want in TABLE_N1024.items():
                cfg = make_sim_config(1024, npe, moduli=[mod14], profile="q14")
                report = run(cfg, a, op="ntt")
                assert report.total_cycles == want, npe
                assert report.stall_cycles == 0
            mod32 = ntt_modulus(32, 16384)
            big = random_poly(mod32, 16384, 104)
            cfg = make_sim_config(16384, 16, moduli=[mod32], profile="q32")
            report = run(cfg, big, op="ntt")
            assert report.total_cycles == 7187
            assert report.stall_cycles == 0
            assert report.bank_conflict_count == 0


class TestCriterion3:
    def test_hazard_freedom_sweep(self):
        with criterion(3, "hazard freedom iff the RAW bound is satisfied"):
            for n_total in (16, 64, 256, 1024, 4096):
                mod = ntt_modulus(14 if n_total <= 1024 else 32, n_total)
                a = random_poly(mod, n_total, n_total)
                b = random_poly(mod, n_total, n_total + 1)
                for npe in valid_npes(n_total):
                    for profile in ("q32", "q14"):
                        pipe = PROFILES[profile]
                        cfg = make_sim_config(
                            n_total, npe, moduli=[mod], profile=profile
                        )
                        for op in ("ntt", "intt", "mult"):
                            trace = build_schedule(n_total, npe, op)
                            static = detect_hazards(trace, pipe)
                            dynamic = run(cfg, a, b if op == "mult" else None, op=op)
                            rep = dynamic.reports[0]
                            # static and dynamic agree with the oracle event
                            # for event
                            if n_total <= ORACLE_MAX_N:
                                assert_timing_matches_oracle(trace, pipe, static, rep)
                            assert static.events == rep.events, (n_total, npe, op)
                            assert static.stall_cycles == rep.stall_cycles
                            assert static.total_cycles == rep.total_cycles
                            assert rep.bank_conflicts == 0
                            if op == "mult":
                                assert rep.stall_cycles == 0
                                continue
                            bound = check_raw_bound(n_total, npe, pipe, op_kind=op)
                            if bound.satisfied:
                                assert rep.stall_cycles == 0, (n_total, npe, op, profile)
                            else:
                                assert rep.stall_cycles > 0, (n_total, npe, op, profile)

    def test_sequential_layout_injection(self):
        with criterion(3, "sequential-layout injection flagged by both analyzers"):
            for n_total in (16, 64, 256, 1024, 4096):
                mod = ntt_modulus(14 if n_total <= 1024 else 32, n_total)
                npe = valid_npes(n_total)[-1]
                trace = build_schedule(n_total, npe, "ntt", layout_kind="sequential")
                static = detect_hazards(trace, PROFILES["q32"])
                assert static.read_conflicts > 0, n_total
                cfg = make_sim_config(
                    n_total, npe, moduli=[mod], profile="q32",
                    layout_kind="sequential",
                )
                dynamic = run(cfg, random_poly(mod, n_total, 105), op="ntt")
                rep = dynamic.reports[0]
                assert rep.bank_conflicts > 0
                if n_total <= ORACLE_MAX_N:
                    assert_timing_matches_oracle(trace, PROFILES["q32"], static, rep)
                assert static.events == rep.events, n_total

    def test_overdeep_pipeline_injection(self):
        with criterion(3, "over-deep pipeline flagged by both analyzers"):
            for n_total in (16, 64, 256, 1024, 4096):
                mod = ntt_modulus(14 if n_total <= 1024 else 32, n_total)
                npe = valid_npes(n_total)[-1]
                bound = check_raw_bound(n_total, npe, PROFILES["ideal"]).bound
                deep = PipelineConfig(0, 0, bound, bound)
                trace = build_schedule(n_total, npe, "ntt")
                static = detect_hazards(trace, deep)
                assert static.raw_count > 0, n_total
                cfg = make_sim_config(n_total, npe, moduli=[mod], profile=deep)
                dynamic = run(cfg, random_poly(mod, n_total, 106), op="ntt")
                rep = dynamic.reports[0]
                assert rep.stall_cycles == static.stall_cycles > 0
                if n_total <= ORACLE_MAX_N:
                    assert_timing_matches_oracle(trace, deep, static, rep)
                assert static.events == rep.events, n_total


class TestCriterion4:
    def test_layout_conflict_free_exhaustive(self):
        with criterion(4, "shifted layout conflict-free up to N=16384"):
            for n_total in (16, 64, 256, 1024, 4096, 16384):
                report = verify_conflict_free(n_total)
                assert len(report.violations) == 0, n_total
                # full pair enumeration: every i, every power-of-two distance
                k = n_total.bit_length() - 1
                expected_pairs = sum(
                    n_total - (1 << t) for t in range(k)
                )
                assert report.pairs_checked == expected_pairs


class TestCriterion5:
    def test_exhaustive_small_primes(self):
        with criterion(5, "Barrett variants vs oracle, exhaustive q < 2^12"):
            # elements per chunk: 2^15 words (256 KiB) per array, so the
            # arrays a chunk holds at once fit a 2 MiB L2 cache
            budget = 1 << 15
            for q in sieve_primes(1 << 12):
                if q < 3:
                    continue
                mod = barrett_precompute(q)
                assert mod.m.bit_length() == mod.k + 1  # m is always k+1 bits
                rows_per_chunk = max(1, budget // q)
                qa = np.uint64(q)
                base = np.arange(q, dtype=np.uint64)
                for r0 in range(0, q, rows_per_chunk):
                    r1 = min(q, r0 + rows_per_chunk)
                    a = np.repeat(np.arange(r0, r1, dtype=np.uint64), q)
                    b = np.tile(base, r1 - r0)
                    want = (a * b) % qa
                    soft = plain_barrett(a, b, mod)
                    hw = barrett_mul_hw_batch(a, b, mod)
                    if not ((soft == want).all() and (hw == want).all()):
                        np.testing.assert_array_equal(soft, want)
                        np.testing.assert_array_equal(hw, want)

    def test_random_32bit_primes(self):
        with criterion(5, "10^6 random cases per 32-bit prime, 10 primes"):
            gen = np.random.default_rng(107)
            for idx in range(10):
                q = find_ntt_prime(32, 4096, idx)
                mod = barrett_precompute(q)
                assert mod.m.bit_length() == mod.k + 1
                a = gen.integers(0, q, size=10**6, dtype=np.uint64)
                b = gen.integers(0, q, size=10**6, dtype=np.uint64)
                want = (a * b) % np.uint64(q)
                np.testing.assert_array_equal(barrett_mul_hw_batch(a, b, mod), want)
                np.testing.assert_array_equal(plain_barrett(a, b, mod), want)

    def test_instrumented_t4_relation(self):
        with criterion(5, "hardware t4 in {soft t4, soft t4 + q}, t4 < 3q"):
            for q in sieve_primes(1 << 8):
                if q < 3:
                    continue
                mod = barrett_precompute(q)
                for a in range(q):
                    for b in range(q):
                        s = barrett_mul_soft_trace(a, b, mod)
                        h = barrett_mul_hw_trace(a, b, mod)
                        assert h.t4 in (s.t4, s.t4 + q)
                        assert h.t4 < 3 * q
                        assert h.z == s.z
            import random

            rng = random.Random(108)
            for idx in range(10):
                mod = barrett_precompute(find_ntt_prime(32, 4096, idx))
                for _ in range(10**4):
                    a, b = rng.randrange(mod.q), rng.randrange(mod.q)
                    s = barrett_mul_soft_trace(a, b, mod)
                    h = barrett_mul_hw_trace(a, b, mod)
                    assert h.t4 in (s.t4, s.t4 + mod.q)
                    assert h.t4 < 3 * mod.q

    def test_half_mod_exhaustive(self):
        with criterion(5, "half_mod doubling identity, exhaustive q < 2^12"):
            for q in sieve_primes(1 << 12):
                if q == 2:
                    continue
                for x in range(q):
                    assert (2 * half_mod(x, q)) % q == x


class TestCriterion6:
    SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)

    def test_polymul_equals_schoolbook(self):
        with criterion(6, "polymul == schoolbook, 1000 pairs per N and width"):
            gen = np.random.default_rng(109)
            for bits in (14, 32):
                for n in self.SIZES:
                    mod = ntt_modulus(bits, n)
                    tw = cached_twiddles(mod, n)
                    a = gen.integers(0, mod.q, size=(1000, n), dtype=np.uint64)
                    b = gen.integers(0, mod.q, size=(1000, n), dtype=np.uint64)
                    fast = polymul_ntt_array(a, b, tw)
                    block = max(1, 131072 // n)  # keep temporaries in cache
                    slow = np.concatenate([
                        schoolbook_negacyclic_array(a[i:i + block], b[i:i + block], mod)
                        for i in range(0, 1000, block)
                    ])
                    np.testing.assert_array_equal(fast, slow)
                    # spot-check the vectorized schoolbook against the
                    # big-integer oracle on one pair per configuration
                    row = int(gen.integers(0, 1000))
                    assert slow[row].tolist() == negacyclic_schoolbook_oracle(
                        a[row].tolist(), b[row].tolist(), mod.q
                    )

    def test_roundtrip_identity(self):
        with criterion(6, "intt(ntt(x)) == x for 10^4 random polynomials"):
            gen = np.random.default_rng(110)
            per_size = 10**4 // len(self.SIZES)
            for n in self.SIZES:
                mod = ntt_modulus(14 if n <= 512 else 32, n)
                tw = cached_twiddles(mod, n)
                batch = gen.integers(0, mod.q, size=(per_size, n), dtype=np.uint64)
                out = intt_gs_array(ntt_ct_array(batch, tw), tw)
                np.testing.assert_array_equal(out, batch)


class TestCriterion7:
    @pytest.mark.parametrize("n_q", [2, 6])
    def test_rns_polymul_vs_bigint(self, n_q):
        with criterion(7, f"RNS polymul (n_q={n_q}) matches mod-Q schoolbook"):
            gen = np.random.default_rng(111 + n_q)
            for n in (16, 64):
                basis = gen_basis(32, n_q, n)
                big_q = basis.big_q
                assert math.ceil(math.log2(big_q)) >= (60 if n_q == 2 else 180)
                a = [int(x) % big_q for x in gen.integers(0, 2**63, size=n)]
                b = [int(x) % big_q for x in gen.integers(0, 2**63, size=n)]
                oracle = negacyclic_schoolbook_oracle(a, b, big_q)
                ra, rb = decompose(a, basis), decompose(b, basis)
                got = reconstruct(rns_polymul(ra, rb, basis), basis)
                assert got == oracle
                # simulated polymul per channel against the same oracle
                cfg = make_sim_config(
                    n, valid_npes(n)[-1], moduli=basis.moduli, profile="q32"
                )
                report = run(cfg, ra, rb, op="polymul")
                oracle_residues = decompose(oracle, basis)
                for chan, poly in zip(report.results, oracle_residues.residue_polys):
                    assert chan == poly.to_ints()


class TestCriterion8:
    def test_total_equals_prediction_when_stall_free(self):
        with criterion(8, "simulator total == closed-form prediction"):
            for n_total in (1024, 4096):
                mod = ntt_modulus(14 if n_total == 1024 else 32, n_total)
                a = random_poly(mod, n_total, 112)
                b = random_poly(mod, n_total, 113)
                for profile in ("q32", "q14", "ideal"):
                    pipe = PROFILES[profile]
                    for npe in valid_npes(n_total):
                        cfg = make_sim_config(
                            n_total, npe, moduli=[mod], profile=profile
                        )
                        for op in ("ntt", "intt", "mult"):
                            if op != "mult" and not check_raw_bound(
                                n_total, npe, pipe, op_kind=op
                            ).satisfied:
                                continue
                            report = run(cfg, a, b if op == "mult" else None, op=op)
                            assert report.stall_cycles == 0
                            assert report.total_cycles == predicted_cycles(
                                n_total, npe, pipe, 0, op
                            ), (n_total, npe, profile, op)
                            assert report.matches_predicted

    def test_halving_law(self):
        with criterion(8, "doubling Npe halves the issue term exactly"):
            n_total = 4096
            mod = ntt_modulus(32, n_total)
            a = random_poly(mod, n_total, 114)
            pipe = PROFILES["q32"]
            overhead = {op: pipe.total_delay(op) for op in ("ntt", "intt")}
            npes = valid_npes(n_total)
            totals = {
                (op, npe): run(
                    make_sim_config(n_total, npe, moduli=[mod], profile="q32"),
                    a, op=op,
                ).total_cycles
                for op in ("ntt", "intt")
                for npe in npes
            }
            for op in ("ntt", "intt"):
                for lo, hi in zip(npes, npes[1:]):
                    slow = totals[(op, lo)] - overhead[op]
                    fast = totals[(op, hi)] - overhead[op]
                    assert slow == 2 * fast, (op, lo, hi)


def test_geometry_helper_consistency():
    # the sweep helper must match the scheduler's own validity rule
    for n_total in (16, 64, 256, 1024, 4096):
        for npe in valid_npes(n_total):
            validate_geometry(n_total, npe)
        with pytest.raises(ValueError):
            validate_geometry(n_total, valid_npes(n_total)[-1] * 2)
