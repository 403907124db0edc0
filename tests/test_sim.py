"""Tests for the cycle-accurate replay engine.

Cycle totals are pinned to frozen golden per-PE counts; numerics are
pinned to the reference transforms; the static and dynamic hazard
reports must agree event for event with the independent cycle-stepped
oracle in timing_oracle.py.
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nttsim import cli, modarith, ntt, sim
from nttsim.modarith import ntt_modulus
from nttsim.ntt import (
    Polynomial,
    cached_twiddles,
    intt_gs_array,
    ntt_ct_array,
    pointwise_mul_array,
    polymul_ntt_array,
    schoolbook_negacyclic_array,
)
from nttsim.rns import RnsPolynomial, decompose, gen_basis, reconstruct, rns_polymul
from nttsim.schedule import (
    PROFILES,
    PipelineConfig,
    ScheduleTrace,
    build_schedule,
    check_raw_bound,
)
from nttsim.sim import (
    SimConfig,
    SimHazardError,
    SimMismatchError,
    detect_hazards,
    make_sim_config,
    predicted_cycles,
    run,
)

from conftest import negacyclic_schoolbook_oracle
from timing_oracle import oracle_timing


def random_poly(mod, n, seed):
    gen = np.random.default_rng(seed)
    return Polynomial(gen.integers(0, mod.q, size=n, dtype=np.uint64), mod)


class TestPredictedCycles:
    def test_golden_row_npe4(self):
        q32 = PROFILES["q32"]
        assert predicted_cycles(4096, 4, q32, 0, "ntt") == 6163
        assert predicted_cycles(4096, 4, q32, 0, "intt") == 6164
        assert predicted_cycles(4096, 4, q32, 0, "mult") == 1042

    def test_14bit_1024(self):
        assert predicted_cycles(1024, 16, PROFILES["q14"], 0, "ntt") == 335

    def test_ideal_pipeline(self):
        assert predicted_cycles(4096, 8, PROFILES["ideal"], 0, "ntt") == 3072

    def test_refuses_when_bound_violated(self):
        with pytest.raises(ValueError):
            predicted_cycles(16, 2, PROFILES["q32"], 0, "ntt")

    def test_mult_never_refused(self):
        assert predicted_cycles(16, 2, PROFILES["q32"], 0, "mult") == 8 + 18

    def test_setup_adds_linearly(self):
        base = predicted_cycles(4096, 32, PROFILES["q32"], 0, "ntt")
        assert predicted_cycles(4096, 32, PROFILES["q32"], 7, "ntt") == base + 7


class TestSingleOpRuns:
    def test_table_row_npe1(self):
        cfg = make_sim_config(4096, 1, q_bits=32, profile="q32")
        mod = cfg.moduli[0]
        a = random_poly(mod, 4096, 1)
        b = random_poly(mod, 4096, 2)
        r_ntt = run(cfg, a, op="ntt")
        r_mult = run(cfg, a, b, op="mult")
        r_intt = run(cfg, a, op="intt")
        assert r_ntt.total_cycles == 24595
        assert r_mult.total_cycles == 4114
        assert r_intt.total_cycles == 24596
        for r in (r_ntt, r_mult, r_intt):
            assert r.stall_cycles == 0
            assert r.bank_conflict_count == 0

    def test_table_row_npe32(self):
        cfg = make_sim_config(4096, 32, q_bits=32, profile="q32")
        mod = cfg.moduli[0]
        a = random_poly(mod, 4096, 3)
        b = random_poly(mod, 4096, 4)
        assert run(cfg, a, op="ntt").total_cycles == 787
        assert run(cfg, a, b, op="mult").total_cycles == 146
        assert run(cfg, a, op="intt").total_cycles == 788

    def test_numerical_equivalence_ntt(self):
        cfg = make_sim_config(256, 8, q_bits=14, profile="q14")
        mod = cfg.moduli[0]
        tw = cached_twiddles(mod, 256)
        a = random_poly(mod, 256, 5)
        report = run(cfg, a, op="ntt")
        expect = ntt_ct_array(a.coeffs, tw)
        assert report.results[0] == [int(x) for x in expect]

    def test_numerical_equivalence_intt(self):
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        mod = cfg.moduli[0]
        tw = cached_twiddles(mod, 64)
        a = random_poly(mod, 64, 6)
        report = run(cfg, a, op="intt")
        assert report.results[0] == [int(x) for x in intt_gs_array(a.coeffs, tw)]

    def test_numerical_equivalence_mult(self):
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        mod = cfg.moduli[0]
        a = random_poly(mod, 64, 7)
        b = random_poly(mod, 64, 8)
        report = run(cfg, a, b, op="mult")
        expect = pointwise_mul_array(a.coeffs, b.coeffs, mod)
        assert report.results[0] == [int(x) for x in expect]

    def test_total_matches_predicted_when_clean(self):
        for n_total, npe in [(64, 4), (256, 4), (1024, 16)]:
            cfg = make_sim_config(n_total, npe, q_bits=14, profile="ideal")
            a = random_poly(cfg.moduli[0], n_total, 9)
            report = run(cfg, a, op="ntt")
            assert report.stall_cycles == 0
            assert report.total_cycles == predicted_cycles(
                n_total, npe, PROFILES["ideal"], 0, "ntt"
            )
            assert report.matches_predicted

    def test_halving_law(self):
        # doubling the PE count halves the issue term exactly
        cfg16 = make_sim_config(1024, 16, q_bits=14, profile="q14")
        cfg8 = make_sim_config(1024, 8, q_bits=14, profile="q14")
        a = random_poly(cfg16.moduli[0], 1024, 10)
        t16 = run(cfg16, a, op="ntt").total_cycles
        t8 = run(cfg8, a, op="ntt").total_cycles
        overhead = PROFILES["q14"].total_delay("ntt")
        assert (t8 - overhead) == 2 * (t16 - overhead)


class TestStalls:
    def test_violated_bound_stalls_but_stays_correct(self):
        cfg = make_sim_config(16, 2, q_bits=14, profile="q32")
        mod = cfg.moduli[0]
        tw = cached_twiddles(mod, 16)
        a = random_poly(mod, 16, 11)
        report = run(cfg, a, op="ntt")
        assert not check_raw_bound(16, 2, PROFILES["q32"]).satisfied
        assert report.stall_cycles > 0
        assert report.total_cycles > predicted_cycles(16, 2, PROFILES["ideal"], 0, "ntt")
        assert report.results[0] == [int(x) for x in ntt_ct_array(a.coeffs, tw)]

    def test_boundary_depth_is_exact(self):
        # bound for N=256 (n=16), Npe=8 is 8: depth 7 is clean, depth 8 stalls
        clean = PipelineConfig(0, 0, 7, 7)
        deep = PipelineConfig(0, 0, 8, 8)
        a = random_poly(ntt_modulus(14, 256), 256, 12)
        cfg_clean = make_sim_config(256, 8, q_bits=14, profile=clean)
        cfg_deep = make_sim_config(256, 8, q_bits=14, profile=deep)
        assert run(cfg_clean, a, op="ntt").stall_cycles == 0
        assert run(cfg_deep, a, op="ntt").stall_cycles > 0
        assert check_raw_bound(256, 8, clean).satisfied
        assert not check_raw_bound(256, 8, deep).satisfied

    def test_intt_boundary_symmetry(self):
        clean = PipelineConfig(0, 0, 6, 6)  # intt depth 7 < 8
        deep = PipelineConfig(0, 0, 7, 7)  # intt depth 8 = bound
        a = random_poly(ntt_modulus(14, 256), 256, 13)
        assert run(make_sim_config(256, 8, q_bits=14, profile=clean), a, op="intt").stall_cycles == 0
        assert run(make_sim_config(256, 8, q_bits=14, profile=deep), a, op="intt").stall_cycles > 0

    def test_fail_fast_raises(self):
        cfg = make_sim_config(16, 2, q_bits=14, profile="q32", hazard_policy="fail-fast")
        a = random_poly(cfg.moduli[0], 16, 14)
        with pytest.raises(SimHazardError) as err:
            run(cfg, a, op="ntt")
        assert err.value.event.cycle >= 0


class TestFailFastFirstEvent:
    """run() under fail-fast raises the first event of the timing walk."""

    GEOMETRIES = [(16, 1), (16, 2), (64, 1), (64, 2), (64, 4)] + [
        (256, npe) for npe in (1, 2, 4, 8)
    ]
    # deeper than the RAW bound of every geometry above (at most 64)
    DEEP = PipelineConfig(delay_read=2, delay_write=2, delay_pe_ntt=64, delay_pe_mult=14)

    @pytest.mark.parametrize("profile", ["q32", "deep"])
    @pytest.mark.parametrize("layout", ["shifted", "sequential"])
    @pytest.mark.parametrize("op", ["ntt", "intt"])
    @pytest.mark.parametrize("n_total,npe", GEOMETRIES)
    def test_raised_event_is_first_event(self, n_total, npe, op, layout, profile):
        pipe = self.DEEP if profile == "deep" else PROFILES[profile]
        cfg = make_sim_config(
            n_total, npe, q_bits=14, profile=pipe,
            hazard_policy="fail-fast", layout_kind=layout,
        )
        a = random_poly(cfg.moduli[0], n_total, 26)
        trace = build_schedule(n_total, npe, op, layout_kind=layout)
        static = detect_hazards(trace, pipe, policy="fail-fast")
        stalled = run(dataclasses.replace(cfg, hazard_policy="stall"), a, op=op)
        first = oracle_timing(trace, pipe).events[:1]
        assert static.events == stalled.reports[0].events[:1] == first
        if not first:
            # the q32 profile is within the RAW bound of some shifted geometries
            assert run(cfg, a, op=op).stall_cycles == 0
            return
        with pytest.raises(SimHazardError) as err:
            run(cfg, a, op=op)
        assert err.value.event == first[0]


def draw_geometry(draw, sizes):
    """N from sizes, a valid Npe and a pipeline whose total delay lies
    anywhere in 0 ... 3 * RAW bound + 3, deep enough to stall in every
    stage that has a producer."""
    n_total = draw(st.sampled_from(sizes))
    n = 1 << ((n_total.bit_length() - 1) // 2)
    npe = draw(st.sampled_from([1 << e for e in range((n // 2).bit_length())]))
    bound = (n // 2) * (n // (2 * npe))
    total = draw(st.integers(0, 3 * bound + 3))
    read = draw(st.integers(0, total))
    write = draw(st.integers(0, total - read))
    return n_total, npe, PipelineConfig(read, write, total - read - write, total - read - write)


@st.composite
def walk_cases(draw):
    """A geometry and pipeline, an op, a layout, a policy and setup cycles."""
    return (
        *draw_geometry(draw, [16, 64, 256, 1024]),
        draw(st.sampled_from(["ntt", "intt", "mult"])),
        draw(st.sampled_from(["shifted", "sequential"])),
        draw(st.sampled_from(["stall", "fail-fast"])),
        draw(st.integers(0, 5)),
    )


def hand_trace(op, n, npe, cells, stages):
    """An op trace over n banks whose group g reads cells[g] (its r0 cells,
    then its r1 cells, which a multiply reads from memory b) in stage
    stages[g]; a butterfly writes back to both cells, a multiply to r0."""
    rows = np.array(cells, dtype=np.int32)
    size = len(cells) * npe
    return ScheduleTrace(
        op, n * n, n, npe, "shifted",
        stage=np.repeat(np.array(stages, dtype=np.int32), npe),
        rnd=np.zeros(size, dtype=np.int32),
        r0=rows[:, :npe].ravel(), r1=rows[:, npe:].ravel(),
        tw=np.full(size, -1 if op == "mult" else 1, dtype=np.int32),
    )


@st.composite
def hand_trace_cases(draw):
    """Arguments of hand_trace with up to 24 groups of an ntt, intt or mult,
    each reading 2 * Npe random cells, possibly one cell twice, in a
    nondecreasing stage, so a producer may sit in its reader's stage,
    mult's r1 reads never have one and a bank may be over-subscribed; plus
    a pipeline, a policy and setup cycles."""
    op = draw(st.sampled_from(["ntt", "intt", "mult"]))
    n = draw(st.sampled_from([4, 8]))
    npe = draw(st.sampled_from([1, 2, 4]))
    groups = draw(st.integers(1, 24))
    cells = [
        draw(st.lists(st.integers(0, n * n - 1), min_size=2 * npe, max_size=2 * npe))
        for _ in range(groups)
    ]
    steps = draw(st.lists(st.booleans(), min_size=groups - 1, max_size=groups - 1))
    stages = np.cumsum([0, *steps]).tolist()
    total = draw(st.integers(0, 40))
    read = draw(st.integers(0, total))
    pipe = PipelineConfig(read, 0, total - read, total - read)
    return (
        op, n, npe, cells, stages, pipe,
        draw(st.sampled_from(["stall", "fail-fast"])),
        draw(st.integers(0, 5)),
    )


class TestWalkProperties:
    """detect_hazards against the cycle-stepped oracle and the closed form
    on drawn configurations."""

    @given(walk_cases())
    @settings(max_examples=150, deadline=None)
    # N=64, Npe=2: RAW bound 8, so total delay 7 is stall-free and 8 stalls
    @example((64, 2, PipelineConfig(1, 1, 5, 5), "ntt", "shifted", "stall", 3))
    @example((64, 2, PipelineConfig(1, 1, 6, 6), "ntt", "shifted", "fail-fast", 3))
    def test_walk_matches_oracle_and_closed_form(self, case):
        n_total, npe, pipe, op, layout, policy, setup = case
        trace = build_schedule(n_total, npe, op, layout_kind=layout)
        report = detect_hazards(trace, pipe, setup, policy)
        stalled = detect_hazards(trace, pipe, setup) if policy == "fail-fast" else report
        # the oracle starts at cycle 0; setup cycles delay every event
        want = oracle_timing(trace, pipe)
        events = [(kind, cycle + setup, *rest) for kind, cycle, *rest in want.events]
        assert stalled.events == events
        assert stalled.stall_cycles == want.stall_cycles
        assert stalled.per_stage == want.per_stage
        assert stalled.total_cycles == want.total_cycles + setup
        if policy == "fail-fast":
            assert report.events == events[:1]

        # the bound is the shifted layout's; the sequential layout's port
        # conflicts stretch issue slots and so move its stall threshold
        if op != "mult" and layout == "shifted":
            bound = check_raw_bound(n_total, npe, pipe, op_kind=op)
            assert (stalled.stall_cycles == 0) == bound.satisfied
        try:
            predicted = predicted_cycles(n_total, npe, pipe, setup, op)
        except ValueError:
            predicted = None
        assert (stalled.total_cycles == predicted) == (not stalled.events)

    @given(hand_trace_cases())
    @settings(max_examples=150, deadline=None)
    # a producer chain inside one stage: each group after the first is a wave
    @example(("ntt", 4, 1, [[0, 1], [1, 2], [2, 3], [3, 0]], [0, 0, 0, 0],
              PipelineConfig(0, 0, 5, 5), "stall", 0))
    # a chain inside stage 1 behind a bank conflict in stage 0
    @example(("ntt", 4, 2, [[0, 4, 1, 5], [0, 2, 3, 6], [2, 7, 8, 9], [9, 10, 11, 0]],
              [0, 0, 1, 1], PipelineConfig(2, 0, 3, 3), "stall", 2))
    # a cell read twice in one group, then read by the next; a multiply
    # reading cell 3 of memory a, which it writes, and of memory b, which
    # nothing writes
    @example(("ntt", 4, 1, [[5, 5], [5, 6]], [0, 1], PipelineConfig(0, 0, 3, 3), "stall", 0))
    @example(("mult", 4, 1, [[3, 3], [3, 3], [1, 3]], [0, 0, 0],
              PipelineConfig(0, 0, 4, 4), "stall", 1))
    # one-group stages, shorter than the pipeline: group 3 waits on group 0,
    # three stages back
    @example(("ntt", 4, 1, [[0, 4], [8, 12], [1, 5], [0, 9]], [0, 1, 2, 3],
              PipelineConfig(0, 0, 5, 5), "stall", 0))
    # groups 1 and 2 of stage 1 both read cell 12, and group 2 waits on it
    # and on cell 0 from stage 0
    @example(("ntt", 4, 1, [[0, 4], [8, 12], [12, 0]], [0, 1, 1],
              PipelineConfig(0, 0, 4, 4), "stall", 0))
    def test_hand_built_traces_match_oracle(self, case):
        op, n, npe, cells, stages, pipe, policy, setup = case
        trace = hand_trace(op, n, npe, cells, stages)
        report = detect_hazards(trace, pipe, setup, policy)
        want = oracle_timing(trace, pipe)
        events = [(kind, cycle + setup, *rest) for kind, cycle, *rest in want.events]
        if policy == "fail-fast":
            assert report.events == events[:1]
            return
        assert report.events == events
        assert report.stall_cycles == want.stall_cycles
        assert report.per_stage == want.per_stage
        assert report.total_cycles == want.total_cycles + setup


def producer_distances(trace):
    """Each stage's minimum producer distance d_s, read straight from the
    trace columns: the least g - p over the stage's groups g and the cells
    g reads, p being the last earlier group that wrote the cell. Stages
    whose reads have no producer are left out."""
    groups = trace.issue_cycles
    cells = np.hstack([trace.r0.reshape(groups, -1), trace.r1.reshape(groups, -1)])
    stages = trace.stage[::trace.npe].tolist()
    last_write = np.full(trace.N, -1)
    distances = {}
    for group, stage in enumerate(stages):
        producer = int(last_write[cells[group]].max())
        if producer >= 0:
            distances[stage] = min(distances.get(stage, groups), group - producer)
        last_write[cells[group]] = group
    return distances


class TestClosedFormStalls:
    """On the shifted layout one ntt or intt stalls for exactly
    sum over stages s of max(0, D + 1 - d_s) cycles, D being the total
    pipeline delay and d_s the stage's minimum producer distance; the least
    d_s is the RAW bound."""

    GEOMETRIES = (
        [(16, 1), (16, 2), (64, 1), (64, 2), (64, 4)]
        + [(256, npe) for npe in (1, 2, 4, 8)]
        + [(1024, npe) for npe in (1, 2, 4, 8, 16)]
    )

    @pytest.mark.parametrize("op", ["ntt", "intt"])
    @pytest.mark.parametrize("n_total,npe", GEOMETRIES)
    def test_stall_cycles_match_closed_form(self, n_total, npe, op):
        trace = build_schedule(n_total, npe, op)
        distances = producer_distances(trace)
        bound = check_raw_bound(n_total, npe, PROFILES["ideal"], op_kind=op).bound
        assert min(distances.values()) == bound
        # the inverse butterfly is a cycle deeper, so its delay starts at 1;
        # every delay up to N=256, a stride plus the bound's edges beyond
        delays = range(op == "intt", 3 * bound + 4)
        if n_total > 256:
            delays = {*delays[::max(1, bound // 8)], bound - 1, bound, bound + 1, 3 * bound + 3}
        for delay in sorted(delays):
            quarter = delay // 4
            pipe = PipelineConfig(quarter, quarter, delay - 2 * quarter - (op == "intt"), 0)
            closed = sum(max(0, delay + 1 - distance) for distance in distances.values())
            assert detect_hazards(trace, pipe).stall_cycles == closed, delay


class TestWalkDigest:
    """Every detect_hazards report over a fixed grid, pinned byte for byte:
    N 16-1024 at every Npe, both layouts, ntt, intt and mult, six forward
    delays around the RAW bound (the inverse butterfly adds one), setup 2,
    under stall and fail-fast. 1008 walks."""

    DIGEST = "f95af1a14aaed2711c815bed07c9c87703a5d2b8f5bde3cad6414b4ecc772dbf"

    def test_reports_pinned(self):
        digest = hashlib.sha256()
        for n_total in (16, 64, 256, 1024):
            n = 1 << ((n_total.bit_length() - 1) // 2)
            for npe in [1 << e for e in range((n // 2).bit_length())]:
                bound = (n // 2) * (n // (2 * npe))
                for delay in (0, bound - 1, bound, bound + 1, 2 * bound, 3 * bound + 3):
                    quarter = delay // 4
                    pipe = PipelineConfig(quarter, quarter, delay - 2 * quarter, delay - 2 * quarter)
                    for layout in ("shifted", "sequential"):
                        for op in ("ntt", "intt", "mult"):
                            trace = build_schedule(n_total, npe, op, layout)
                            for policy in ("stall", "fail-fast"):
                                report = detect_hazards(trace, pipe, 2, policy)
                                digest.update(repr(dataclasses.astuple(report)).encode())
        assert digest.hexdigest() == self.DIGEST


@st.composite
def run_cases(draw):
    """A geometry and pipeline up to N=256, an op run() accepts, a layout,
    a modulus width, setup cycles and an operand seed."""
    return (
        *draw_geometry(draw, [16, 64, 256]),
        draw(st.sampled_from(["ntt", "intt", "polymul"])),
        draw(st.sampled_from(["shifted", "sequential"])),
        draw(st.sampled_from([14, 32, 62])),
        draw(st.integers(0, 5)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestRunProperties:
    """run() under the stall policy on drawn configurations: exact results,
    stalls or not, and per op the report detect_hazards gives its trace."""

    @given(run_cases())
    @settings(max_examples=100, deadline=None)
    def test_results_and_reports(self, case):
        n_total, npe, pipe, op, layout, bits, setup, seed = case
        cfg = make_sim_config(
            n_total, npe, q_bits=bits, profile=pipe, setup_cycles=setup, layout_kind=layout
        )
        mod = cfg.moduli[0]
        a, b = random_poly(mod, n_total, seed), random_poly(mod, n_total, seed + 1)
        report = run(cfg, a, b if op == "polymul" else None, op=op)

        tw = cached_twiddles(mod, n_total)
        if op == "polymul":
            want = negacyclic_schoolbook_oracle(a.to_ints(), b.to_ints(), mod.q)
        else:
            transform = ntt_ct_array if op == "ntt" else intt_gs_array
            want = transform(a.coeffs, tw).tolist()
        assert report.results == [want]

        kinds = sim.OP_STEPS[op]
        assert [rep.op_kind for rep in report.reports] == list(kinds)
        for kind, rep in zip(kinds, report.reports):
            static = detect_hazards(build_schedule(n_total, npe, kind, layout), pipe, setup)
            got = (rep.events, rep.stall_cycles, rep.per_stage, rep.total_cycles)
            assert got == (static.events, static.stall_cycles, static.per_stage, static.total_cycles)
            assert 0 < rep.utilization <= 1
        assert 0 < report.utilization <= 1


def random_operand(cfg, seed, zero=()):
    """One random residue polynomial per channel of cfg, all zeros on the
    channels in zero; an RnsPolynomial when cfg has more than one."""
    gen = np.random.default_rng(seed)
    polys = tuple(
        Polynomial(np.zeros(cfg.N, np.uint64) if ch in zero
                   else gen.integers(0, mod.q, size=cfg.N, dtype=np.uint64), mod)
        for ch, mod in enumerate(cfg.moduli)
    )
    return polys[0] if len(polys) == 1 else RnsPolynomial(polys)


class TestRunDigest:
    """Every run() result and JSON report over a fixed grid, pinned byte
    for byte: N 16-1024, both layouts, 1-3 channels at 14, 32, 40 and 62
    bits, ntt, intt, mult and polymul; then a polymul config that stalls
    and, under fail-fast, the event each op raises. 376 runs."""

    DIGEST = "80bb15d3d852672bda5b9addfd42ad20489c27da889939bffac6cca6d8dc5ade"

    def test_runs_pinned(self):
        configs = []
        for n_total in (16, 64, 256, 1024):
            n = 1 << ((n_total.bit_length() - 1) // 2)
            for layout in ("shifted", "sequential"):
                for bits in (14, 32, 40, 62):
                    # 12289 is the only 14-bit prime that is 1 mod 2048
                    for n_q in (1,) if (bits, n_total) == (14, 1024) else (1, 2, 3):
                        configs.append(make_sim_config(
                            n_total, max(1, n // 4), q_bits=bits, n_q=n_q, profile="q14",
                            setup_cycles=2, layout_kind=layout))
        # N=256, Npe=4 stalls under q32 (delay 19, bound 16)
        configs.append(make_sim_config(256, 4, q_bits=32, n_q=2, profile="q32", setup_cycles=3))
        configs.append(make_sim_config(256, 4, q_bits=32, n_q=2, profile="q32",
                                       hazard_policy="fail-fast"))
        digest = hashlib.sha256()
        for seed, cfg in enumerate(configs):
            a, b = random_operand(cfg, 2 * seed), random_operand(cfg, 2 * seed + 1)
            for op in ("ntt", "intt", "mult", "polymul"):
                try:
                    report = run(cfg, a, b if op in ("mult", "polymul") else None, op=op)
                except SimHazardError as err:
                    digest.update(repr(err.event).encode())
                    continue
                digest.update(repr(report.results).encode())
                digest.update(report.to_json().encode())
        assert digest.hexdigest() == self.DIGEST


class TestMismatchCheck:
    """A trace whose cells or twiddles are wrong must fail the reference
    check, so the replay provably follows the trace's own records."""

    CORRUPTIONS = [("ntt", "tw"), ("ntt", "r1"), ("intt", "tw"), ("intt", "r1"), ("mult", "r1")]

    @staticmethod
    def corrupt_schedule(monkeypatch, op, field):
        """Corrupt every op trace run() gets: from build_schedule, and from
        inverse_trace, which derives polymul's intt trace from its ntt trace."""

        def corrupting(real):
            def corrupted(*args, **kwargs):
                trace = real(*args, **kwargs)
                if trace.op_kind != op:
                    return trace
                # the first record's twiddle flipped, or its r1 set to the second record's
                column = getattr(trace, field).copy()
                if field == "tw":
                    column[0] = 0 if column[0] else 1
                else:
                    column[0] = column[1]
                return dataclasses.replace(trace, **{field: column})
            return corrupted

        for name in ("build_schedule", "inverse_trace"):
            monkeypatch.setattr(sim, name, corrupting(getattr(sim, name)))

    @pytest.mark.parametrize("op,field", CORRUPTIONS)
    def test_corrupted_trace_raises(self, monkeypatch, op, field):
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        a = random_poly(cfg.moduli[0], 64, 27)
        b = random_poly(cfg.moduli[0], 64, 28) if op == "mult" else None
        run(cfg, a, b, op=op)
        self.corrupt_schedule(monkeypatch, op, field)
        with pytest.raises(SimMismatchError):
            run(cfg, a, b, op=op)

    @pytest.mark.parametrize("op", ["ntt", "intt"])
    def test_perturbed_replay_multiply_raises(self, monkeypatch, op):
        # the reference transforms multiply twiddles by their own kernel,
        # so an error in the replay's Barrett multiply cannot reach both
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        a = random_poly(cfg.moduli[0], 64, 29)
        run(cfg, a, op=op)
        real = modarith.barrett_mul_hw_into

        def perturbed(x, w, mod, out, tmp):
            real(x, w, mod, out, tmp)
            out.flat[0] = (int(out.flat[0]) + 1) % mod.q

        for module in (sim, ntt):
            monkeypatch.setattr(module, "barrett_mul_hw_into", perturbed, raising=False)
        with pytest.raises(SimMismatchError):
            run(cfg, a, op=op)

    # (op, channels perturbed, channels of a held at zero, channel named):
    # a zero operand's transform multiplies only zeros, so with a all zeros
    # polymul's only perturbed products are b's forward transform; with two
    # failing channels, a's come first, in channel order, then b's
    CHANNEL_CASES = [
        ("ntt", {0}, (), 0), ("ntt", {1}, (), 1), ("intt", {2}, (), 2),
        ("polymul", {1}, (), 1),
        ("polymul", {0}, (0, 1, 2), 0), ("polymul", {2}, (0, 1, 2), 2),
        ("ntt", {1, 2}, (), 1), ("polymul", {0, 2}, (0, 1, 2), 0),
        ("polymul", {0, 2}, (0, 1), 2),
    ]

    @pytest.mark.parametrize("op,perturb,zero,named", CHANNEL_CASES)
    def test_mismatch_names_the_channel(self, monkeypatch, op, perturb, zero, named):
        cfg = make_sim_config(64, 4, q_bits=32, n_q=3, profile="q32")
        qs = [mod.q for mod in cfg.moduli]
        a = random_operand(cfg, 31, zero)
        b = random_operand(cfg, 32) if op == "polymul" else None
        run(cfg, a, b, op=op)
        real = modarith.barrett_mul_hw_into

        # add 1 mod q to element 0 of every replay Barrett product on a
        # perturbed channel whose operand is not all zeros
        def perturbed(x, w, mod, out, tmp):
            real(x, w, mod, out, tmp)
            if mod.q in {qs[ch] for ch in perturb} and x.any():
                out.flat[0] = (int(out.flat[0]) + 1) % mod.q

        monkeypatch.setattr(sim, "barrett_mul_hw_into", perturbed)
        kind = "intt" if op == "intt" else "ntt"
        message = f"{kind} result mismatch on channel {named} (q={qs[named]})"
        with pytest.raises(SimMismatchError, match=f"^{re.escape(message)}$"):
            run(cfg, a, b, op=op)

    @pytest.mark.parametrize("perturb", [0, 1, 2])
    def test_perturbed_reference_names_the_channel(self, monkeypatch, perturb):
        # polymul checks each channel's a and b in one reference call: a
        # wrong product in channel perturb's stack must be reported on that
        # channel, not on one its result was sent to
        cfg = make_sim_config(64, 4, q_bits=32, n_q=3, profile="q32")
        q = cfg.moduli[perturb].q
        a, b = random_operand(cfg, 33), random_operand(cfg, 34)
        run(cfg, a, b, op="polymul")
        real = ntt.shoup_mul_into

        def perturbed(v, w, w_pre, mod, out, tmp):
            real(v, w, w_pre, mod, out, tmp)
            if mod.q == q:
                out.flat[0] = (int(out.flat[0]) + 1) % mod.q

        monkeypatch.setattr(ntt, "shoup_mul_into", perturbed)
        message = f"ntt result mismatch on channel {perturb} (q={q})"
        with pytest.raises(SimMismatchError, match=f"^{re.escape(message)}$"):
            run(cfg, a, b, op="polymul")

    def test_cli_exits_3(self, monkeypatch, capsys):
        argv = ["sim", "--n", "64", "--npe", "4", "--q-bits", "14", "--op", "polymul"]
        assert cli.main(argv) == 0
        self.corrupt_schedule(monkeypatch, "intt", "tw")
        assert cli.main(argv) == 3
        assert "mismatch" in capsys.readouterr().err


class TestWideModuli:
    @pytest.mark.parametrize("bits", [40, 62])
    def test_run_above_32_bits(self, bits):
        cfg = make_sim_config(64, 4, q_bits=bits, profile="q32")
        mod = cfg.moduli[0]
        assert mod.k > 32
        a = random_poly(mod, 64, bits)
        b = random_poly(mod, 64, bits + 1)
        forward = run(cfg, a, op="ntt").results[0]
        back = run(cfg, Polynomial(np.array(forward, dtype=np.uint64), mod), op="intt")
        assert back.results[0] == a.to_ints()
        product = run(cfg, a, b, op="polymul").results[0]
        assert product == schoolbook_negacyclic_array(a.coeffs, b.coeffs, mod).tolist()


class TestHazardAnalyzers:
    def test_clean_config_empty_report(self):
        trace = build_schedule(4096, 32, "ntt")
        report = detect_hazards(trace, PROFILES["q32"])
        assert report.events == []
        assert report.stall_cycles == 0

    def test_fail_fast_checks_operands_before_ports(self):
        # group 1 reads cell 0 (bank 0), which group 0 writes, and cells 0
        # and 1 share bank 0: a RAW hazard and a port conflict in one group
        def column(*values):
            return np.array(values, dtype=np.int32)

        trace = ScheduleTrace(
            "ntt", 16, 4, 2, "shifted",
            stage=column(0, 0, 0, 0), rnd=column(0, 0, 0, 0),
            r0=column(0, 8, 0, 5), r1=column(4, 12, 1, 9), tw=column(1, 1, 1, 1),
        )
        pipe = PROFILES["q32"]
        stalled = detect_hazards(trace, pipe)
        assert [e.kind for e in stalled.events] == ["raw", "read_conflict", "write_conflict"]
        want = oracle_timing(trace, pipe)
        assert stalled.events == want.events
        assert stalled.total_cycles == want.total_cycles
        first = detect_hazards(trace, pipe, policy="fail-fast")
        assert first.events == stalled.events[:1]
        assert (first.raw_count, first.read_conflicts, first.write_conflicts) == (1, 0, 0)
        assert (first.consumed_cycles, first.per_stage) == (1, {0: 1})

    def test_sequential_layout_flags_conflicts(self):
        trace = build_schedule(16, 2, "ntt", layout_kind="sequential")
        report = detect_hazards(trace, PROFILES["q32"])
        assert report.read_conflicts > 0

    def test_static_and_dynamic_agree(self):
        for n_total, npe, prof, layout in [
            (16, 2, "q32", "shifted"),
            (16, 2, "q14", "shifted"),
            (64, 4, "q32", "shifted"),
            (16, 2, "q32", "sequential"),
            (64, 4, "q14", "sequential"),
            (256, 8, "ideal", "shifted"),
        ]:
            trace = build_schedule(n_total, npe, "ntt", layout_kind=layout)
            static = detect_hazards(trace, PROFILES[prof])
            cfg = make_sim_config(
                n_total, npe, q_bits=14, profile=prof, layout_kind=layout
            )
            a = random_poly(cfg.moduli[0], n_total, 15)
            dynamic = run(cfg, a, op="ntt")
            want = oracle_timing(trace, PROFILES[prof])
            for rep in (static, dynamic.reports[0]):
                assert rep.events == want.events
                assert rep.stall_cycles == want.stall_cycles
                assert rep.per_stage == want.per_stage
                assert rep.total_cycles == want.total_cycles

    def test_sequential_layout_result_still_correct(self):
        cfg = make_sim_config(16, 2, q_bits=14, profile="q14", layout_kind="sequential")
        mod = cfg.moduli[0]
        tw = cached_twiddles(mod, 16)
        a = random_poly(mod, 16, 16)
        report = run(cfg, a, op="ntt")
        assert report.bank_conflict_count > 0
        assert report.results[0] == [int(x) for x in ntt_ct_array(a.coeffs, tw)]
        # conflict serialization costs cycles over the stall-free form
        stall_free = 16 * 4 // (2 * 2) + PROFILES["q14"].total_delay("ntt")
        assert report.total_cycles > stall_free


class TestPolymul:
    def test_polymul_single_channel(self):
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        mod = cfg.moduli[0]
        tw = cached_twiddles(mod, 64)
        a = random_poly(mod, 64, 17)
        b = random_poly(mod, 64, 18)
        report = run(cfg, a, b, op="polymul")
        expect = polymul_ntt_array(a.coeffs, b.coeffs, tw)
        assert report.results[0] == [int(x) for x in expect]
        kinds = [r.op_kind for r in report.reports]
        assert kinds == ["ntt", "ntt", "mult", "intt"]
        assert report.total_cycles == sum(r.total_cycles for r in report.reports)

    def test_polymul_cycle_totals_match_golden(self):
        cfg = make_sim_config(4096, 32, q_bits=32, profile="q32")
        mod = cfg.moduli[0]
        a = random_poly(mod, 4096, 19)
        b = random_poly(mod, 4096, 20)
        report = run(cfg, a, b, op="polymul")
        assert [r.total_cycles for r in report.reports] == [787, 787, 146, 788]

    @pytest.fixture
    def walks(self, monkeypatch):
        """The op kind of every trace run() walks."""
        kinds = []
        walk = sim.detect_hazards

        def counted(trace, *args, **kwargs):
            kinds.append(trace.op_kind)
            return walk(trace, *args, **kwargs)

        monkeypatch.setattr(sim, "detect_hazards", counted)
        return kinds

    @pytest.mark.parametrize("op,want", [
        ("polymul", ["ntt", "mult", "intt"]), ("ntt", ["ntt"]), ("intt", ["intt"]),
        ("mult", ["mult"]),
    ])
    def test_one_walk_per_distinct_trace(self, walks, op, want):
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        a = random_poly(cfg.moduli[0], 64, 25)
        b = random_poly(cfg.moduli[0], 64, 26) if op in ("mult", "polymul") else None
        report = run(cfg, a, b, op=op)
        assert walks == want
        assert len(report.reports) == len(sim.OP_STEPS[op])
        if op == "polymul":
            assert report.reports[0] == report.reports[1]

    def test_fixed_costs_paid_once(self, monkeypatch):
        """polymul builds the ntt and mult traces and derives the intt one,
        and checks each step kind with one reference call per modulus, on
        the stack of that channel's memories."""
        cfg = make_sim_config(64, 4, q_bits=32, n_q=2, profile="q32")
        builds, references = [], []
        build, reference = sim.build_schedule, sim._reference

        def counted_build(n_total, npe, op_kind, *args):
            builds.append(op_kind)
            return build(n_total, npe, op_kind, *args)

        def counted_reference(op_kind, mod, a_coeffs, b_coeffs):
            references.append((op_kind, mod.q, a_coeffs.shape))
            return reference(op_kind, mod, a_coeffs, b_coeffs)

        monkeypatch.setattr(sim, "build_schedule", counted_build)
        monkeypatch.setattr(sim, "_reference", counted_reference)
        run(cfg, random_operand(cfg, 35), random_operand(cfg, 36), op="polymul")
        assert builds == ["ntt", "mult"]
        q0, q1 = (mod.q for mod in cfg.moduli)
        assert references == [
            ("ntt", q0, (2, 64)), ("ntt", q1, (2, 64)),
            ("mult", q0, (1, 64)), ("mult", q1, (1, 64)),
            ("intt", q0, (1, 64)), ("intt", q1, (1, 64)),
        ]

    # N=256, Npe=4 has RAW bound 16 under q32's delay of 19; N=1024, Npe=8
    # has bound 32
    @pytest.mark.parametrize("n_total,npe,stalls", [(256, 4, True), (1024, 8, False)])
    def test_shared_walk_equals_walk_per_step(self, n_total, npe, stalls):
        cfg = make_sim_config(n_total, npe, q_bits=32, profile="q32", setup_cycles=3)
        a = random_poly(cfg.moduli[0], n_total, 27)
        b = random_poly(cfg.moduli[0], n_total, 28)
        report = run(cfg, a, b, op="polymul")
        steps = [
            detect_hazards(build_schedule(n_total, npe, kind), cfg.pipeline, cfg.setup_cycles)
            for kind in sim.OP_STEPS["polymul"]
        ]
        per_step = dataclasses.replace(report, reports=steps)
        assert (report.stall_cycles > 0) == stalls
        assert report.reports == steps
        for total in ("total_cycles", "stall_cycles", "bank_conflict_count", "utilization"):
            assert getattr(report, total) == getattr(per_step, total), total
        assert report.to_json() == per_step.to_json()

    def test_rns_channels(self):
        basis = gen_basis(14, 2, 16)
        big_q = basis.big_q
        gen = np.random.default_rng(21)
        a = [int(x) % big_q for x in gen.integers(0, 2**60, size=16)]
        b = [int(x) % big_q for x in gen.integers(0, 2**60, size=16)]
        ra, rb = decompose(a, basis), decompose(b, basis)
        cfg = make_sim_config(16, 2, moduli=basis.moduli, profile="q14")
        report = run(cfg, ra, rb, op="polymul")
        got = [
            [int(x) for x in chan] for chan in report.results
        ]
        oracle = negacyclic_schoolbook_oracle(a, b, big_q)
        per_channel = rns_polymul(ra, rb, basis)
        for chan, poly in zip(got, per_channel.residue_polys):
            assert chan == poly.to_ints()
        rebuilt = reconstruct(per_channel, basis)
        assert rebuilt == oracle


class TestNoThreads:
    def test_single_block_work_starts_no_thread(self):
        """run() and batches of one cache block run inline: a fresh
        interpreter ends them with its main thread alone, and without
        having imported concurrent.futures."""
        code = """
import sys
import threading
import numpy as np
from nttsim import modarith, ntt, sim
from nttsim.ntt import Polynomial
modarith._CPUS = max(2, modarith._CPUS)  # a pool could start if one were asked for
cfg = sim.make_sim_config(4096, 32, q_bits=32, profile="q32")
mod = cfg.moduli[0]
gen = np.random.default_rng(5)
a, b = (gen.integers(0, mod.q, size=(16, 4096), dtype=np.uint64) for _ in range(2))
sim.run(cfg, Polynomial(a[0], mod), Polynomial(b[0], mod), op="polymul")
tw = ntt.cached_twiddles(mod, 4096)
ntt.polymul_ntt_array(a[0], b[0], tw)
ntt.polymul_ntt_array(a, b, tw)
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(sim.__file__)), env.get("PYTHONPATH")])
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 False\n"


class TestReport:
    def test_json_fields(self):
        cfg = make_sim_config(64, 4, q_bits=14, profile="ideal")
        a = random_poly(cfg.moduli[0], 64, 22)
        report = run(cfg, a, op="ntt")
        data = json.loads(report.to_json())
        for key in ("op", "N", "n_pe", "profile", "total_cycles",
                    "per_stage", "stalls", "conflicts", "utilization", "config"):
            assert key in data
        assert data["op"] == "ntt"
        assert data["N"] == 64
        assert data["n_pe"] == 4
        assert data["stalls"] == 0

    def test_json_deterministic(self):
        cfg = make_sim_config(64, 4, q_bits=14, profile="q14")
        a = random_poly(cfg.moduli[0], 64, 23)
        assert run(cfg, a, op="ntt").to_json() == run(cfg, a, op="ntt").to_json()

    def test_utilization_full_rate(self):
        cfg = make_sim_config(64, 4, q_bits=14, profile="ideal")
        a = random_poly(cfg.moduli[0], 64, 24)
        assert run(cfg, a, op="ntt").reports[0].utilization == 1.0


class TestConfigValidation:
    def test_rejects_bad_npe(self):
        with pytest.raises(ValueError):
            make_sim_config(4096, 3, q_bits=32)

    def test_rejects_odd_log2(self):
        with pytest.raises(ValueError):
            make_sim_config(2048, 16, q_bits=32)

    def test_rejects_negative_setup(self):
        with pytest.raises(ValueError, match="setup cycles"):
            make_sim_config(16, 2, q_bits=14, setup_cycles=-1)
        with pytest.raises(ValueError, match="setup cycles"):
            predicted_cycles(16, 2, PROFILES["ideal"], -50, "ntt")
        with pytest.raises(ValueError, match="setup cycles"):
            detect_hazards(build_schedule(16, 2, "ntt"), PROFILES["q32"], setup_cycles=-5)

    def test_largest_setup_times_exactly(self):
        # 2^32 - 1 setup cycles still fit the int64 cycle columns
        top = 2**32 - 1
        cfg = make_sim_config(1024, 8, q_bits=14, profile="q14", setup_cycles=top)
        mod = cfg.moduli[0]
        report = run(cfg, random_poly(mod, 1024, 26), random_poly(mod, 1024, 27), op="polymul")
        assert report.stall_cycles == 0
        assert report.total_cycles == report.predicted
        assert report.predicted == predicted_cycles(1024, 8, PROFILES["q14"], top, "polymul")
        assert report.predicted == predicted_cycles(1024, 8, PROFILES["q14"], 0, "polymul") + 4 * top
        assert PipelineConfig(top, top, top, top).total_delay("intt") == 3 * top + 1

    @pytest.mark.parametrize("value", [2**32, 10**21])
    def test_rejects_cycle_inputs_from_2_32(self, value):
        with pytest.raises(ValueError, match=r"setup cycles must be below 2\^32"):
            make_sim_config(16, 2, q_bits=14, setup_cycles=value)
        with pytest.raises(ValueError, match=r"setup cycles must be below 2\^32"):
            predicted_cycles(16, 2, PROFILES["ideal"], value, "ntt")
        with pytest.raises(ValueError, match=r"setup cycles must be below 2\^32"):
            detect_hazards(build_schedule(16, 2, "ntt"), PROFILES["ideal"], setup_cycles=value)
        with pytest.raises(ValueError, match=r"delay_pe_mult must be below 2\^32"):
            PipelineConfig(0, 0, 0, value)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown hazard policy"):
            make_sim_config(16, 2, q_bits=14, hazard_policy="failfast")
        with pytest.raises(ValueError, match="unknown hazard policy"):
            detect_hazards(build_schedule(16, 2, "ntt", "sequential"), PROFILES["q32"], policy="failfast")

    def test_rejects_unreduced_operand(self):
        cfg = make_sim_config(16, 2, q_bits=14)
        mod = cfg.moduli[0]
        with pytest.raises(ValueError, match="not reduced"):
            run(cfg, Polynomial(np.array([mod.q + 3] + [0] * 15, dtype=np.uint64), mod), op="ntt")

    def test_rejects_unknown_profile_and_missing_moduli(self):
        with pytest.raises(ValueError, match="unknown profile 'q99'"):
            make_sim_config(16, 2, q_bits=14, profile="q99")
        with pytest.raises(ValueError, match="either q_bits or explicit moduli are required"):
            make_sim_config(16, 2)

    @pytest.mark.parametrize("kwargs", [{"q_bits": 30, "n_q": 3}, {"q_bits": 30}, {"n_q": 3}])
    def test_moduli_take_no_q_bits_or_n_q(self, kwargs):
        # the moduli are given or drawn, as the CLI's --q refuses --q-bits and --nq
        with pytest.raises(ValueError, match="^explicit moduli take no q_bits or n_q$"):
            make_sim_config(16, 2, moduli=[ntt_modulus(14, 16)], **kwargs)

    def test_rejects_unknown_layout_kind_when_built(self):
        with pytest.raises(ValueError, match="unknown layout kind 'bogus'"):
            make_sim_config(16, 2, q_bits=14, layout_kind="bogus")

    # the one text of the one check that refuses an op outside sim.OPS
    UNKNOWN_OP = "^" + re.escape(
        "unknown op 'fft'; expected one of ('ntt', 'intt', 'mult', 'polymul')"
    ) + "$"

    def test_predicted_cycles_rejects_unknown_op(self):
        with pytest.raises(ValueError, match=self.UNKNOWN_OP):
            predicted_cycles(16, 2, PROFILES["ideal"], 0, "fft")

    @pytest.mark.parametrize("kwargs", [{"q_bits": 14, "n_q": 0}, {"moduli": []}])
    def test_rejects_empty_modulus_list(self, kwargs):
        with pytest.raises(ValueError, match="at least one modulus"):
            make_sim_config(16, 2, **kwargs)

    def test_rejects_duplicate_moduli(self):
        # checked as an RNS basis, as the CLI's --q already is
        mod = ntt_modulus(14, 16)
        with pytest.raises(ValueError, match="^basis primes must be distinct$"):
            make_sim_config(16, 2, moduli=[mod, mod])

    def test_run_rejects_unknown_op_and_missing_operand(self):
        cfg = make_sim_config(16, 2, q_bits=14, profile="ideal")
        a = random_poly(cfg.moduli[0], 16, 40)
        with pytest.raises(ValueError, match=self.UNKNOWN_OP):
            run(cfg, a, a, op="fft")
        for op in ("mult", "polymul"):
            with pytest.raises(ValueError, match=f"op '{op}' needs a second operand"):
                run(cfg, a, op=op)
        # a second operand no step reads is refused, not ignored
        for op in ("ntt", "intt"):
            with pytest.raises(ValueError, match=f"^op '{op}' takes no second operand$"):
                run(cfg, a, a, op=op)

    def test_run_rejects_operands_that_do_not_fit_the_config(self):
        cfg = make_sim_config(16, 2, q_bits=14, profile="ideal")
        mod = cfg.moduli[0]
        other = gen_basis(14, 2, 16).moduli[1]
        two = gen_basis(14, 2, 16)
        cases = [
            ([0] * 16, "a must be a Polynomial or RnsPolynomial"),
            (decompose([0] * 16, two), "a has 2 channels but the config has 1 moduli"),
            (random_poly(other, 16, 41), f"a channel modulus {other.q} != config {mod.q}"),
            (random_poly(mod, 64, 42), "a length 64 != configured N 16"),
        ]
        for a, message in cases:
            with pytest.raises(ValueError, match=message):
                run(cfg, a, op="ntt")
        with pytest.raises(ValueError, match="b length 64 != configured N 16"):
            run(cfg, random_poly(mod, 16, 43), random_poly(mod, 64, 44), op="mult")

    def test_modulus_must_support_transform(self):
        # q = 16369 = 1 mod 16 only: refused when the config is built,
        # before anything is scheduled, timed or replayed
        mod = ntt_modulus(14, 8)
        with pytest.raises(ValueError, match="^q=16369 is not congruent to 1 mod 512$"):
            make_sim_config(256, 8, moduli=[mod])
