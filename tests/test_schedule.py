"""Tests for the two-phase access schedule and the RAW-freedom bounds.

The exhaustive audits re-derive every property from the trace itself:
coverage, bank uniqueness, operand separation and issue-cycle counts.
"""

import collections
import csv
import hashlib
import io

import numpy as np
import pytest

from nttsim.layout import make_layout
from nttsim.schedule import (
    PROFILES,
    PipelineConfig,
    build_schedule,
    check_raw_bound,
    export_csv,
    inverse_trace,
    trace_stats,
)

from reference_schedule import reference_cycles
from timing_oracle import record_groups


def coefficient_of(trace, cell):
    layout = make_layout(trace.N, trace.layout_kind)
    bank, addr = cell
    return layout.coefficient_at(addr, bank)


class TestPipelineConfig:
    def test_intt_depth_is_ntt_plus_one(self):
        cfg = PROFILES["q32"]
        assert cfg.delay_pe("intt") == cfg.delay_pe("ntt") + 1

    def test_profile_sums(self):
        # 32-bit profile totals 19/20/18 cycles for ntt/intt/mult;
        # 14-bit totals 15 for ntt
        q32 = PROFILES["q32"]
        assert q32.total_delay("ntt") == 19
        assert q32.total_delay("intt") == 20
        assert q32.total_delay("mult") == 18
        assert PROFILES["q14"].total_delay("ntt") == 15
        assert PROFILES["ideal"].total_delay("ntt") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PipelineConfig(-1, 2, 15, 14)

    def test_rejects_unknown_op_kind(self):
        # one check, one text, wherever an op kind comes in
        text = "unknown op kind 'fft'; expected one of ('ntt', 'intt', 'mult')"
        for call in (
            lambda: PROFILES["q32"].delay_pe("fft"),
            lambda: build_schedule(16, 2, "fft"),
            lambda: check_raw_bound(16, 2, PROFILES["q32"], op_kind="fft"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == text


class TestBuildValidation:
    def test_rejects_odd_log2(self):
        with pytest.raises(ValueError):
            build_schedule(2048, 16, "ntt")

    def test_rejects_bad_npe(self):
        with pytest.raises(ValueError):
            build_schedule(4096, 3, "ntt")
        with pytest.raises(ValueError):
            build_schedule(4096, 64, "ntt")  # n/2 = 32 is the cap
        with pytest.raises(ValueError):
            build_schedule(16, 0, "ntt")

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            build_schedule(16, 2, "fft")

    @pytest.mark.parametrize("op", ["ntt", "intt", "mult"])
    def test_columns_are_read_only(self, op):
        trace = build_schedule(16, 2, op)
        for name in ("stage", "rnd", "r0", "r1", "tw"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 1

    @pytest.mark.parametrize("op", ["ntt", "intt", "mult"])
    def test_column_bases_are_read_only(self, op):
        # a column may view a larger array, which would otherwise rewrite it
        trace = build_schedule(16, 2, op)
        for name in ("stage", "rnd", "r0", "r1", "tw"):
            base = getattr(trace, name).base
            assert base is None or not base.flags.writeable, name


class TestIssueGroups:
    """cycles holds each issue group's row indices; the tracer counts a
    trace's rows as sum(map(len, trace.cycles))."""

    @pytest.mark.parametrize("op", ["ntt", "intt", "mult"])
    @pytest.mark.parametrize("n_total,npe", [(16, 1), (16, 2), (256, 4), (1024, 16)])
    def test_rows_by_issue_group(self, n_total, npe, op):
        trace = build_schedule(n_total, npe, op)
        cycles = trace.cycles
        assert cycles.shape == (trace.issue_cycles, npe)
        for g, rows in enumerate(cycles):
            assert (rows // npe == g).all()
        assert cycles.ravel().tolist() == list(range(len(trace.stage)))
        assert sum(map(len, cycles)) == len(trace.stage)


def assert_reference_columns(trace, records):
    """trace's int32 columns equal the reference Records' fields in order."""
    n = trace.n
    expected = {
        "stage": [rec.stage for rec in records],
        "rnd": [rec.rnd for rec in records],
        "r0": [rec.r0[0] * n + rec.r0[1] for rec in records],
        "r1": [rec.r1[0] * n + rec.r1[1] for rec in records],
        "tw": [rec.tw for rec in records],
    }
    for name, values in expected.items():
        column = getattr(trace, name)
        assert column.dtype == np.int32, name
        assert column.tolist() == values, (trace.N, trace.npe, trace.op_kind, name)


class TestReferenceBuilder:
    """The column trace equals the per-record reference builder, column
    by column and Record by Record, for every N <= 4096 and every Npe, and
    column by column at N = 16384 for the least and the greatest Npe."""

    @pytest.mark.parametrize("layout", ["shifted", "sequential"])
    @pytest.mark.parametrize("op", ["ntt", "intt", "mult"])
    @pytest.mark.parametrize("n_total", [16, 64, 256, 1024, 4096])
    def test_columns_and_records(self, n_total, op, layout):
        n = 1 << ((n_total.bit_length() - 1) // 2)
        npe = 1
        while npe <= n // 2:
            trace = build_schedule(n_total, npe, op, layout_kind=layout)
            want = reference_cycles(n_total, npe, op, layout)
            assert_reference_columns(trace, [rec for group in want for rec in group])
            assert trace.issue_cycles == len(want)
            assert record_groups(trace) == want
            npe *= 2

    @pytest.mark.parametrize("layout", ["shifted", "sequential"])
    @pytest.mark.parametrize("op", ["ntt", "intt", "mult"])
    def test_columns_at_16384(self, op, layout):
        # the records in issue order are the same for every Npe
        records = [rec for group in reference_cycles(16384, 64, op, layout) for rec in group]
        for npe in (1, 64):
            assert_reference_columns(build_schedule(16384, npe, op, layout_kind=layout), records)


class TestInverseTrace:
    """The intt trace is the ntt trace's stage blocks in reverse order."""

    # the five int32 columns of every intt trace for N 16-16384, every Npe,
    # both layouts, as build_schedule made them before it derived the
    # inverse from the forward trace
    DIGEST = "b7fb0ff255496975dfb1c24e438e19b13379efe2f8e8eec8034bcfda00a62175"

    def test_columns_pinned(self):
        digest = hashlib.sha256()
        for n_total in (16, 64, 256, 1024, 4096, 16384):
            n = 1 << ((n_total.bit_length() - 1) // 2)
            for npe in [1 << e for e in range((n // 2).bit_length())]:
                for layout in ("shifted", "sequential"):
                    trace = build_schedule(n_total, npe, "intt", layout)
                    for column in (trace.stage, trace.rnd, trace.r0, trace.r1, trace.tw):
                        assert column.dtype == np.int32
                        digest.update(column.tobytes())
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("n_total,npe,layout", [(16, 2, "shifted"), (1024, 4, "sequential")])
    def test_stage_blocks_reversed(self, n_total, npe, layout):
        forward = build_schedule(n_total, npe, "ntt", layout)
        inverse = inverse_trace(forward)
        assert inverse.op_kind == "intt"
        forward_blocks = [rows for _stage, rows in forward.stage_slices]
        inverse_blocks = [rows for _stage, rows in inverse.stage_slices]
        assert [s for s, _ in inverse.stage_slices] == [s for s, _ in forward.stage_slices][::-1]
        for rows, back in zip(inverse_blocks, forward_blocks[::-1]):
            for name in ("stage", "rnd", "r0", "r1", "tw"):
                assert (getattr(inverse, name)[rows] == getattr(forward, name)[back]).all()

    @pytest.mark.parametrize("op", ["intt", "mult"])
    def test_takes_only_a_forward_trace(self, op):
        with pytest.raises(ValueError, match=f"^inverse_trace takes an ntt trace, got '{op}'$"):
            inverse_trace(build_schedule(16, 2, op))

    def test_stage_slices_computed_once(self):
        trace = build_schedule(64, 2, "intt")
        assert trace.stage_slices is trace.stage_slices


class TestPhaseStructure:
    def test_n64_phase0_rounds(self):
        # log2(64) = 6 stages; phase 0 is the first 3. Stage 1 has two
        # rounds whose coefficient index ranges are [0,32) and [32,64).
        trace = build_schedule(64, 4, "ntt")
        by_stage = collections.defaultdict(set)
        rounds = collections.defaultdict(set)
        for cycle in record_groups(trace):
            for rec in cycle:
                by_stage[rec.stage].add(rec.rnd)
                i0 = coefficient_of(trace, rec.r0)
                i1 = coefficient_of(trace, rec.r1)
                rounds[(rec.stage, rec.rnd)].update((i0, i1))
        assert sorted(by_stage) == [0, 1, 2, 3, 4, 5]
        assert by_stage[0] == {0}
        assert by_stage[1] == {0, 1}
        assert by_stage[2] == {0, 1, 2, 3}
        assert rounds[(1, 0)] == set(range(0, 32))
        assert rounds[(1, 1)] == set(range(32, 64))

    def test_stage_pair_distances(self):
        trace = build_schedule(64, 4, "ntt")
        for cycle in record_groups(trace):
            for rec in cycle:
                i0 = coefficient_of(trace, rec.r0)
                i1 = coefficient_of(trace, rec.r1)
                assert i1 - i0 == 64 >> (rec.stage + 1)

    def test_intt_reverses_stage_order(self):
        fwd = build_schedule(16, 2, "ntt")
        inv = build_schedule(16, 2, "intt")
        fwd_stages = [c[0].stage for c in record_groups(fwd)]
        inv_stages = [c[0].stage for c in record_groups(inv)]
        assert fwd_stages == sorted(fwd_stages)
        assert inv_stages == sorted(inv_stages, reverse=True)
        assert set(inv_stages) == set(fwd_stages)

    def test_phase1_reads_whole_rows(self):
        # phase-1 stages read one address row per full-rate cycle
        trace = build_schedule(64, 4, "ntt")  # full rate: Npe = n/2
        for cycle in record_groups(trace):
            stage = cycle[0].stage
            if stage < 3:
                continue
            addrs = {rec.r0[1] for rec in cycle} | {rec.r1[1] for rec in cycle}
            assert len(addrs) == 1


class TestTraceAudit:
    @pytest.mark.parametrize("n_total,npe", [(16, 1), (16, 2), (64, 2), (64, 4), (256, 8)])
    def test_exhaustive_audit(self, n_total, npe):
        k = n_total.bit_length() - 1
        trace = build_schedule(n_total, npe, "ntt")
        per_stage_reads = collections.defaultdict(list)
        butterflies = 0
        for cycle in record_groups(trace):
            # single read port and single write port per bank
            read_banks = [rec.r0[0] for rec in cycle] + [rec.r1[0] for rec in cycle]
            assert len(read_banks) == len(set(read_banks))
            write_banks = [rec.w0[0] for rec in cycle] + [rec.w1[0] for rec in cycle]
            assert len(write_banks) == len(set(write_banks))
            for rec in cycle:
                butterflies += 1
                # operands always come from two distinct banks
                assert rec.r0[0] != rec.r1[0]
                # outputs return to the cells that were read
                assert rec.w0 == rec.r0 and rec.w1 == rec.r1
                i0 = coefficient_of(trace, rec.r0)
                i1 = coefficient_of(trace, rec.r1)
                per_stage_reads[rec.stage].extend((i0, i1))
        assert butterflies == (n_total // 2) * k
        for stage, reads in per_stage_reads.items():
            # every coefficient read exactly once per stage
            assert sorted(reads) == list(range(n_total))

    def test_issue_cycle_count_exact(self):
        for n_total, npe in [(16, 1), (16, 2), (64, 4), (256, 2), (1024, 16), (4096, 32)]:
            k = n_total.bit_length() - 1
            trace = build_schedule(n_total, npe, "ntt")
            assert len(record_groups(trace)) == n_total * k // (2 * npe)

    def test_n4096_npe32_stage_cost(self):
        trace = build_schedule(4096, 32, "ntt")
        per_stage = collections.Counter(c[0].stage for c in record_groups(trace))
        assert all(v == 64 for v in per_stage.values())
        assert len(record_groups(trace)) == 768

    def test_pe_assignment_dense(self):
        trace = build_schedule(64, 4, "ntt")
        for cycle in record_groups(trace):
            assert [rec.pe for rec in cycle] == list(range(4))

    @pytest.mark.parametrize("op", ["ntt", "intt"])
    def test_no_bit_reversal_pass(self, op):
        # the trace contains exactly the butterfly accesses, nothing
        # else: no stage moves data anywhere but back into its own cells
        trace = build_schedule(64, 4, op)
        records = [rec for cycle in record_groups(trace) for rec in cycle]
        assert len(records) == 64 // 2 * 6
        assert all(rec.w0 == rec.r0 and rec.w1 == rec.r1 for rec in records)

    def test_twiddle_index_tracks_block(self):
        trace = build_schedule(64, 4, "ntt")
        for cycle in record_groups(trace):
            for rec in cycle:
                assert rec.tw == (1 << rec.stage) + rec.rnd


class TestMultTrace:
    def test_element_pairing(self):
        trace = build_schedule(16, 2, "mult")
        seen = []
        for cycle in record_groups(trace):
            for rec in cycle:
                assert rec.r0 == rec.r1  # same cell in the a and b arrays
                assert rec.w0 == rec.r0
                assert rec.w1 is None
                assert rec.tw == -1
                seen.append(coefficient_of(trace, rec.r0))
        assert seen == list(range(16))

    def test_cycle_count(self):
        trace = build_schedule(4096, 1, "mult")
        assert len(record_groups(trace)) == 4096
        stats = trace_stats(trace)
        assert stats.issue_cycles == 4096

    def test_row_bank_uniqueness(self):
        trace = build_schedule(64, 4, "mult")
        for cycle in record_groups(trace):
            banks = [rec.r0[0] for rec in cycle]
            assert len(banks) == len(set(banks))


class TestRawBound:
    def test_full_rate_bound(self):
        # N=4096 (n=64), Npe=32: bound n/2 = 32; delay 19 fits
        report = check_raw_bound(4096, 32, PROFILES["q32"])
        assert report.bound == 32
        assert report.total_delay == 19
        assert report.satisfied
        assert report.slack == 13

    def test_14bit_n1024(self):
        report = check_raw_bound(1024, 16, PROFILES["q14"])
        assert report.bound == 16
        assert report.total_delay == 15
        assert report.satisfied

    def test_small_n_violated(self):
        report = check_raw_bound(16, 2, PROFILES["q32"])
        assert report.bound == 2
        assert not report.satisfied
        assert report.slack < 0

    def test_reduced_rate_scales_bound(self):
        # Npe < n/2 multiplies the bound by n/(2*Npe)
        assert check_raw_bound(4096, 16, PROFILES["q32"]).bound == 64
        assert check_raw_bound(4096, 1, PROFILES["q32"]).bound == 1024

    def test_intt_bound_uses_deeper_pipe(self):
        report = check_raw_bound(1024, 16, PROFILES["q14"], op_kind="intt")
        assert report.total_delay == 16
        assert not report.satisfied  # 16 < 16 fails: strict inequality


class TestStats:
    def test_full_rate_utilization(self):
        stats = trace_stats(build_schedule(64, 4, "ntt"))
        assert stats.utilization == 1.0
        assert stats.butterflies == 192

    def test_reads_balanced_across_banks(self):
        stats = trace_stats(build_schedule(256, 8, "ntt"))
        assert len(set(stats.reads_per_bank)) == 1
        assert len(set(stats.writes_per_bank)) == 1

    def test_cycles_per_stage(self):
        stats = trace_stats(build_schedule(64, 2, "ntt"))
        assert all(v == 16 for v in stats.cycles_per_stage.values())


class TestCsvExport:
    def test_columns_and_rows(self):
        trace = build_schedule(16, 2, "ntt")
        buf = io.StringIO()
        export_csv(trace, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert list(rows[0]) == [
            "cycle", "pe", "stage", "round",
            "r0_bank", "r0_addr", "r1_bank", "r1_addr",
            "w0_bank", "w0_addr", "w1_bank", "w1_addr", "tw_idx",
        ]
        assert len(rows) == 32  # (N/2) * log2 N butterflies
        assert rows[0]["cycle"] == "0"

    def test_mult_rows_have_single_write(self):
        trace = build_schedule(16, 2, "mult")
        buf = io.StringIO()
        export_csv(trace, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert rows[0]["w1_bank"] == "" and rows[0]["w1_addr"] == ""
        assert rows[0]["tw_idx"] == ""

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        export_csv(build_schedule(64, 4, "intt"), a)
        export_csv(build_schedule(64, 4, "intt"), b)
        assert a.getvalue() == b.getvalue()
