"""Tests for the shifted bank placement and its conflict-freedom."""

import json

import numpy as np
import pytest

from nttsim.layout import (
    ConflictReport,
    LayoutMap,
    coefficient_at,
    make_layout,
    place,
    square_side,
    verify_conflict_free,
)
from nttsim.ntt import MAX_N


class TestPlace:
    def test_origin(self):
        assert place(0, 4) == (0, 0)

    def test_shift_separates_colliding_pair(self):
        # under sequential placement a[0] and a[8] share bank 0 (N=16);
        # the shifted placement puts a[8] in bank 2
        assert place(8, 4) == (2, 2)
        assert place(0, 4)[1] != place(8, 4)[1]
        seq = make_layout(16, kind="sequential")
        assert seq.place(0)[1] == seq.place(8)[1] == 0

    def test_formula(self):
        for n in (4, 8, 16):
            for i in range(n * n):
                addr, bank = place(i, n)
                assert addr == i // n
                assert bank == (i % n + i // n) % n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            place(16, 4)
        with pytest.raises(ValueError):
            place(-1, 4)


class TestInverse:
    def test_origin(self):
        assert coefficient_at(0, 0, 4) == 0

    def test_known_cell(self):
        # derived by enumerating the forward map for n=4
        assert coefficient_at(2, 2, 4) == 8

    def test_roundtrip_all_cells(self):
        for n in (4, 8, 16, 32):
            for addr in range(n):
                for bank in range(n):
                    i = coefficient_at(addr, bank, n)
                    assert place(i, n) == (addr, bank)

    def test_bijective_against_enumeration(self):
        n = 16  # N = 256
        cells = {place(i, n) for i in range(n * n)}
        assert len(cells) == n * n
        back = {coefficient_at(a, b, n) for a, b in cells}
        assert back == set(range(n * n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coefficient_at(4, 0, 4)
        with pytest.raises(ValueError):
            coefficient_at(0, 4, 4)


class TestLayoutMap:
    def test_rejects_odd_log2(self):
        with pytest.raises(ValueError):
            make_layout(2048)

    def test_rejects_n4(self):
        # the conflict-freedom argument needs more than two banks
        with pytest.raises(ValueError):
            make_layout(4)

    def test_accepts_n16(self):
        lm = make_layout(16)
        assert lm.n == 4
        assert lm.N == 16

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            make_layout(100)

    @pytest.mark.parametrize("n", [2, 3])
    def test_module_functions_check_the_geometry(self, n):
        # a 2x2 or 3x3 memory is no supported geometry, so there is no
        # placement to answer with
        message = f"N={n * n} unsupported: the square memory needs"
        with pytest.raises(ValueError, match=message):
            place(0, n)
        with pytest.raises(ValueError, match=message):
            coefficient_at(0, 0, n)

    def test_rejects_n_above_the_maximum(self):
        # refused from N alone, before any map is built
        assert square_side(MAX_N) == 1024
        message = r"^N=4194304 exceeds the maximum N=1048576$"
        with pytest.raises(ValueError, match=message):
            square_side(4 * MAX_N)
        with pytest.raises(ValueError, match=message):
            make_layout(4 * MAX_N)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown layout kind 'diagonal'"):
            make_layout(16, "diagonal")


class TestBothKinds:
    @pytest.mark.parametrize("kind", ["shifted", "sequential"])
    @pytest.mark.parametrize("n_total", [16, 64, 256, 1024])
    def test_place_inverse_and_cells_agree(self, n_total, kind):
        layout = make_layout(n_total, kind)
        n = layout.n
        rotation = 1 if kind == "shifted" else 0
        placed = [layout.place(i) for i in range(n_total)]
        assert placed == [(i // n, (i % n + rotation * (i // n)) % n) for i in range(n_total)]
        assert [layout.coefficient_at(a, b) for a, b in placed] == list(range(n_total))
        cells = layout.cells(np.arange(n_total)).tolist()
        assert cells == [bank * n + addr for addr, bank in placed]
        assert sorted(cells) == list(range(n_total))

    @pytest.mark.parametrize("kind", ["shifted", "sequential"])
    def test_out_of_range(self, kind):
        layout = make_layout(16, kind)
        with pytest.raises(ValueError, match=r"outside \[0, 16\)"):
            layout.place(16)
        with pytest.raises(ValueError, match="outside the 4x4 memory"):
            layout.coefficient_at(0, 4)


class TestConflictFreedom:
    @pytest.mark.parametrize("n_total", [16, 64, 256, 1024, 4096])
    def test_shifted_has_no_violations(self, n_total):
        report = verify_conflict_free(n_total)
        assert len(report.violations) == 0
        assert report.pairs_checked > 0

    def test_sequential_counterexample(self):
        report = verify_conflict_free(16, kind="sequential")
        assert len(report.violations) > 0
        assert any(v["i"] == 0 and v["j"] == 8 for v in report.violations)

    def test_exhaustive_pair_oracle(self):
        # brute-force re-check of the N=64 report against plain loops
        n_total, n = 64, 8
        bank = lambda i: (i % n + i // n) % n  # noqa: E731
        for i in range(n_total):
            t = 1
            while t <= n_total // 2:
                for j in (i + t, i - t):
                    if 0 <= j < n_total:
                        assert bank(i) != bank(j)
                t *= 2

    @pytest.mark.parametrize("n_total", [64, 256])
    def test_sequential_violations_match_double_loop(self, n_total):
        # the report's violations, exactly and in order, against plain loops
        # over every distance 2^t and every i with a partner i + 2^t
        n = make_layout(n_total).n
        want, pairs, t = [], 0, 0
        while 1 << t <= n_total // 2:
            for i in range(n_total - (1 << t)):
                j = i + (1 << t)
                pairs += 1
                if i % n == j % n:
                    want.append((i, j, i % n, t))
            t += 1
        report = verify_conflict_free(n_total, kind="sequential")
        assert report.violations.tolist() == want
        assert report.pairs_checked == pairs

    @pytest.mark.parametrize("k", range(4, 15, 2))
    def test_sequential_count_closed_form(self, k):
        # with n = 2^h banks, i and i + 2^t share bank i mod n exactly when
        # n divides 2^t, i.e. t >= h: every such pair is a violation
        n_total, h = 1 << k, k // 2
        report = verify_conflict_free(n_total, kind="sequential")
        assert len(report.violations) == sum(n_total - (1 << t) for t in range(h, k))
        assert report.pairs_checked == sum(n_total - (1 << t) for t in range(k))
        if k == 14:
            assert len(report.violations) == 98432

    def test_violation_fields(self):
        report = verify_conflict_free(64, kind="sequential")
        assert report.violations.dtype.names == ("i", "j", "bank", "t")
        assert all(report.violations.dtype[name] == np.int64 for name in ("i", "j", "bank", "t"))
        assert verify_conflict_free(64).violations.dtype == report.violations.dtype
        assert ConflictReport(N=64, kind="shifted", pairs_checked=0).to_json_lines() == (
            '{"N": 64, "layout": "shifted", "pairs_checked": 0, "violations": 0}\n'
        )

    def test_report_json_lines(self):
        report = verify_conflict_free(16, kind="sequential")
        lines = report.to_json_lines().strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["N"] == 16
        assert summary["layout"] == "sequential"
        assert summary["violations"] == len(report.violations)
        first = json.loads(lines[0])
        assert {"i", "j", "bank", "t"} <= set(first)

    def test_clean_report_single_summary_line(self):
        report = verify_conflict_free(16)
        lines = report.to_json_lines().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["violations"] == 0
