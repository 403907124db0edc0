"""Per-record reference builder for the two-phase access schedule.

It builds the trace the plain way: one Python loop per stage, one
(i0, i1, round) pair at a time, one LayoutMap.place call per operand,
one Record per butterfly, grouped into issue cycles of Npe records.
build_schedule computes the same trace as numpy columns; the tests
require the two to agree on every column and on every Record.
"""

from typing import List

from nttsim.layout import LayoutMap, make_layout
from nttsim.schedule import OP_KINDS, validate_geometry

from timing_oracle import Cell, Record


def stage_fullrate_pairs(n_total: int, n: int, s: int):
    """Yield one full-rate cycle at a time: [(i0, i1, round), ...].

    Pairs are ordered segment-major (phase 0) or block-major (phase 1).
    """
    k = n_total.bit_length() - 1
    gap = n_total >> (s + 1)
    if s < k // 2:
        # phase 0: each round r covers indices [r*N/2^s, (r+1)*N/2^s);
        # one cycle reads 2^s column segments offset by n/2^s rows
        rows_per_round = n >> s
        half = rows_per_round // 2
        segments = 1 << s
        for r in range(segments):
            for t in range(rows_per_round):
                pairs = []
                for j in range(segments):
                    col = t + j * rows_per_round
                    for a in range(half):
                        i0 = (r * rows_per_round + a) * n + col
                        pairs.append((i0, i0 + gap, r))
                yield pairs
    else:
        # phase 1: pairs sit inside single rows; read row by row
        block = 2 * gap
        blocks_per_row = n // block
        for row in range(n):
            pairs = []
            for beta in range(blocks_per_row):
                rnd = row * blocks_per_row + beta
                base = row * n + beta * block
                for o in range(gap):
                    pairs.append((base + o, base + o + gap, rnd))
            yield pairs


def _cell(layout: LayoutMap, i: int) -> Cell:
    addr, bank = layout.place(i)
    return (bank, addr)


def reference_cycles(
    n_total: int, npe: int, op_kind: str, layout_kind: str = "shifted"
) -> List[List[Record]]:
    """The trace as issue groups of Records."""
    assert op_kind in OP_KINDS
    n = validate_geometry(n_total, npe)
    layout = make_layout(n_total, layout_kind)
    cycles: List[List[Record]] = []
    if op_kind == "mult":
        for base in range(0, n_total, npe):
            recs = []
            for pe in range(npe):
                i = base + pe
                cell = _cell(layout, i)
                recs.append(Record(pe, 0, i // n, cell, cell, cell, None, -1))
            cycles.append(recs)
        return cycles

    k = n_total.bit_length() - 1
    stage_order = range(k) if op_kind == "ntt" else range(k - 1, -1, -1)
    for s in stage_order:
        tw_base = 1 << s
        for pairs in stage_fullrate_pairs(n_total, n, s):
            for start in range(0, len(pairs), npe):
                recs = []
                for pe, (i0, i1, rnd) in enumerate(pairs[start:start + npe]):
                    c0, c1 = _cell(layout, i0), _cell(layout, i1)
                    recs.append(Record(pe, s, rnd, c0, c1, c0, c1, tw_base + rnd))
                cycles.append(recs)
    return cycles
