"""Two-phase access scheduling for the banked butterfly pipeline.

A transform runs log2(N) stages over an n x n memory (n = sqrt(N)). The
first half of the stages pairs coefficients across rows; reading one
logical column per cycle touches every bank exactly once because of the
shifted placement, and each round is exactly one radix-2 block.
Past stage log2(N)/2 the pairs fall inside single rows, so the stages
read row by row. The inverse transform replays the same stages in
reverse order (inverse_trace, the one definition of that order). Every
butterfly writes its outputs back to the cells it read.

At full rate (Npe = n/2) one cycle consumes n coefficients from n
distinct banks. With fewer butterfly units each full-rate cycle splits
into n/(2*Npe) issue cycles; any contiguous slice of the pair order
still hits distinct banks, so the port guarantees survive the split.

check_raw_bound evaluates the read-after-write safety margin: the
tightest producer-consumer distance in this schedule is
(n/2) * (n/(2*Npe)) issue cycles, so the pipeline is stall-free exactly
when its total depth is strictly below that.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import IO, List, Tuple

import numpy as np

from nttsim.layout import make_layout, square_side

OP_KINDS = ("ntt", "intt", "mult")

# bound on setup cycles and every delay; cycle sums stay far inside int64
MAX_CYCLES = 1 << 32


def check_op_kind(op_kind: str) -> str:
    """op_kind itself, once it names a trace kind."""
    if op_kind not in OP_KINDS:
        raise ValueError(f"unknown op kind {op_kind!r}; expected one of {OP_KINDS}")
    return op_kind


@dataclass(frozen=True)
class PipelineConfig:
    """Stage depths of the memory path and the butterfly datapath.

    The inverse-mode butterfly is one cycle deeper than the forward one
    (the halving step), so only the forward depth is stored.
    """

    delay_read: int
    delay_write: int
    delay_pe_ntt: int
    delay_pe_mult: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")
            if getattr(self, f.name) >= MAX_CYCLES:
                raise ValueError(f"{f.name} must be below 2^32")

    def delay_pe(self, op_kind: str) -> int:
        if check_op_kind(op_kind) == "mult":
            return self.delay_pe_mult
        return self.delay_pe_ntt + (op_kind == "intt")

    def total_delay(self, op_kind: str) -> int:
        return self.delay_read + self.delay_write + self.delay_pe(op_kind)


PROFILES = {
    # 32-bit path: totals 19/20/18 over the ideal issue count
    "q32": PipelineConfig(delay_read=2, delay_write=2, delay_pe_ntt=15, delay_pe_mult=14),
    # 14-bit path: shallower multiplier, total 15 for the forward transform
    "q14": PipelineConfig(delay_read=2, delay_write=2, delay_pe_ntt=11, delay_pe_mult=10),
    "ideal": PipelineConfig(delay_read=0, delay_write=0, delay_pe_ntt=0, delay_pe_mult=0),
}


@dataclass(frozen=True, eq=False)
class ScheduleTrace:
    """One operation's accesses as int32 columns, one row per butterfly.

    Rows are in issue order; row j runs on PE j % npe in issue group
    j // npe, whose rows cycles[j // npe] lists. r0 and r1 are flat cells
    (bank * n + addr). A butterfly writes back to the cells it read
    (w0 = r0, w1 = r1). A pointwise multiply reads r0 from the operand
    memory a and r1 from the second operand memory b, writes only r0 in
    a, and has no twiddle (tw = -1). The columns and the arrays they view
    are made read-only, so a trace can be shared.
    """

    op_kind: str
    N: int
    n: int
    npe: int
    layout_kind: str
    stage: np.ndarray
    rnd: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    tw: np.ndarray

    def __post_init__(self):
        for column in (self.stage, self.rnd, self.r0, self.r1, self.tw):
            for array in (column, column.base):
                if array is not None:
                    array.flags.writeable = False

    @property
    def issue_cycles(self) -> int:
        return len(self.stage) // self.npe

    @cached_property
    def stage_slices(self) -> Tuple[Tuple[int, slice], ...]:
        """(stage, rows) for each stage in trace order; a stage's rows are
        contiguous and fill whole issue groups. Computed once per trace."""
        starts = ((np.flatnonzero(np.diff(self.stage[::self.npe])) + 1) * self.npe).tolist()
        edges = [0, *starts, len(self.stage)]
        return tuple(
            (int(self.stage[lo]), slice(lo, hi)) for lo, hi in zip(edges, edges[1:])
        )

    @property
    def cycles(self) -> np.ndarray:
        """Each issue group's row indices, shape (issue_cycles, npe)."""
        return np.arange(len(self.stage)).reshape(-1, self.npe)


def validate_geometry(n_total: int, npe: int) -> int:
    """n = layout.square_side(N), once Npe is a power of two in [1, n/2]."""
    n = square_side(n_total)
    if npe < 1 or npe & (npe - 1) or npe > n // 2:
        raise ValueError(f"Npe={npe} must be a power of two in [1, n/2={n // 2}]")
    return n


def build_schedule(
    n_total: int, npe: int, op_kind: str, layout_kind: str = "shifted"
) -> ScheduleTrace:
    """Compute the access trace's columns for all stages at once.

    Stage s of a transform (k = log2 N, h = k/2, t = k-1-s) numbers its
    butterflies b in [0, N/2) in issue order. Its round is b >> t, and its
    first coefficient i0 (the partner is i0 + 2^t) is:

    - s >= h (phase 1, pairs inside one row, read row by row): b with a
      zero bit inserted at position t;
    - s < h (phase 0, pairs across rows, read column by column):
      b's bit fields, high to low, are r (s bits), t' (h-s bits), j (s
      bits) and a (h-s-1 bits), and i0 = r<<(k-s) | a<<h | j<<(h-s) | t'.

    Any contiguous slice of Npe pairs then reads 2*Npe distinct banks. The
    intt trace is inverse_trace of the ntt trace.
    """
    if check_op_kind(op_kind) == "intt":
        return inverse_trace(build_schedule(n_total, npe, "ntt", layout_kind))
    n = validate_geometry(n_total, npe)
    cells = make_layout(n_total, layout_kind).cells
    k = n_total.bit_length() - 1
    h = k // 2
    if op_kind == "mult":
        i0 = i1 = np.arange(n_total, dtype=np.int32)
        stage, rnd, tw = np.zeros_like(i0), i0 >> h, np.full_like(i0, -1)
    else:
        s = np.arange(k, dtype=np.int32)[:, None]
        t = k - 1 - s
        b = np.arange(n_total // 2, dtype=np.int32)
        rnd = b >> t
        i0 = rnd << (t + 1) | b & ((1 << t) - 1)
        # phase 0 (s < h): below r, the fields t', j, a become a, j, t'
        s0, w = s[:h], h - s[:h]  # w: the width of t'
        a = b & ((1 << (w - 1)) - 1)
        j = b >> (w - 1) & ((1 << s0) - 1)
        i0[:h] = rnd[:h] << (k - s0) | a << h | j << w | b >> (h - 1) & ((1 << w) - 1)
        i1 = i0 + (1 << t)
        tw = rnd + (1 << s)
        stage = np.broadcast_to(s, rnd.shape)
    columns = (column.ravel() for column in (stage, rnd, cells(i0), cells(i1), tw))
    return ScheduleTrace(op_kind, n_total, n, npe, layout_kind, *columns)


def inverse_trace(forward: ScheduleTrace) -> ScheduleTrace:
    """The intt trace of a forward (ntt) trace: its stage blocks in reverse
    order, the rows within each stage in their own order. Reversing whole
    columns instead would give the same numbers and stall-free totals but
    a different stall timing."""
    if forward.op_kind != "ntt":
        raise ValueError(f"inverse_trace takes an ntt trace, got {forward.op_kind!r}")
    k = forward.N.bit_length() - 1
    columns = (
        column.reshape(k, forward.N // 2)[::-1].ravel()
        for column in (forward.stage, forward.rnd, forward.r0, forward.r1, forward.tw)
    )
    return ScheduleTrace("intt", forward.N, forward.n, forward.npe, forward.layout_kind, *columns)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the RAW-freedom check for one configuration."""

    N: int
    n: int
    npe: int
    op_kind: str
    bound: int
    total_delay: int
    slack: int
    satisfied: bool


def check_raw_bound(
    n_total: int, npe: int, pipeline: PipelineConfig, op_kind: str = "ntt"
) -> BoundReport:
    """Stall-free iff total pipeline delay < (n/2) * (n / (2*Npe)).

    At full rate the second factor is 1. The bound is strict: a delay
    equal to it hits the tightest cross-stage distance in the schedule.
    """
    n = validate_geometry(n_total, npe)
    bound = (n // 2) * (n // (2 * npe))
    total = pipeline.total_delay(op_kind)
    return BoundReport(
        N=n_total,
        n=n,
        npe=npe,
        op_kind=op_kind,
        bound=bound,
        total_delay=total,
        slack=bound - total,
        satisfied=total < bound,
    )


@dataclass
class ScheduleStats:
    """Aggregate counters audited by the tests."""

    op_kind: str
    issue_cycles: int
    butterflies: int
    utilization: float
    cycles_per_stage: dict = field(default_factory=dict)
    rounds_per_stage: dict = field(default_factory=dict)
    reads_per_bank: List[int] = field(default_factory=list)
    writes_per_bank: List[int] = field(default_factory=list)


def trace_stats(trace: ScheduleTrace) -> ScheduleStats:
    n = trace.n
    slices = trace.stage_slices
    read_banks = np.bincount(trace.r0 // n, minlength=n) + np.bincount(
        trace.r1 // n, minlength=n
    )
    write_banks = (
        np.bincount(trace.r0 // n, minlength=n) if trace.op_kind == "mult" else read_banks
    )
    rows = len(trace.stage)
    return ScheduleStats(
        op_kind=trace.op_kind,
        issue_cycles=trace.issue_cycles,
        butterflies=rows,
        utilization=rows / (trace.npe * trace.issue_cycles),
        cycles_per_stage={s: (sl.stop - sl.start) // trace.npe for s, sl in slices},
        rounds_per_stage={s: len(np.unique(trace.rnd[sl])) for s, sl in slices},
        reads_per_bank=read_banks.tolist(),
        writes_per_bank=write_banks.tolist(),
    )


CSV_COLUMNS = [
    "cycle", "pe", "stage", "round",
    "r0_bank", "r0_addr", "r1_bank", "r1_addr",
    "w0_bank", "w0_addr", "w1_bank", "w1_addr", "tw_idx",
]

# rows are formatted a chunk at a time so the Python ints and the text
# held at once stay small for large N
_CSV_CHUNK_ROWS = 4096


def export_csv(trace: ScheduleTrace, stream: IO[str]) -> None:
    """One CSV row per trace row; a multiply's w1 and tw_idx are empty."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    row_no = np.arange(len(trace.stage), dtype=np.int32)
    b0, a0 = np.divmod(trace.r0, trace.n)
    b1, a1 = np.divmod(trace.r1, trace.n)
    columns = [row_no // trace.npe, row_no % trace.npe, trace.stage, trace.rnd,
               b0, a0, b1, a1, b0, a0]
    if trace.op_kind == "mult":
        row_format = ",".join(["%d"] * len(columns)) + ",,,\n"
    else:
        columns += [b1, a1, trace.tw]
        row_format = ",".join(["%d"] * len(columns)) + "\n"
    for lo in range(0, len(row_no), _CSV_CHUNK_ROWS):
        block = np.column_stack([c[lo:lo + _CSV_CHUNK_ROWS] for c in columns])
        stream.write(row_format * len(block) % tuple(block.ravel().tolist()))
