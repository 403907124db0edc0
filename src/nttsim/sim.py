"""Cycle-accurate timing and numerics of access traces on banked memories.

Timing contract (walked by detect_hazards, the only code that times a
trace):

- Issue groups execute in trace order; the first issues at cycle
  ``setup_cycles``, which like every delay lies in [0, 2^32).
- A butterfly issued at cycle c retires its writes at c + D where
  D = delay_read + delay_pe + delay_write; the written cells become
  readable at c + D + 1 (a value cannot be read in the cycle its write
  completes).
- A group whose operand cell is not yet readable stalls issue (in-flight
  work keeps retiring) until it is; each waited cycle counts as a RAW
  stall and the event is recorded at the attempt cycle.
- Each bank serves one read and one write per cycle. Over-subscription
  is recorded as a conflict event and serializes: every extra access
  stretches the group's issue slot by one cycle. The shipped schedules
  never need this; it exists so the sequential-layout counterexample is
  observable.
- Total cycles for an op = setup + consumed issue slots + D, which
  collapses to the closed-form prediction exactly when nothing stalls.
- Events are ordered by issue group; within a group come RAW events in
  port order (every r0, then every r1), then read conflicts by
  (array, bank), then write conflicts by bank.

detect_hazards works on the trace's int32 columns with array operations:
port conflicts per group from sorted (array, bank) keys, and stall-free
issue cycles as setup plus an exclusive prefix sum of slot lengths.
Stalls only delay later groups, so only a read whose producer (the last
write to its cell in an earlier group) retires at or after the read's
stall-free issue cycle can stall. Retire cycles strictly increase, so a
stage's reads can find such a late producer in an earlier stage only in
the stage's first few groups, and only its last few groups can be one
for a later stage: a last-writer table over the cells, walked stage by
stage, looks up and records just those. The stall shift of each group is
a max-plus recurrence over those reads. A built schedule's producers lie
in earlier stages, so the same walk solves it as it goes, one running
maximum per stage; a stall-free trace has no late read at all.

run() builds each distinct trace once and walks its timing once, whatever
the number of RNS channels: polymul's two forward transforms share one
trace, so they share one report, and its intt trace is inverse_trace of
that forward trace, not a second build. It also replays each distinct
trace in one pass over its stages. The numerics do not depend on timing, because the machine
stalls rather than read a stale value: per stage, the trace's int32
cell and twiddle columns are converted to intp indices once, and every
memory that runs the trace (every RNS channel, and in polymul both a's
and b's) gathers with them, applies one batch butterfly and scatters
the results back. The replay multiplies twiddles with the hardware
Barrett kernel the modelled butterfly units run, and memories of one
modulus share the stage's gathered twiddles; the reference transforms
share the butterfly's add/sub body but multiply by Shoup's method on
their own precomputed tables, so the ntt and intt checks are
independent in the multiply. Each step checks every memory of one
channel with one reference call on the (rows, N) stack of their inputs:
polymul's forward step transforms a channel's a and b together. Moduli
are never stacked together. At N >= 2^16 a two-row stack spans two
cache blocks, and the reference transform shares it over the CPUs on
threads that end with the call, as it does any batch; below that, run()
starts no thread.
The mult step's reference and replay both run pointwise_mul_array, the
same hardware Barrett kernel, so its check covers only the gather and
scatter; the exhaustive modarith tests cover that kernel. run() refuses to
return a result that disagrees with the reference transform: such a
mismatch is a simulator bug, never expected to fire.
"""

import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from nttsim.layout import check_kind, make_layout
from nttsim.modarith import Modulus, barrett_mul_hw_into, half_mod_into
from nttsim.ntt import (
    Polynomial,
    cached_twiddles,
    ct_stage,
    gs_stage,
    intt_gs_array,
    ntt_ct_array,
    pointwise_mul_array,
)
from nttsim.rns import RnsBasis, RnsPolynomial, gen_basis
from nttsim.schedule import (
    MAX_CYCLES,
    PROFILES,
    PipelineConfig,
    ScheduleTrace,
    build_schedule,
    check_raw_bound,
    inverse_trace,
    validate_geometry,
)

# each op and the trace kinds it runs, in order; a mult step reads operand b
OP_STEPS = {"ntt": ("ntt",), "intt": ("intt",), "mult": ("mult",),
            "polymul": ("ntt", "ntt", "mult", "intt")}
OPS = tuple(OP_STEPS)


def op_steps(op: str) -> Tuple[str, ...]:
    """The trace kinds op runs, in order."""
    if op not in OP_STEPS:
        raise ValueError(f"unknown op {op!r}; expected one of {OPS}")
    return OP_STEPS[op]


class HazardEvent(NamedTuple):
    """One detected hazard: kind is raw / read_conflict / write_conflict.

    For RAW events (bank, addr) name the offending cell and extra the
    stall length; for port conflicts addr is -1 and extra the number of
    serialized extra accesses on that bank.
    """

    kind: str
    cycle: int
    bank: int
    addr: int
    extra: int


class SimHazardError(Exception):
    """Raised under the fail-fast policy at the first hazard."""

    def __init__(self, event: HazardEvent):
        super().__init__(
            f"{event.kind} hazard at cycle {event.cycle} "
            f"(bank {event.bank}, addr {event.addr})"
        )
        self.event = event


class SimMismatchError(Exception):
    """Simulated result disagrees with the reference transform."""


@dataclass
class HazardReport:
    """Timing analysis of one trace.

    utilization is the share of PE issue slots the walked groups used.
    """

    op_kind: str
    events: List[HazardEvent] = field(default_factory=list)
    stall_cycles: int = 0
    raw_count: int = 0
    read_conflicts: int = 0
    write_conflicts: int = 0
    issue_cycles: int = 0
    consumed_cycles: int = 0
    total_cycles: int = 0
    utilization: float = 0.0
    per_stage: dict = field(default_factory=dict)

    @property
    def bank_conflicts(self) -> int:
        return self.read_conflicts + self.write_conflicts


HAZARD_KINDS = ("raw", "read_conflict", "write_conflict")
HAZARD_POLICIES = ("stall", "fail-fast")


def _check_setup(setup_cycles: int) -> None:
    if setup_cycles < 0:
        raise ValueError(f"setup cycles must be nonnegative, got {setup_cycles}")
    if setup_cycles >= MAX_CYCLES:
        raise ValueError(f"setup cycles must be below 2^32, got {setup_cycles}")


def _check_policy(policy: str) -> None:
    if policy not in HAZARD_POLICIES:
        raise ValueError(f"unknown hazard policy {policy!r}; expected one of {HAZARD_POLICIES}")


def _port_runs(keys: np.ndarray):
    """Over-subscribed ports of each issue group.

    keys holds one row per group of port keys (array * n + bank). Returns
    the extra accesses per group, and one (group, key, extra) triple of
    arrays with an entry per over-subscribed port in (group, key) order.
    """
    ordered = np.sort(keys, axis=1)
    same = ordered[:, 1:] == ordered[:, :-1]
    if not same.any():
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(len(keys), dtype=np.int64), (empty, empty, empty)
    extra = same.sum(axis=1)
    edges = np.diff(np.pad(same, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    group, start = np.nonzero(edges == 1)
    _group, end = np.nonzero(edges == -1)
    return extra, (group, ordered[group, start], end - start)


def detect_hazards(
    trace: ScheduleTrace,
    pipeline: PipelineConfig,
    setup_cycles: int = 0,
    policy: str = "stall",
) -> HazardReport:
    """Time the trace under the module's timing contract.

    Under fail-fast the walk stops at the first hazard and reports only
    that event.
    """
    _check_policy(policy)
    _check_setup(setup_cycles)
    delay = pipeline.total_delay(trace.op_kind)
    n, npe, groups = trace.n, trace.npe, trace.issue_cycles
    report = HazardReport(op_kind=trace.op_kind, issue_cycles=groups)

    # one row per issue group: read cells in port order (every r0, then
    # every r1) and written cells; the multiply's second operand sits in
    # memory b, whose cells are offset by N
    r0 = trace.r0.reshape(groups, npe)
    if trace.op_kind == "mult":
        reads = np.hstack([r0, trace.r1.reshape(groups, npe) + trace.N])
        writes = r0
    else:
        reads = writes = np.hstack([r0, trace.r1.reshape(groups, npe)])
    bank_shift = n.bit_length() - 1  # a cell's bank is cell // n
    read_extra, read_runs = _port_runs(reads >> bank_shift)
    write_extra, write_runs = (
        (read_extra, read_runs) if writes is reads else _port_runs(writes >> bank_shift)
    )
    cost = 1 + read_extra + write_extra
    issue = np.cumsum(cost) - cost + setup_cycles  # stall-free issue cycles
    retire = issue + cost - 1 + delay

    read_cells = reads.ravel()
    ports = reads.shape[1]
    candidates, groups_of, due, shift = _late_reads(trace, reads, writes, issue, retire)

    walked = groups  # groups issued; fail-fast stops at the first hazard
    if policy == "fail-fast":
        conflicted = np.flatnonzero(cost > 1)
        walked = min(
            int(groups_of[0]) if len(candidates) else groups,
            int(conflicted[0]) if len(conflicted) else groups,
        )
        if walked < groups:
            # nothing stalls before the first hazard, and a group's operands
            # are checked before its ports: keep the stopping group's RAW
            # hazards or, if it has none, its port conflicts
            keep = groups_of == walked
            candidates, groups_of, due = (
                column[keep] for column in (candidates, groups_of, due)
            )
            at = -1 if len(candidates) else walked
            read_runs, write_runs = (
                tuple(column[runs[0] == at] for column in runs)
                for runs in (read_runs, write_runs)
            )

    # a read is attempted when the group before it issued, shift[g - 1]
    # after g's stall-free cycle (g is never group 0, which has no producer)
    waits = due - shift[groups_of - 1]
    hit = waits > 0
    raw = (candidates[hit], issue[groups_of[hit]] + shift[groups_of[hit] - 1], waits[hit])
    report.raw_count = len(raw[0])
    report.read_conflicts = len(read_runs[0])
    report.write_conflicts = len(write_runs[0])
    report.per_stage = _per_stage(trace, cost[:walked])
    if walked < groups:
        report.consumed_cycles = int(issue[walked]) - setup_cycles
    else:
        report.stall_cycles = int(shift[-1])
        report.consumed_cycles = int(issue[-1] + cost[-1]) + report.stall_cycles - setup_cycles
    report.total_cycles = setup_cycles + report.consumed_cycles + delay
    if walked:
        report.utilization = walked / report.consumed_cycles

    issue += shift
    report.events = _events(read_cells, ports, n, issue, raw, read_runs, write_runs)
    if walked < groups:
        report.events = report.events[:1]
    return report


def _late_reads(trace: ScheduleTrace, reads, writes, issue, retire):
    """Each read that may wait on its producer (the last write to its cell
    in an earlier group), as arrays in read order: its index among all read
    ports, its group g and its due cycle (when its cell becomes readable,
    counted from g's stall-free issue cycle); then each group's stall shift
    (it issues that much after its stall-free cycle).

    retire strictly increases, so producer p is late for group g (retires
    at or after g's stall-free issue cycle) exactly when p >= first[g], and
    first never decreases. A table holds each cell's last writer. A run is
    a stage [lo, hi) where no cell is read twice, else one group of it (no
    built schedule has such a stage). Only the run's groups with
    first[g] < lo read the table, and only groups from first[hi] on enter
    it: an older writer cannot be late for any later read, and neither can
    an older entry it leaves in the table. A run's producers lie in earlier
    runs, whose shifts are known, so the run's shifts are one running
    maximum: shift[g] = max(shift[g - 1], the due cycles of g's late reads).
    """
    groups, ports = reads.shape
    first = np.searchsorted(retire, issue)
    last = np.full(2 * trace.N, -1)  # memory b, cells N to 2N, is never written
    shift = np.zeros(groups + 1, dtype=np.int64)  # shift[-1] = 0 comes before group 0
    found = [np.zeros((3, 0), dtype=np.int64)]
    for _stage, rows in trace.stage_slices:
        lo, hi = rows.start // trace.npe, rows.stop // trace.npe
        twice = np.bincount(reads[lo:hi].ravel()).max() > 1
        runs = [(g, g + 1) for g in range(lo, hi)] if twice else [(lo, hi)]
        for lo, hi in runs:
            shift[lo:hi] = shift[lo - 1]
            stop = min(hi, int(first.searchsorted(lo)))
            producer = last[reads[lo:stop]]
            group, port = np.nonzero(producer >= first[lo:stop, None])
            if len(group):
                producer, group = producer[group, port], group + lo
                due = retire[producer] + shift[producer] + 1 - issue[group]
                np.maximum.at(shift, group, due)
                np.maximum.accumulate(shift[lo:hi], out=shift[lo:hi])
                found.append([group * ports + port, group, due])
            if hi < groups:
                start = max(lo, int(first[hi]))
                last[writes[start:hi]] = np.arange(start, hi)[:, None]
    return (*np.hstack(found), shift[:groups])


def _per_stage(trace: ScheduleTrace, cost: np.ndarray) -> dict:
    """Issue cycles each stage's groups take, for the groups in cost."""
    per_stage = {}
    for stage, rows in trace.stage_slices:
        first = rows.start // trace.npe
        if first >= len(cost):
            break
        per_stage[stage] = int(cost[first:rows.stop // trace.npe].sum())
    return per_stage


def _events(read_cells, ports, n, issue, raw, read_runs, write_runs) -> List[HazardEvent]:
    """Merge RAW and port-conflict events into the contract's order: by
    group; within one, RAW in port order, then read and write conflicts
    in (array, bank) order."""
    raw_reads, raw_cycles, raw_waits = raw
    if not (len(raw_reads) or len(read_runs[0]) or len(write_runs[0])):
        return []
    cells = read_cells[raw_reads]
    parts = [(raw_reads // ports, raw_cycles, cells // n, cells % n, raw_waits)]
    for group, key, extra in (read_runs, write_runs):
        parts.append((group, issue[group], key % n, np.full(len(group), -1), extra))
    # rows: kind, group, cycle, bank, addr, extra
    table = np.concatenate([
        np.array([np.full(len(part[0]), kind), *part], dtype=np.int64)
        for kind, part in enumerate(parts)
    ], axis=1)
    order = np.argsort(table[1] * len(HAZARD_KINDS) + table[0], kind="stable")
    kinds, _groups, *fields = table[:, order].tolist()
    return list(map(HazardEvent._make, zip([HAZARD_KINDS[kind] for kind in kinds], *fields)))


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation needs besides the operand polynomials."""

    N: int
    npe: int
    moduli: Tuple[Modulus, ...]
    pipeline: PipelineConfig
    setup_cycles: int = 0
    hazard_policy: str = "stall"
    layout_kind: str = "shifted"
    profile_name: str = "custom"

    def describe(self) -> dict:
        return {
            "N": self.N,
            "npe": self.npe,
            "moduli": [m.q for m in self.moduli],
            "pipeline": asdict(self.pipeline),
            "setup_cycles": self.setup_cycles,
            "hazard_policy": self.hazard_policy,
            "layout": self.layout_kind,
            "profile": self.profile_name,
        }


def make_sim_config(
    n_total: int,
    npe: int,
    q_bits: Optional[int] = None,
    n_q: int = 1,
    moduli: Optional[Sequence[Modulus]] = None,
    profile: Union[str, PipelineConfig] = "q32",
    setup_cycles: int = 0,
    hazard_policy: str = "stall",
    layout_kind: str = "shifted",
) -> SimConfig:
    """Check every input, then build the config. The moduli are either given,
    and checked by RnsBasis.from_moduli, or drawn by gen_basis(q_bits, n_q),
    not both; building run()'s twiddle tables refuses a q that is not 1 mod 2N."""
    validate_geometry(n_total, npe)
    check_kind(layout_kind)
    _check_policy(hazard_policy)
    _check_setup(setup_cycles)
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; expected {list(PROFILES)}")
        pipeline, name = PROFILES[profile], profile
    else:
        pipeline, name = profile, "custom"
    if moduli is None:
        if q_bits is None:
            raise ValueError("either q_bits or explicit moduli are required")
        moduli = gen_basis(q_bits, n_q, n_total).moduli
    elif q_bits is not None or n_q != 1:
        raise ValueError("explicit moduli take no q_bits or n_q")
    else:
        moduli = RnsBasis.from_moduli(moduli).moduli
    for mod in moduli:
        cached_twiddles(mod, n_total)
    return SimConfig(
        N=n_total,
        npe=npe,
        moduli=moduli,
        pipeline=pipeline,
        setup_cycles=setup_cycles,
        hazard_policy=hazard_policy,
        layout_kind=layout_kind,
        profile_name=name,
    )


def predicted_cycles(
    n_total: int,
    npe: int,
    pipeline: PipelineConfig,
    setup_cycles: int,
    op: str,
) -> int:
    """Closed-form cycle count: per step, issue term plus fixed overhead.

    (N log2 N) / (2 Npe) for the transforms, N / Npe for the pointwise
    pass. Refused when the RAW bound is violated, because stalls make
    the closed form invalid.
    """
    validate_geometry(n_total, npe)
    _check_setup(setup_cycles)
    total = 0
    for kind in op_steps(op):
        issue = n_total // npe
        if kind != "mult":
            bound = check_raw_bound(n_total, npe, pipeline, op_kind=kind)
            if not bound.satisfied:
                raise ValueError(
                    f"RAW bound violated (delay {bound.total_delay} >= "
                    f"bound {bound.bound}); the closed form does not apply"
                )
            issue = issue * (n_total.bit_length() - 1) // 2
        total += issue + pipeline.total_delay(kind) + setup_cycles
    return total


@dataclass
class SimReport:
    """Counters, hazard findings and numerical results of one run."""

    op: str
    config: SimConfig
    reports: List[HazardReport]
    results: List[List[int]]
    predicted: Optional[int]

    @property
    def total_cycles(self) -> int:
        return sum(r.total_cycles for r in self.reports)

    @property
    def stall_cycles(self) -> int:
        return sum(r.stall_cycles for r in self.reports)

    @property
    def bank_conflict_count(self) -> int:
        return sum(r.bank_conflicts for r in self.reports)

    @property
    def utilization(self) -> float:
        npe = self.config.npe
        busy = sum(r.utilization * npe * r.consumed_cycles for r in self.reports)
        return busy / (npe * sum(r.consumed_cycles for r in self.reports))

    @property
    def matches_predicted(self) -> Optional[bool]:
        return None if self.predicted is None else self.total_cycles == self.predicted

    def to_json(self) -> str:
        payload = {
            "op": self.op,
            "N": self.config.N,
            "n_pe": self.config.npe,
            "profile": self.config.profile_name,
            "total_cycles": self.total_cycles,
            "per_stage": [
                {
                    "op": rep.op_kind,
                    "cycles": [
                        {"stage": s, "cycles": c}
                        for s, c in sorted(rep.per_stage.items())
                    ],
                    "total_cycles": rep.total_cycles,
                }
                for rep in self.reports
            ],
            "stalls": self.stall_cycles,
            "conflicts": self.bank_conflict_count,
            "utilization": self.utilization,
            "predicted": self.predicted,
            "matches_predicted": self.matches_predicted,
            "config": self.config.describe(),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _replay_numerics(trace: ScheduleTrace, memories) -> None:
    """Apply the trace's butterflies (or products) in place to every memory
    in memories, (mem, other, mod) triples with other the mult step's
    operand b, in one pass over the stages: each stage's columns are cast
    to intp once, every memory gathers and scatters with those indices,
    and memories of one modulus share its gathered twiddles."""
    stages = [rows for _stage, rows in trace.stage_slices]
    if trace.op_kind == "mult":
        for rows in stages:
            r0, r1 = trace.r0[rows].astype(np.intp), trace.r1[rows].astype(np.intp)
            for mem, other, mod in memories:
                mem[r0] = pointwise_mul_array(mem[r0], other[r1], mod)
        return
    if trace.op_kind == "ntt":
        butterfly, mul, table = ct_stage, barrett_mul_hw_into, "forward"
    else:
        butterfly, mul, table = gs_stage, _barrett_half_into, "inverse"
    tables = {mod.q: getattr(cached_twiddles(mod, trace.N), table) for *_, mod in memories}
    scratch = np.empty((2, trace.N // 2), np.uint64)
    for rows in stages:
        r0, r1, w = (column[rows].astype(np.intp) for column in (trace.r0, trace.r1, trace.tw))
        s1, s2 = scratch[:, :len(r0)]
        twiddles = {q: table[w] for q, table in tables.items()}
        for mem, _other, mod in memories:
            u, v = mem[r0], mem[r1]
            butterfly(u, v, mul, (twiddles[mod.q],), mod, s1, s2)
            mem[r0], mem[r1] = u, v


def _barrett_half_into(x, w, mod: Modulus, out, tmp) -> None:
    """out = w*x/2 mod q: the hardware multiply, then the halving of the
    inverse butterfly's second leg."""
    barrett_mul_hw_into(x, w, mod, out, tmp)
    half_mod_into(out, mod.q, tmp)


def _reference(op_kind, mod, a_coeffs, b_coeffs):
    """The reference result of one step over the last axis of a_coeffs (and
    of b_coeffs for a mult), a stack of polynomials of modulus mod."""
    tw = cached_twiddles(mod, a_coeffs.shape[-1])
    if op_kind == "ntt":
        return ntt_ct_array(a_coeffs, tw)
    if op_kind == "intt":
        return intt_gs_array(a_coeffs, tw)
    return pointwise_mul_array(a_coeffs, b_coeffs, tw.mod)


def _channels(value, moduli, n_total, what):
    if value is None:
        return None
    if isinstance(value, RnsPolynomial):
        polys = list(value.residue_polys)
    elif isinstance(value, Polynomial):
        polys = [value]
    else:
        raise ValueError(f"{what} must be a Polynomial or RnsPolynomial")
    if len(polys) != len(moduli):
        raise ValueError(
            f"{what} has {len(polys)} channels but the config has {len(moduli)} moduli"
        )
    for poly, mod in zip(polys, moduli):
        if poly.mod.q != mod.q:
            raise ValueError(f"{what} channel modulus {poly.mod.q} != config {mod.q}")
        if poly.n != n_total:
            raise ValueError(f"{what} length {poly.n} != configured N {n_total}")
    return [p.coeffs for p in polys]


def run(
    config: SimConfig,
    a: Union[Polynomial, RnsPolynomial],
    b: Union[Polynomial, RnsPolynomial, None] = None,
    op: str = "ntt",
) -> SimReport:
    """Time, replay and verify one op, step by step as OP_STEPS lists it.

    Only a mult step reads b; an op without one refuses b rather than
    ignore it. Consecutive steps of one kind share a trace: detect_hazards
    times it once for all RNS channels, so polymul's two forward
    transforms append the same report, and under fail-fast its first
    event is raised before any replay. Each channel has its own banked
    memory per operand, and one _replay_numerics pass runs the trace on
    all of them. run() builds the ntt and mult traces and derives the
    intt trace from the ntt one with inverse_trace. Every step's output
    must equal, per memory, the reference transform of the input it read
    from that memory, stalls or not; the reference runs once per step and
    channel, on the stack of that channel's memories (a two-row stack at
    N >= 2^16 runs on threads, as the module docstring says). The first
    mismatch named is a's channels in order, then b's.
    """
    sequence = op_steps(op)
    a_chan = _channels(a, config.moduli, config.N, "a")
    b_chan = _channels(b, config.moduli, config.N, "b")
    if ("mult" in sequence) != (b_chan is not None):
        need = "needs a" if b_chan is None else "takes no"
        raise ValueError(f"op {op!r} {need} second operand")

    # cells[i] is the flat memory cell (bank * n + addr) holding coefficient i
    cells = make_layout(config.N, config.layout_kind).cells(np.arange(config.N))
    held = np.empty(config.N, np.intp)  # the coefficient each cell holds
    held[cells] = np.arange(config.N)
    mem_a = [coeffs[held] for coeffs in a_chan]
    mem_b = [coeffs[held] for coeffs in b_chan or []]

    nq = len(config.moduli)
    reports: List[HazardReport] = []
    forward = None
    for kind, steps in itertools.groupby(range(len(sequence)), key=sequence.__getitem__):
        steps = list(steps)
        if kind == "intt" and forward is not None:
            trace, forward = inverse_trace(forward), None  # forward's last use
        else:
            trace = build_schedule(config.N, config.npe, kind, config.layout_kind)
        if kind == "ntt":
            forward = trace
        # chained ops start only after the previous one fully retires, so
        # equal traces time equally
        timing = detect_hazards(
            trace, config.pipeline, config.setup_cycles, config.hazard_policy
        )
        if config.hazard_policy == "fail-fast" and timing.events:
            raise SimHazardError(timing.events[0])
        # (mem, other, mod) per memory that runs the trace: a's channels,
        # then, in polymul's second forward transform, b's; memory i is on
        # channel i % nq
        memories = [
            ((mem_b if op == "polymul" and step == 1 else mem_a)[ch],
             mem_b[ch] if kind == "mult" else None, mod)
            for step in steps
            for ch, mod in enumerate(config.moduli)
        ]
        # one reference call per channel (each has its own modulus), on the
        # stack of its memories' inputs
        expect = [None] * len(memories)
        for ch, mod in enumerate(config.moduli):
            mine = memories[ch::nq]
            inputs = np.stack([mem[cells] for mem, _other, _mod in mine])
            others = None if kind != "mult" else np.stack([other[cells] for _, other, _ in mine])
            expect[ch::nq] = _reference(kind, mod, inputs, others)
        _replay_numerics(trace, memories)
        for (mem, _other, mod), want in zip(memories, expect):
            if not np.array_equal(mem[cells], want):
                raise SimMismatchError(
                    f"{kind} result mismatch on channel {config.moduli.index(mod)} (q={mod.q})"
                )
        reports += [timing] * len(steps)

    try:
        predicted = predicted_cycles(
            config.N, config.npe, config.pipeline, config.setup_cycles, op
        )
    except ValueError:
        predicted = None
    return SimReport(
        op=op,
        config=config,
        reports=reports,
        results=[mem[cells].tolist() for mem in mem_a],
        predicted=predicted,
    )
