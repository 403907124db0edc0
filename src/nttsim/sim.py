"""Cycle-accurate timing and numerics of access traces on banked memories.

Timing contract (walked by detect_hazards, the only code that times a
trace):

- Issue groups execute in trace order; the first issues at cycle
  ``setup_cycles``.
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

run() walks each op's timing once, whatever the number of RNS channels.
Its numerics do not depend on timing, because the machine stalls rather
than read a stale value: each stage gathers the cells and twiddle
indices named by the trace's own records, applies one batch butterfly
per channel and scatters the results back. run() refuses to return a
result that disagrees with the reference transform: such a mismatch is
a simulator bug, never expected to fire.
"""

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from nttsim.layout import make_layout
from nttsim.modarith import Modulus, ntt_modulus
from nttsim.ntt import (
    Polynomial,
    cached_twiddles,
    ct_stage,
    gs_stage,
    intt_gs_array,
    ntt_ct_array,
    pointwise_mul_array,
)
from nttsim.rns import RnsPolynomial
from nttsim.schedule import (
    PROFILES,
    PipelineConfig,
    ScheduleTrace,
    build_schedule,
    check_raw_bound,
    validate_geometry,
)

POLYMUL_SEQUENCE = ("ntt", "ntt", "mult", "intt")


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
        self.kind = event.kind
        self.cycle = event.cycle
        self.bank = event.bank
        self.addr = event.addr


class SimMismatchError(Exception):
    """Simulated result disagrees with the reference transform."""


@dataclass
class HazardReport:
    """Static timing analysis of one trace."""

    op_kind: str
    events: List[HazardEvent] = field(default_factory=list)
    stall_cycles: int = 0
    raw_count: int = 0
    read_conflicts: int = 0
    write_conflicts: int = 0
    issue_cycles: int = 0
    consumed_cycles: int = 0
    total_cycles: int = 0
    per_stage: dict = field(default_factory=dict)


def _group_ports(trace_kind: str, group):
    """(array, bank) access lists for one issue group."""
    if trace_kind == "mult":
        reads = [("a", rec.r0) for rec in group] + [("b", rec.r1) for rec in group]
        writes = [("a", rec.w0) for rec in group]
    else:
        reads = [("a", rec.r0) for rec in group] + [("a", rec.r1) for rec in group]
        writes = [("a", rec.w0) for rec in group] + [("a", rec.w1) for rec in group]
    return reads, writes


def _port_conflicts(accesses, cycle, kind, events):
    """Count over-subscribed banks; one event per (bank, cycle)."""
    counts = {}
    for array, (bank, _addr) in accesses:
        counts[(array, bank)] = counts.get((array, bank), 0) + 1
    extra = 0
    for (_array, bank), c in sorted(counts.items()):
        if c > 1:
            events.append(HazardEvent(kind, cycle, bank, -1, c - 1))
            extra += c - 1
    return extra


def detect_hazards(
    trace: ScheduleTrace,
    pipeline: PipelineConfig,
    setup_cycles: int = 0,
    policy: str = "stall",
) -> HazardReport:
    """Walk the trace's timing under the module's timing contract.

    Maintains per-cell readiness timestamps and per-cycle port budgets.
    Under fail-fast the walk stops at the first hazard and reports only
    that event.
    """
    delay = pipeline.total_delay(trace.op_kind)
    report = HazardReport(op_kind=trace.op_kind, issue_cycles=trace.issue_cycles)
    land: dict = {}
    cycle = setup_cycles
    for group in trace.cycles:
        reads, writes = _group_ports(trace.op_kind, group)
        ready = cycle
        for key in reads:
            cell_land = land.get(key, -1)
            if cell_land >= cycle:
                report.events.append(
                    HazardEvent("raw", cycle, key[1][0], key[1][1], cell_land + 1 - cycle)
                )
                report.raw_count += 1
                ready = max(ready, cell_land + 1)
        if ready > cycle:
            if policy == "fail-fast":
                report.events = report.events[:1]
                break
            report.stall_cycles += ready - cycle
            cycle = ready
        n_events = len(report.events)
        extra = _port_conflicts(reads, cycle, "read_conflict", report.events)
        report.read_conflicts += len(report.events) - n_events
        n_events = len(report.events)
        extra += _port_conflicts(writes, cycle, "write_conflict", report.events)
        report.write_conflicts += len(report.events) - n_events
        if (report.read_conflicts or report.write_conflicts) and policy == "fail-fast":
            report.events = report.events[:1]
            break
        cost = 1 + extra
        retire = cycle + cost - 1 + delay
        for key in writes:
            land[key] = retire
        stage = group[0].stage
        report.per_stage[stage] = report.per_stage.get(stage, 0) + cost
        cycle += cost
    report.consumed_cycles = cycle - setup_cycles
    report.total_cycles = setup_cycles + report.consumed_cycles + delay
    return report


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
            "pipeline": {
                "delay_read": self.pipeline.delay_read,
                "delay_write": self.pipeline.delay_write,
                "delay_pe_ntt": self.pipeline.delay_pe_ntt,
                "delay_pe_mult": self.pipeline.delay_pe_mult,
            },
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
    validate_geometry(n_total, npe)
    if hazard_policy not in ("stall", "fail-fast"):
        raise ValueError(f"unknown hazard policy {hazard_policy!r}")
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; expected {list(PROFILES)}")
        pipeline, name = PROFILES[profile], profile
    else:
        pipeline, name = profile, "custom"
    if moduli is None:
        if q_bits is None:
            raise ValueError("either q_bits or explicit moduli are required")
        moduli = [ntt_modulus(q_bits, n_total, i) for i in range(n_q)]
    moduli = tuple(m.with_root() for m in moduli)
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
    """Closed-form cycle count: issue term plus fixed overhead.

    (N log2 N) / (2 Npe) for the transforms, N / Npe for the pointwise
    pass. Refused when the RAW bound is violated, because stalls make
    the closed form invalid.
    """
    validate_geometry(n_total, npe)
    if op == "polymul":
        return sum(
            predicted_cycles(n_total, npe, pipeline, setup_cycles, kind)
            for kind in POLYMUL_SEQUENCE
        )
    if op in ("ntt", "intt"):
        bound = check_raw_bound(n_total, npe, pipeline, op_kind=op)
        if not bound.satisfied:
            raise ValueError(
                f"RAW bound violated (delay {bound.total_delay} >= "
                f"bound {bound.bound}); the closed form does not apply"
            )
        k = n_total.bit_length() - 1
        issue = n_total * k // (2 * npe)
    elif op == "mult":
        issue = n_total // npe
    else:
        raise ValueError(f"unknown op {op!r}")
    return issue + pipeline.total_delay(op) + setup_cycles


@dataclass
class OpReport:
    """Counters for one replayed operation."""

    op_kind: str
    issue_cycles: int
    consumed_cycles: int
    total_cycles: int
    stall_cycles: int
    raw_count: int
    bank_conflicts: int
    utilization: float
    per_stage: dict
    events: List[HazardEvent]


@dataclass
class SimReport:
    """Counters, hazard findings and numerical results of one run."""

    op: str
    config: SimConfig
    reports: List[OpReport]
    results: List[List[int]]
    total_cycles: int
    stall_cycles: int
    bank_conflict_count: int
    utilization: float
    predicted: Optional[int]
    matches_predicted: Optional[bool]

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


def _stage_cells(trace: ScheduleTrace):
    """Per stage, in trace order: the flat cells (bank * n + addr) of each
    record's r0 and r1 operands, and its twiddle index."""
    n = trace.n
    count = sum(map(len, trace.cycles))
    stage, r0, r1, tw = np.fromiter(
        chain.from_iterable(
            (rec.stage, rec.r0[0] * n + rec.r0[1], rec.r1[0] * n + rec.r1[1], rec.tw)
            for rec in chain.from_iterable(trace.cycles)
        ),
        dtype=np.int32,
        count=4 * count,
    ).reshape(count, 4).T
    bounds = np.flatnonzero(np.diff(stage)) + 1
    return list(zip(*(np.split(column, bounds) for column in (r0, r1, tw))))


def _replay_numerics(kind, stages, mem, other, mod: Modulus) -> None:
    """Apply one op's butterflies (or products) stage by stage, in place."""
    if kind == "mult":
        for r0, r1, _tw in stages:
            mem[r0] = pointwise_mul_array(mem[r0], other[r1], mod)
        return
    tw = cached_twiddles(mod, len(mem))
    table, butterfly = (tw.forward, ct_stage) if kind == "ntt" else (tw.inverse, gs_stage)
    for r0, r1, w in stages:
        mem[r0], mem[r1] = butterfly(mem[r0], mem[r1], table[w], mod)


def _reference(op_kind, mod, a_coeffs, b_coeffs):
    tw = cached_twiddles(mod, len(a_coeffs))
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
    return [np.asarray(poly.coeffs, dtype=np.uint64) for poly in polys]


def run(
    config: SimConfig,
    a: Union[Polynomial, RnsPolynomial],
    b: Union[Polynomial, RnsPolynomial, None] = None,
    op: str = "ntt",
) -> SimReport:
    """Time, replay and verify one operation (or the polymul sequence).

    detect_hazards times each op once for all RNS channels; under
    fail-fast its first event is raised. Each channel then replays the
    trace's numerics in its own banked memory, and the final contents
    must equal the reference transform's output, stalls or not.
    """
    if op not in ("ntt", "intt", "mult", "polymul"):
        raise ValueError(f"unknown op {op!r}")
    a_chan = _channels(a, config.moduli, config.N, "a")
    b_chan = _channels(b, config.moduli, config.N, "b")
    if op in ("mult", "polymul") and b_chan is None:
        raise ValueError(f"op {op!r} needs a second operand")

    sequence = POLYMUL_SEQUENCE if op == "polymul" else (op,)
    layout = make_layout(config.N, config.layout_kind)
    index = np.arange(config.N)
    # cells[i] is the flat memory cell (bank * n + addr) holding coefficient i
    cells = layout.banks_of(index) * layout.n + layout.addresses_of(index)
    held = np.argsort(cells)  # the coefficient each cell holds
    state = {"a": a_chan, "b": b_chan or []}
    mems = {name: [coeffs[held] for coeffs in chans] for name, chans in state.items()}

    op_reports: List[OpReport] = []
    trace = None
    for step, kind in enumerate(sequence):
        if trace is None or trace.op_kind != kind:
            trace = build_schedule(config.N, config.npe, kind, config.layout_kind)
            stages = _stage_cells(trace)
        # chained ops start only after the previous one fully retires
        timing = detect_hazards(
            trace, config.pipeline, config.setup_cycles, config.hazard_policy
        )
        if config.hazard_policy == "fail-fast" and timing.events:
            raise SimHazardError(timing.events[0])
        # in the polymul sequence the second forward transform runs on b
        target = "b" if op == "polymul" and step == 1 else "a"
        for ch, mod in enumerate(config.moduli):
            mem = mems[target][ch]
            other = mems["b"][ch] if kind == "mult" else None
            _replay_numerics(kind, stages, mem, other, mod)
            expect = _reference(
                kind, mod, state[target][ch],
                state["b"][ch] if kind == "mult" else None,
            )
            state[target][ch] = expect
            if not np.array_equal(mem[cells], expect):
                raise SimMismatchError(
                    f"{kind} result mismatch on channel {ch} (q={mod.q})"
                )
        butterflies = sum(len(g) for g in trace.cycles)
        op_reports.append(
            OpReport(
                op_kind=kind,
                issue_cycles=timing.issue_cycles,
                consumed_cycles=timing.consumed_cycles,
                total_cycles=timing.total_cycles,
                stall_cycles=timing.stall_cycles,
                raw_count=timing.raw_count,
                bank_conflicts=timing.read_conflicts + timing.write_conflicts,
                utilization=butterflies / (config.npe * timing.consumed_cycles),
                per_stage=timing.per_stage,
                events=timing.events,
            )
        )

    results = [chan.tolist() for chan in state["a"]]
    try:
        predicted = predicted_cycles(
            config.N, config.npe, config.pipeline, config.setup_cycles, op
        )
    except ValueError:
        predicted = None
    total = sum(r.total_cycles for r in op_reports)
    stalls = sum(r.stall_cycles for r in op_reports)
    conflicts = sum(r.bank_conflicts for r in op_reports)
    consumed = sum(r.consumed_cycles for r in op_reports)
    butterflies_total = sum(
        rep.utilization * config.npe * rep.consumed_cycles for rep in op_reports
    )
    return SimReport(
        op=op,
        config=config,
        reports=op_reports,
        results=results,
        total_cycles=total,
        stall_cycles=stalls,
        bank_conflict_count=conflicts,
        utilization=butterflies_total / (config.npe * consumed),
        predicted=predicted,
        matches_predicted=None if predicted is None else total == predicted,
    )
