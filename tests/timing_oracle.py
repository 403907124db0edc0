"""Cycle-stepped timing oracle for the simulator's timing contract.

It reads nothing of nttsim but a ScheduleTrace's columns and a
PipelineConfig's delays. record_groups turns the columns into issue
groups of Records, one Python object per butterfly, and the oracle steps
through those; it shares no code with nttsim.sim, so the simulator's
single timing walk is checked against a second, differently built model:

- a clock advances one cycle at a time;
- every issued group pushes its writes onto a FIFO of in-flight writes,
  tagged with the cycle they complete; an entry leaves the FIFO once
  the clock has passed that cycle, and a cell with a write still in the
  FIFO cannot be read;
- a group whose operand is still in flight waits, one tick at a time,
  until none is;
- each bank has one read and one write port; port use is counted per
  bank over the group's issue slot, the first access of each port takes
  the slot's first cycle and every further access a cycle of its own;
- after the last group the pipeline drains, and the op ends on the
  cycle after its last write completes.

Events follow the contract's order within a group: RAW events in port
order (every record's r0, then every record's r1), then read conflicts,
then write conflicts, each in bank order. The oracle assumes no setup
cycles.
"""

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

Cell = Tuple[int, int]  # (bank, address)


class Record(NamedTuple):
    """One butterfly (or one modular multiply) issued in one cycle."""

    pe: int
    stage: int
    rnd: int
    r0: Cell
    r1: Cell
    w0: Cell
    w1: Optional[Cell]
    tw: int


def record_groups(trace) -> List[List[Record]]:
    """The trace as issue groups of Records, from its columns alone."""
    n, npe = trace.n, trace.npe
    b0, a0 = np.divmod(trace.r0, n)
    b1, a1 = np.divmod(trace.r1, n)
    rows = zip(
        (np.arange(len(trace.stage)) % npe).tolist(), trace.stage.tolist(),
        trace.rnd.tolist(), b0.tolist(), a0.tolist(), b1.tolist(), a1.tolist(),
        trace.tw.tolist(),
    )
    mult = trace.op_kind == "mult"
    recs = [
        Record(pe, s, r, (x0, y0), (x1, y1), (x0, y0), None if mult else (x1, y1), t)
        for pe, s, r, x0, y0, x1, y1, t in rows
    ]
    return [recs[i:i + npe] for i in range(0, len(recs), npe)]


@dataclass
class OracleTiming:
    events: list = field(default_factory=list)  # (kind, cycle, bank, addr, extra)
    stall_cycles: int = 0
    per_stage: dict = field(default_factory=dict)
    total_cycles: int = 0


def _ports(op_kind, group):
    """(reads, writes) of one issue group as (array, bank, addr) triples.

    The pointwise multiply reads its second operand from a second
    memory, b; every other access goes to the operand memory a.
    """
    second = "b" if op_kind == "mult" else "a"
    reads = [("a",) + rec.r0 for rec in group] + [(second,) + rec.r1 for rec in group]
    writes = [("a",) + rec.w0 for rec in group]
    writes += [("a",) + rec.w1 for rec in group if rec.w1 is not None]
    return reads, writes


def oracle_timing(trace, pipeline) -> OracleTiming:
    depth = (
        pipeline.delay_read + pipeline.delay_pe(trace.op_kind) + pipeline.delay_write
    )
    out = OracleTiming()
    in_flight = deque()  # (cycle the writes complete, cells written), issue order
    pending = Counter()  # cell -> writes to it still in flight
    clock = 0

    def tick():
        nonlocal clock
        clock += 1
        while in_flight and in_flight[0][0] < clock:
            pending.subtract(in_flight.popleft()[1])

    for group in record_groups(trace):
        reads, writes = _ports(trace.op_kind, group)
        attempt = clock
        blocked = [i for i, cell in enumerate(reads) if pending[cell]]
        readable_after = {}
        while len(readable_after) < len(blocked):
            tick()
            for i in blocked:
                if i not in readable_after and not pending[reads[i]]:
                    readable_after[i] = clock - attempt
        for i in blocked:
            _array, bank, addr = reads[i]
            out.events.append(("raw", attempt, bank, addr, readable_after[i]))
        out.stall_cycles += clock - attempt

        slot_cycles = 1
        for kind, accesses in (("read_conflict", reads), ("write_conflict", writes)):
            use = Counter((array, bank) for array, bank, _addr in accesses)
            for (_array, bank), count in sorted(use.items()):
                if count > 1:
                    out.events.append((kind, clock, bank, -1, count - 1))
                    slot_cycles += count - 1

        last_slot_cycle = clock + slot_cycles - 1
        written = Counter(writes)
        pending.update(written)
        in_flight.append((last_slot_cycle + depth, written))
        stage = group[0].stage
        out.per_stage[stage] = out.per_stage.get(stage, 0) + slot_cycles
        for _ in range(slot_cycles):
            tick()

    while in_flight:
        tick()
    out.total_cycles = clock
    return out
