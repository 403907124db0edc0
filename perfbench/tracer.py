"""In-memory span tracer that wraps nttsim's cross-module calls from outside.

Each target is a function one nttsim module calls in another (or that the
benchmark calls), looked up by module attribute at call time, so
replacing the attribute puts a timer around every such call. Nothing
under src/ changes.

"span" targets keep one record per call: (id, name, start_ns, end_ns,
parent_id, op_id, self_ns, attrs). "leaf" targets are the hot scalar
kernels, called once per butterfly; they only add to per-name totals, so
tracing a large run does not keep millions of records. Self time is a
call's duration minus the time its traced children took.
"""

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


def _array_attrs(args, result) -> dict:
    values, tw = args[0], args[1]
    shape = np.shape(values)
    return {"N": int(shape[-1]), "batch": int(np.prod(shape[:-1], dtype=np.int64)), "k": tw.mod.k}


def _elems(args, result) -> dict:
    return {"elems": int(np.size(result))}


def _schedule_attrs(args, result) -> dict:
    return {
        "key": [result.N, result.npe, result.op_kind, result.layout_kind],
        "records": sum(map(len, result.cycles)),
    }


def _run_attrs(args, result) -> dict:
    return {"steps": len(result.reports), "op": result.op, "cycles": result.total_cycles}


def _coeff_count(args, result) -> dict:
    first = args[0]
    return {"coeffs": len(first) if isinstance(first, (list, tuple)) else first.n}


# (module, attribute path, span name, mode, attribute function)
TARGETS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("nttsim.sim", "run", "sim.run", "span", _run_attrs),
    ("nttsim.cli", "run", "sim.run", "span", _run_attrs),
    ("nttsim.sim", "_replay_channel", "sim.walk", "span", None),
    ("nttsim.sim", "detect_hazards", "sim.detect_hazards", "span", None),
    ("nttsim.sim", "build_schedule", "schedule.build", "span", _schedule_attrs),
    ("nttsim.cli", "build_schedule", "schedule.build", "span", _schedule_attrs),
    ("nttsim.cli", "export_csv", "schedule.export_csv", "span", None),
    ("nttsim.sim", "make_layout", "layout.make_layout", "span", None),
    ("nttsim.schedule", "make_layout", "layout.make_layout", "span", None),
    ("nttsim.layout", "verify_conflict_free", "layout.verify_conflict_free", "span", None),
    ("nttsim.cli", "verify_conflict_free", "layout.verify_conflict_free", "span", None),
    ("nttsim.layout", "LayoutMap.place", "layout.place", "leaf", None),
    ("nttsim.sim", "ntt_ct_array", "ntt.forward", "span", _array_attrs),
    ("nttsim.ntt", "ntt_ct_array", "ntt.forward", "span", _array_attrs),
    ("nttsim.sim", "intt_gs_array", "ntt.inverse", "span", _array_attrs),
    ("nttsim.ntt", "intt_gs_array", "ntt.inverse", "span", _array_attrs),
    ("nttsim.sim", "pointwise_mul_array", "ntt.pointwise", "span", _elems),
    ("nttsim.ntt", "pointwise_mul_array", "ntt.pointwise", "span", _elems),
    ("nttsim.ntt", "polymul_ntt_array", "ntt.polymul_array", "span", None),
    ("nttsim.rns", "polymul_ntt", "ntt.polymul", "span", None),
    ("nttsim.cli", "polymul_ntt", "ntt.polymul", "span", None),
    ("nttsim.sim", "ct_butterfly", "ntt.ct_butterfly", "leaf", None),
    ("nttsim.sim", "gs_butterfly", "ntt.gs_butterfly", "leaf", None),
    ("nttsim.ntt", "ct_butterfly", "ntt.ct_butterfly", "leaf", None),
    ("nttsim.ntt", "gs_butterfly", "ntt.gs_butterfly", "leaf", None),
    ("nttsim.ntt", "barrett_mul_hw", "modarith.barrett_mul_hw", "leaf", None),
    ("nttsim.sim", "barrett_mul_hw", "modarith.barrett_mul_hw", "leaf", None),
    ("nttsim.ntt", "half_mod", "modarith.half_mod", "leaf", None),
    ("nttsim.ntt", "barrett_mul_hw_batch", "modarith.barrett_mul_hw_batch", "span", _elems),
    ("nttsim.ntt", "half_mod_batch", "modarith.half_mod_batch", "span", _elems),
    ("nttsim.rns", "decompose", "rns.decompose", "span", _coeff_count),
    ("nttsim.cli", "decompose", "rns.decompose", "span", _coeff_count),
    ("nttsim.rns", "reconstruct", "rns.reconstruct", "span", _coeff_count),
    ("nttsim.rns", "rns_polymul", "rns.rns_polymul", "span", None),
    ("nttsim.cli", "main", "cli.main", "span", None),
]

SCALAR_KERNELS = ("modarith.barrett_mul_hw", "modarith.half_mod")
BATCH_KERNELS = ("modarith.barrett_mul_hw_batch", "modarith.half_mod_batch")


class Tracer:
    """Holds spans and per-name totals until the run writes them out."""

    def __init__(self):
        self.spans: List[tuple] = []
        # name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.op_id = -1
        self._stack: List[list] = []
        self._next_id = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn, record: bool, attrs: Optional[Callable]):
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter_ns

        if not record:
            def leaf(*args, **kwargs):
                frame = [0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    t = totals[name]
                    t[0] += 1
                    t[1] += dur
                    t[2] += dur - frame[0]
            return leaf

        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                t = totals[name]
                t[0] += 1
                t[1] += dur
                t[2] += dur - frame[0]
                info = {"error": True} if failed else (attrs(args, result) if attrs else {})
                self.spans.append((span_id, name, start, end, parent, self.op_id, dur - frame[0], info))
        return span

    def op(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as a root span with its own op id."""
        self.op_id += 1
        return self._wrap("bench.op", fn, True, lambda a, r: {"label": label})()

    def install(self) -> None:
        for module_name, path, name, mode, attrs in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, mode == "span", attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def total_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def write(self, path: str) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "op", "self_ns", "attrs")
        payload = {
            "fields": fields,
            "spans": self.spans,
            "totals": {n: {"calls": c, "total_ns": t, "self_ns": s} for n, (c, t, s) in self.totals.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
