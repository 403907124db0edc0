#!/usr/bin/env python3
"""Host-time benchmark for nttsim.

    python3 perfbench/run.py [--workload NAME|cli|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the repository root and imports nttsim from src/;
--workload all runs each workload of BENCHMARK.json in a process of its
own, and cli runs only when named. Each
workload is a fixed list of operations; a run repeats whole passes over
the list (closed loop, one caller, no threads) until --seconds have
passed, checks every output outside the timed intervals, and prints the
metrics by name and unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 times untraced
passes for half of --seconds, then traced passes with spans around nttsim's cross-module calls,
and reports the per-layer metrics and the tracing overhead; spans go to
.perfbench_out/. All times are host time; simulated cycles are checked
outputs, not speed. The end-to-end times (set-up and timed passes) are
scaled to a reference host speed by speed.Speedometer, which samples how
fast the shared machine runs during each timed call; the measured times
are printed beside them.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# the workloads of BENCHMARK.json. cli (nttsim processes) runs only when
# named: its spread over seeds exceeds the bound at this run length.
WORKLOADS = ("sim_sweep", "sim_hazard", "ref_batch")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "butterflies_per_s": "1/s",
    "coeffs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYERS = ("modarith", "ntt", "rns", "layout", "schedule", "sim", "cli")
# the per-layer metrics of the final JSON line; the report prints more
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in LAYERS if layer != "cli"},
    "modarith.batch_ns_per_elem": "ns",
    "modarith.scalar_calls": "count",
    "modarith.scalar_busy_s": "s",
    "ntt.forward_ns_per_butterfly": "ns",
    "ntt.inverse_ns_per_butterfly": "ns",
    "ntt.butterflies_computed": "count",
    "ntt.bytes_computed": "bytes",
    "ntt.batch_penalty": "ratio",
    "schedule.build_calls": "count",
    "schedule.records": "count",
    "schedule.build_unique_ratio": "ratio",
    "sim.walks_per_op": "ratio",
    "sim.total_cycles": "count",
    "sim.stall_cycles": "count",
    "sim.raw_events": "count",
    "sim.conflict_events": "count",
    "sim.utilization": "ratio",
    "sim.first_event_mismatches": "count",
    "trace.overhead_ratio": "ratio",
}
SIM_COUNTS = ("total_cycles", "stall_cycles", "raw_events", "conflict_events", "first_event_mismatches")


@dataclass
class Pass:
    # per-op times: scaled to the reference speed when a Speedometer ran, else as measured
    times: List[float] = field(default_factory=list)
    measured: List[float] = field(default_factory=list)
    cpu: float = 0.0
    counts: Counter = field(default_factory=Counter)
    utilization: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)

    def sim_counts(self) -> dict:
        util = statistics.fmean(self.utilization) if self.utilization else 0.0
        return {**{k: self.counts[k] for k in SIM_COUNTS}, "utilization": util}


class Run:
    """Timed passes and failure bookkeeping for one workload run."""

    def __init__(self, workload):
        self.w = workload
        self.failures: List[str] = []
        self.failed = 0
        self.attempted = 0
        self.passed_in_group: Counter = Counter()

    def fail(self, message: str, count: int = 1) -> None:
        self.failures.append(message)
        self.failed += count

    def one_pass(self, ops, tracer=None, speed=None) -> Pass:
        p = Pass()
        for op in ops:
            self.attempted += 1
            mark = speed.mark() if speed else 0
            c0 = os.times()
            t0 = time.perf_counter()
            try:
                result = tracer.op(op.label, op.fn) if tracer else op.fn()
            except Exception as exc:  # an unexpected exception is a failed op, checked below
                result = exc
            t1 = time.perf_counter()
            c1 = os.times()
            measured, scaled = speed.scale(mark, t0, t1) if speed else (t1 - t0, t1 - t0)
            p.times.append(scaled)
            p.measured.append(measured)
            p.cpu += sum(c1[:4]) - sum(c0[:4])
            try:
                counts = op.check(result) or {}
            except Exception as exc:
                self.fail(f"{op.label}: {exc}")
                continue
            if op.group:
                self.passed_in_group[op.group] += 1
            for key, value in counts.items():
                if key == "utilization":
                    p.utilization.append(value)
                else:
                    p.counts[key] += value
        return p

    def loop(self, ops, seconds: float, tracer=None, speed=None) -> List[Pass]:
        """Whole passes for `seconds`: at least two, and no pass that would
        end past the deadline if it took as long as the one before it."""
        passes: List[Pass] = []
        start, last = time.perf_counter(), 0.0
        while len(passes) < 2 or time.perf_counter() - start + last <= seconds:
            t = time.perf_counter()
            passes.append(self.one_pass(ops, tracer, speed))
            last = time.perf_counter() - t
        return passes

    def verify(self) -> None:
        """Run the oracles; every passing op of a failed group becomes a failure."""
        for group, output in self.w.outputs.items():
            try:
                ok, why = self.w.oracles[group](output), "output differs from the independent oracle"
            except Exception as exc:
                ok, why = False, f"oracle raised {exc!r}"
            if not ok:
                self.fail(f"{group}: {why}", self.passed_in_group[group])


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs
    right now, so that interference from other load shows beside a result."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def context(probes: List[float], speed=None) -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "nttsim", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
        "probe_ms": [round(p, 3) for p in probes],
        "slowdown": round(speed.slowdown(), 4) if speed else None,
    }


def op_costs(passes: List[Pass], attr: str = "times") -> List[float]:
    """Each op's median time over the passes."""
    return [statistics.median(col) for col in zip(*(getattr(p, attr) for p in passes))]


def pass_time(passes: List[Pass], attr: str = "times") -> float:
    return sum(op_costs(passes, attr))


def tail(times: List[float]):
    """The highest nearest-rank percentile with ten samples beyond it:
    (percentile, its latency). Not gated: it is the latency of slow
    stretches, and how many a run meets depends on the other load."""
    ranked = sorted(times)
    k = len(ranked) - 11
    return 100.0 * (k + 1) / len(ranked), ranked[k]


def end_to_end(passes: List[Pass], ops) -> Dict[str, float]:
    costs = op_costs(passes)
    wall = sum(costs)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": wall,
        "op_p50_s": statistics.median(costs),
        "butterflies_per_s": sum(op.butterflies for op in ops) / wall,
        "coeffs_per_s": sum(op.coeffs for op in ops) / wall,
        "peak_rss_mb": rss_kb / 1024,
    }


def _per(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(t, passes: List[Pass], sim_counts: dict, extra: dict) -> Dict[str, float]:
    """Per-layer figures of the traced passes, per pass where they are totals."""
    from tracer import BATCH_KERNELS, SCALAR_KERNELS

    n_pass = len(passes)
    traced_wall = sum(p.wall for p in passes)
    ok = [s for s in t.spans if "error" not in s[7]]
    names = {s[0]: s[1] for s in t.spans}

    def spans(name):
        return [s for s in ok if s[1] == name]

    def dur(ss):
        return sum(s[3] - s[2] for s in ss)

    def transform_work(ss):
        return sum(s[7]["batch"] * s[7]["N"] // 2 * (s[7]["N"].bit_length() - 1) for s in ss)

    m: Dict[str, float] = {}
    for layer in LAYERS:
        self_ns = sum(tot[2] for name, tot in t.totals.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = _per(self_ns / 1e9, n_pass)
        m[f"{layer}.self_share"] = _per(self_ns / 1e9, traced_wall)

    batch = [s for s in ok if s[1] in BATCH_KERNELS]
    m["modarith.batch_ns_per_elem"] = _per(dur(batch), sum(s[7]["elems"] for s in batch))
    m["modarith.scalar_calls"] = _per(t.calls(*SCALAR_KERNELS), n_pass)
    m["modarith.scalar_busy_s"] = _per(t.total_s(*SCALAR_KERNELS), n_pass)

    for kind, name in (("forward", "ntt.forward"), ("inverse", "ntt.inverse")):
        narrow = [s for s in spans(name) if s[7]["k"] <= 32]
        m[f"ntt.{kind}_ns_per_butterfly"] = _per(dur(narrow), transform_work(narrow))
        for key in sorted({(s[7]["N"], s[7]["batch"]) for s in narrow}):
            group = [s for s in narrow if (s[7]["N"], s[7]["batch"]) == key]
            m[f"ntt.{kind}_us_per_poly[N={key[0]},batch={key[1]}]"] = dur(group) / 1e3 / (key[1] * len(group))
    # per-poly forward + inverse cost at batch 256 over batch 1, N=4096
    single, big = (sum(m.get(f"ntt.{kind}_us_per_poly[N=4096,batch={b}]", 0.0) for kind in ("forward", "inverse"))
                   for b in (1, 256))
    m["ntt.batch_penalty"] = _per(big, single) if big else 0.0
    transforms = spans("ntt.forward") + spans("ntt.inverse")
    wide = [s for s in transforms if s[7]["k"] > 32]
    m["ntt.wide_us_per_poly"] = _per(dur(wide) / 1e3, sum(s[7]["batch"] for s in wide))
    m["ntt.reference_check_s"] = _per(dur(
        s for s in ok if s[1] in ("ntt.forward", "ntt.inverse", "ntt.pointwise")
        and names.get(s[4]) == "sim.run") / 1e9, n_pass)
    m["ntt.butterflies_computed"] = _per(transform_work(transforms), n_pass)
    m["ntt.bytes_computed"] = _per(sum(
        16 * s[7]["batch"] * s[7]["N"] * (s[7]["N"].bit_length() - 1) for s in transforms), n_pass)

    for name in ("decompose", "reconstruct"):
        ss = spans(f"rns.{name}")
        m[f"rns.{name}_us_per_coeff"] = _per(dur(ss) / 1e3, sum(s[7]["coeffs"] for s in ss))

    m["layout.busy_s"] = m["layout.self_s"]

    builds = spans("schedule.build")
    m["schedule.build_s"] = _per(dur(builds) / 1e9, n_pass)
    m["schedule.build_calls"] = _per(len(builds), n_pass)
    m["schedule.records"] = _per(sum(s[7]["records"] for s in builds), n_pass)
    m["schedule.build_unique_ratio"] = _per(len({tuple(s[7]["key"]) for s in builds}),
                                             len(builds) / n_pass)
    m["schedule.export_s"] = _per(t.total_s("schedule.export_csv"), n_pass)

    runs = spans("sim.run")
    walks = [s for s in ok if s[1] in ("sim.walk", "sim.detect_hazards") and names.get(s[4]) == "sim.run"]
    m["sim.run_self_s"] = _per(sum(s[6] for s in runs) / 1e9, n_pass)
    m["sim.walks_per_op"] = _per(len(walks), sum(s[7]["steps"] for s in runs))
    m["sim.static_walk_s"] = _per(dur(
        s for s in ok if s[1] == "sim.detect_hazards" and names.get(s[4]) != "sim.run") / 1e9, n_pass)
    m["sim.host_ns_per_sim_cycle"] = _per(dur(runs), sum(s[7]["cycles"] for s in runs))
    for key, value in sim_counts.items():
        m[f"sim.{key}"] = value

    m["cli.main_s"] = _per(t.total_s("cli.main"), n_pass)
    m.update(extra)
    return m


def unit_of(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_s"):
        return "s"
    if "_us_" in name:
        return "us"
    if "_ns_" in name:
        return "ns"
    return "count"


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:48s} {value:14.6g} {unit:6s} {note}".rstrip())


def build(name: str, seed: int, pins, workdir: str):
    import workloads

    builder = workloads.BUILDERS[name]
    if name == "cli":
        return builder(seed, pins, ROOT, workdir)
    return builder(seed, pins)


def setup_repeats(name: str, seed: int, count: int) -> List[dict]:
    """Set-up times of fresh processes: import, primes, twiddles, inputs, warm-up."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode:
            raise RuntimeError(f"set-up of {name} failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def report_end_to_end(name: str, w, run: Run, args, setup: dict, speed) -> dict:
    probes = [machine_probe_ms()]
    passes = run.loop(w.ops, args.seconds, speed=speed)
    speed.stop()
    probes.append(machine_probe_ms())
    run.verify()
    metrics = end_to_end(passes, w.ops)
    # fresh processes after the peak RSS reading, which counts children
    setups = [setup] + setup_repeats(name, args.seed, SETUP_REPEATS - 1)
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    times = [t for p in passes for t in p.times]
    pct, tail_s = tail(times)
    print("context " + json.dumps(context(probes, speed)))
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; measured " + ", ".join(f"{s['measured_s']:.3f}" for s in setups),
        "wall_s": f"sum of each op's median of {len(passes)} passes; measured {pass_time(passes, 'measured'):.4g} s, "
                  f"whole passes " + ", ".join(f"{sum(p.measured):.3f}" for p in passes),
        "op_p50_s": f"median over {len(w.ops)} ops of each op's median time",
        "peak_rss_mb": "max of this process and its children",
    }
    for key, unit in END_TO_END.items():
        show(key, metrics[key], unit, notes.get(key, ""))
    show("op_tail_s", tail_s, "s", f"p{pct:.4g} (nearest rank) of {len(times)} samples, "
         f"{sum(t > tail_s for t in times)} beyond it; not gated")
    show("cpu_s", statistics.median(p.cpu for p in passes), "s", "median per pass, process and children")
    show("error_rate", run.failed / run.attempted, "ratio", f"{run.failed} failed of {run.attempted}")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}


def report_layers(name: str, w, run: Run, args) -> dict:
    from tracer import Tracer

    ops = w.trace_ops or w.ops
    untraced = run.loop(ops, args.seconds / 2)
    extra = {}
    if w.trace_ops:
        extra["cli.process_s"] = run.one_pass(w.ops).wall
    probes = [machine_probe_ms()]
    tracer = Tracer()
    tracer.install()
    try:
        passes = run.loop(ops, args.seconds, tracer)
    finally:
        tracer.uninstall()
    probes.append(machine_probe_ms())
    if w.import_cmd:
        imports = [
            float(subprocess.run(w.import_cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC},
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(3)
        ]
        extra["cli.import_s"] = statistics.median(imports)
    run.verify()
    counts = untraced[0].sim_counts()
    for p in untraced + passes:
        if p.sim_counts() != counts:
            run.fail(f"simulated counts {p.sim_counts()} != first untraced pass {counts}")
    extra["trace.overhead_ratio"] = pass_time(passes) / pass_time(untraced)
    metrics = layer_metrics(tracer, passes, counts, extra)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{name}-seed{args.seed}.json")
    tracer.write(trace_path)
    print("context " + json.dumps(context(probes)))
    print(f"  {len(tracer.spans)} spans in {os.path.relpath(trace_path, ROOT)}; "
          f"{len(passes)} traced passes; {len(untraced)} untraced passes of {pass_time(untraced):.4g} s")
    for key in sorted(metrics):
        show(key, metrics[key], unit_of(key))
    return {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}


def run_workload(name: str, args, pins, workdir: str, speed) -> dict:
    w = build(name, args.seed, pins, workdir)
    measured, scaled = speed.scale(0, T0, time.perf_counter()) if speed else (time.perf_counter() - T0,) * 2
    setup = {"setup_s": scaled, "measured_s": measured}
    if args.setup_only:
        return setup
    run = Run(w)
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.pin:
        run.one_pass(w.ops)
        if w.trace_ops:
            run.one_pass(w.trace_ops)
        run.verify()
        metrics = {}
    elif args.trace:
        metrics = report_layers(name, w, run, args)
    else:
        metrics = report_end_to_end(name, w, run, args, setup, speed)
    for msg in run.failures[:10]:
        print(f"  FAILED {msg}", file=sys.stderr)
    return {"correct": not run.failed, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="run one pass per workload and write perfbench/goldens.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nttsim", "__init__.py")):
        print("error: run from a checkout of nttsim; src/nttsim not found", file=sys.stderr)
        return 1

    if args.workload == "all":
        # one process per benchmark workload, so that set-up and peak RSS are its own
        codes = []
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + ["--pin"] * args.pin
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        return max(codes)

    sys.path.insert(0, HERE)
    from speed import Speedometer

    # end-to-end times, set-up included, are scaled to the reference speed
    speed = Speedometer().start() if args.trace == 0 and not args.pin else None
    import workloads

    pins = workloads.Pins(os.path.join(HERE, "goldens.json"), record=args.pin)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = run_workload(args.workload, args, pins, workdir, speed)
    finally:
        if speed:
            speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    emit(result)
    if args.pin:
        if not result["correct"]:
            print("error: not pinned, outputs failed their checks", file=sys.stderr)
            return 1
        pins.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
