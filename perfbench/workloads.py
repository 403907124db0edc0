"""The four benchmark workloads.

Each builder does the workload's set-up (primes, twiddles, inputs from
the seed, warm-up) and returns a Workload: a fixed list of operations
that one pass runs in order, a check per operation that runs outside
the timed interval, and per-group oracles that run after all passes.

Why these workloads:

- sim_sweep: the paper's use, cycle counts across N and PE count. Host
  time goes to schedule build, sim replay and scalar modarith; every
  point meets the RAW bound, so the hazard path stays cold.
- sim_hazard: stalling and conflicting configs through the same layers;
  event recording, stall bookkeeping and conflict serialization do the
  work, so a change that speeds the stall-free path by slowing this one
  shows up here.
- ref_batch: the reference library only (modarith batch kernels, ntt,
  rns); sim and schedule are never called, so a sim-only change should
  leave it flat. The N=4096 batches of 1, 16 and 256 take one array from
  32 KiB to 8 MiB against a 2 MiB L2.
- cli: the nttsim process itself, where interpreter start, the numpy
  import and output formatting dominate.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from nttsim import cli, layout, ntt, rns, schedule, sim
from nttsim.modarith import ntt_modulus

import oracle

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

POLYMUL_SEQUENCE = ("ntt", "ntt", "mult", "intt")


class Divergence(Exception):
    """An output differs from its pinned value or its oracle."""


def derive(seed: int, label: str) -> int:
    """Per-input 64-bit stream seed: the same (seed, label) gives the same stream."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:8], "little")


def splitmix_array(seed: int, count: int) -> np.ndarray:
    """The first `count` outputs of cli.splitmix64(seed), computed in numpy."""
    i = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) + i * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _check_splitmix() -> None:
    stream = cli.splitmix64(12345)
    if [next(stream) for _ in range(16)] != [int(v) for v in splitmix_array(12345, 16)]:
        raise RuntimeError("numpy splitmix64 disagrees with nttsim.cli.splitmix64")


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = np.ascontiguousarray(np.asarray(data, dtype=np.uint64)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def butterflies(n: int, op: str) -> int:
    """Butterflies plus pointwise multiplies of one op on one channel."""
    per_transform = n // 2 * (n.bit_length() - 1)
    return {"ntt": per_transform, "intt": per_transform, "mult": n, "polymul": 3 * per_transform + n}[op]


class Pins:
    """Values pinned at the seed commit; in record mode, the pinning itself."""

    def __init__(self, path: str, record: bool):
        self.path = path
        self.record = record
        self.data: Dict[str, Any] = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.data = json.load(fh)

    def check(self, key: str, value) -> None:
        value = json.loads(json.dumps(value))
        if self.record:
            self.data[key] = value
        elif key not in self.data:
            raise Divergence(f"{key}: nothing pinned")
        elif self.data[key] != value:
            raise Divergence(f"{key}: got {value!r}, pinned {self.data[key]!r}")

    def save(self) -> None:
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(self.data.items())]
        with open(self.path, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")


@dataclass
class Op:
    """One timed call. check runs outside timing; it raises Divergence
    and may return simulated counts to add to the pass's totals."""

    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], Optional[dict]]
    group: Optional[str] = None
    butterflies: int = 0
    coeffs: int = 0


@dataclass
class Workload:
    name: str
    ops: List[Op]
    oracles: Dict[str, Callable[[Any], bool]] = field(default_factory=dict)
    # ops timed in the traced run when they differ from ops (cli: main in-process)
    trace_ops: Optional[List[Op]] = None
    # cli: command that times the nttsim import in a fresh interpreter
    import_cmd: Optional[List[str]] = None
    outputs: Dict[str, Any] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)

    def same_output(self, group: str, output, digest: str) -> None:
        """Every op of a group must give the output the oracle checks."""
        if group not in self.digests:
            self.digests[group] = digest
            self.outputs[group] = output
        elif self.digests[group] != digest:
            raise Divergence(f"{group}: output {digest} differs from earlier {self.digests[group]}")


# ---------------------------------------------------------------------------
# simulator workloads


def _sim_inputs(config, seed: int, label: str):
    """Operands as `nttsim sim --seed` makes them: a, then b, from one stream mod Q."""
    basis = rns.RnsBasis.from_moduli(config.moduli)
    stream = cli.splitmix64(derive(seed, label))
    a = [next(stream) % basis.big_q for _ in range(config.N)]
    b = [next(stream) % basis.big_q for _ in range(config.N)]
    return rns.decompose(a, basis), rns.decompose(b, basis)


def _report_counts(report) -> dict:
    return {
        "total_cycles": report.total_cycles,
        "stall_cycles": report.stall_cycles,
        "raw_events": sum(r.raw_count for r in report.reports),
        "conflict_events": sum(r.bank_conflicts for r in report.reports),
        "utilization": report.utilization,
    }


def _pin_report(pins: Pins, key: str, report) -> None:
    pins.check(key, {
        "total_cycles": report.total_cycles,
        "stall_cycles": report.stall_cycles,
        "conflicts": report.bank_conflict_count,
        "utilization": report.utilization,
        "predicted": report.predicted,
        "per_op": [
            [r.op_kind, r.total_cycles, r.stall_cycles, r.raw_count, r.bank_conflicts,
             sorted(r.per_stage.items())]
            for r in report.reports
        ],
        "report_json": sha(report.to_json()),
    })


def _product_oracle(a, b):
    def check(results) -> bool:
        return all(
            oracle.product_matches(pa.coeffs, pb.coeffs, got, pa.mod)
            for pa, pb, got in zip(a.residue_polys, b.residue_polys, results)
        )
    return check


def _ntt_oracle(a):
    def check(results) -> bool:
        pa = a.residue_polys[0]
        psi = ntt.cached_twiddles(pa.mod, pa.n).psi
        return oracle.ntt_matches(pa.coeffs, results[0], pa.mod.q, psi)
    return check


def _warm(fn: Callable[[], Any]) -> None:
    """Warm-up call; a failure here fails again, and is counted, in the passes."""
    try:
        fn()
    except Exception:
        pass


def _warm_sim() -> None:
    config = sim.make_sim_config(16, 2, q_bits=14)
    a, b = _sim_inputs(config, 0, "warm")
    _warm(lambda: sim.run(config, a, b, op="polymul"))


def _sim_op(w: Workload, pins: Pins, key: str, group: str, config, a, b, op: str,
            sweep: bool, keep: Optional[dict] = None) -> Op:
    def check(report) -> dict:
        if isinstance(report, BaseException):
            raise Divergence(f"{key}: {report!r}")
        if keep is not None:
            keep[key] = report
        _pin_report(pins, key, report)
        if sweep and not (report.matches_predicted and report.total_cycles == report.predicted):
            raise Divergence(f"{key}: total {report.total_cycles} != predicted {report.predicted}")
        w.same_output(group, report.results, sha(report.results))
        return _report_counts(report)

    return Op(
        label=key,
        fn=lambda: sim.run(config, a, b, op=op),
        check=check,
        group=group,
        butterflies=butterflies(config.N, op) * len(config.moduli),
        coeffs=config.N * len(config.moduli),
    )


# (N, profile, q bits, nq, op, Npe values); every point meets the RAW bound
SWEEP = [
    (1024, "q32", 32, 2, "polymul", (4, 8)),
    (1024, "q14", 14, 1, "polymul", (4, 8)),
    (4096, "q32", 32, 1, "polymul", (4, 8, 16, 32)),
    (16384, "q32", 32, 1, "ntt", (64,)),
]


def sim_sweep(seed: int, pins: Pins) -> Workload:
    w = Workload("sim_sweep", [])
    for n, profile, bits, nq, op, npes in SWEEP:
        group = f"N{n}/{profile}/nq{nq}/{op}"
        first = sim.make_sim_config(n, npes[0], q_bits=bits, n_q=nq, profile=profile)
        for mod in first.moduli:
            ntt.cached_twiddles(mod, n)
        a, b = _sim_inputs(first, seed, group)
        w.oracles[group] = _product_oracle(a, b) if op == "polymul" else _ntt_oracle(a)
        for npe in npes:
            config = sim.make_sim_config(n, npe, moduli=first.moduli, profile=profile)
            key = f"sim_sweep/{group}/npe{npe}"
            w.ops.append(_sim_op(w, pins, key, group, config, a, b if op == "polymul" else None, op, True))
    _warm_sim()
    return w


# a pipeline too deep for N=4096 at Npe=32 (bound 32)
DEEP = schedule.PipelineConfig(delay_read=2, delay_write=2, delay_pe_ntt=40, delay_pe_mult=14)

# (name, N, Npe, profile, layout); polymul under the stall policy
HAZARD_STALL = [
    ("raw_n256_npe4", 256, 4, "q32", "shifted"),
    ("raw_n256_npe8", 256, 8, "q32", "shifted"),
    ("raw_n1024_npe16", 1024, 16, "q32", "shifted"),
    ("deep_n4096_npe32", 4096, 32, DEEP, "shifted"),
    ("seq_n1024_npe8", 1024, 8, "q32", "sequential"),
]
# fail-fast at N=256, Npe=4, q32: SimHazardError is the expected outcome
HAZARD_FAIL_FAST = [
    ("ff_shifted_ntt", "shifted", "ntt"),
    ("ff_sequential_ntt", "sequential", "ntt"),
    ("ff_shifted_intt", "shifted", "intt"),
    ("ff_sequential_intt", "sequential", "intt"),
]


def _static_op(pins: Pins, name: str, config, kinds, dynamic: dict) -> Op:
    """detect_hazards over a config's ops; under stall it must agree with run()."""
    def fn():
        return [
            sim.detect_hazards(
                schedule.build_schedule(config.N, config.npe, kind, config.layout_kind),
                config.pipeline, config.setup_cycles, config.hazard_policy,
            )
            for kind in kinds
        ]

    def check(reports) -> None:
        if isinstance(reports, BaseException):
            raise Divergence(f"{name}: {reports!r}")
        if config.hazard_policy == "fail-fast":
            if [len(r.events) for r in reports] != [1]:
                raise Divergence(f"{name}: fail-fast analysis must stop at one event")
            return
        pins.check(f"{name}/static", [
            [r.op_kind, r.total_cycles, r.stall_cycles, r.raw_count, r.read_conflicts, r.write_conflicts]
            for r in reports
        ])
        report = dynamic.get(name)
        if report is None:
            raise Divergence(f"{name}: no dynamic report to compare with")
        for static, dyn in zip(reports, report.reports):
            if (static.events, static.stall_cycles, static.total_cycles) != (
                dyn.events, dyn.stall_cycles, dyn.total_cycles
            ):
                raise Divergence(f"{name}/{dyn.op_kind}: static and dynamic analyses disagree")

    return Op(label=f"{name}/static", fn=fn, check=check)


def sim_hazard(seed: int, pins: Pins) -> Workload:
    w = Workload("sim_hazard", [])
    dynamic: Dict[str, Any] = {}
    inputs: Dict[int, tuple] = {}

    def operands(config):
        group = f"N{config.N}/q32"
        if config.N not in inputs:
            a, b = _sim_inputs(config, seed, group)
            inputs[config.N] = (a, b)
            w.oracles[group] = _product_oracle(a, b)
            ntt.cached_twiddles(config.moduli[0], config.N)
        return group, inputs[config.N]

    for name, n, npe, profile, kind in HAZARD_STALL:
        config = sim.make_sim_config(n, npe, q_bits=32, profile=profile, layout_kind=kind)
        group, (a, b) = operands(config)
        key = f"sim_hazard/{name}"
        w.ops.append(_sim_op(w, pins, key, group, config, a, b, "polymul", False, keep=dynamic))
        w.ops.append(_static_op(pins, key, config, POLYMUL_SEQUENCE, dynamic))

    for name, kind, op_kind in HAZARD_FAIL_FAST:
        config = sim.make_sim_config(256, 4, q_bits=32, hazard_policy="fail-fast", layout_kind=kind)
        _group, (a, _b) = operands(config)

        def check(exc, config=config, op_kind=op_kind, name=name) -> dict:
            if not isinstance(exc, sim.SimHazardError):
                raise Divergence(f"{name}: expected SimHazardError, got {exc!r}")
            trace = schedule.build_schedule(config.N, config.npe, op_kind, config.layout_kind)
            static = sim.detect_hazards(trace, config.pipeline, config.setup_cycles, "fail-fast")
            return {"first_event_mismatches": int(static.events[:1] != [exc.event])}

        w.ops.append(Op(
            label=f"sim_hazard/{name}",
            fn=lambda config=config, a=a, op_kind=op_kind: sim.run(config, a, op=op_kind),
            check=check,
        ))
        w.ops.append(_static_op(pins, f"sim_hazard/{name}", config, (op_kind,), dynamic))

    for kind in layout.KINDS:
        key = f"sim_hazard/conflict_free_n16384_{kind}"

        def check(report, key=key) -> None:
            if isinstance(report, BaseException):
                raise Divergence(f"{key}: {report!r}")
            pins.check(key, [report.pairs_checked, len(report.violations)])
            if key not in w.digests:
                pins.check(f"{key}/json", sha(report.to_json_lines()))
                w.digests[key] = "pinned"

        w.ops.append(Op(label=key, fn=lambda kind=kind: layout.verify_conflict_free(16384, kind), check=check))
    _warm_sim()
    return w


# ---------------------------------------------------------------------------
# reference library


def ref_batch(seed: int, pins: Pins) -> Workload:
    _check_splitmix()
    w = Workload("ref_batch", [])

    def operands(label: str, q: int, rows: int, n: int):
        a = splitmix_array(derive(seed, label), 2 * rows * n) % np.uint64(q)
        return a[: rows * n].reshape(rows, n), a[rows * n:].reshape(rows, n)

    def add(group: str, n: int, batch: int, a, b, tw, check_rows):
        def check(out) -> None:
            if isinstance(out, BaseException):
                raise Divergence(f"{group}: {out!r}")
            w.same_output(group, out, sha(out))

        w.oracles[group] = lambda out: all(
            oracle.product_matches(a[r] if batch > 1 else a, b[r] if batch > 1 else b,
                                   out[r] if batch > 1 else out, tw.mod)
            for r in check_rows
        )
        w.ops.append(Op(
            label=group,
            fn=lambda: ntt.polymul_ntt_array(a, b, tw),
            check=check,
            group=group,
            butterflies=butterflies(n, "polymul") * batch,
            coeffs=n * batch,
        ))

    for bits, n in ((32, 1024), (14, 1024), (40, 1024), (32, 16384)):
        tw = ntt.cached_twiddles(ntt_modulus(bits, n), n)
        a, b = operands(f"q{bits}/N{n}", tw.mod.q, 1, n)
        add(f"q{bits}/N{n}/b1", n, 1, a[0], b[0], tw, [0])

    tw = ntt.cached_twiddles(ntt_modulus(32, 4096), 4096)
    a, b = operands("q32/N4096", tw.mod.q, 256, 4096)
    for batch, rows in ((1, [0]), (16, [0, 15]), (256, [0, 15, 255])):
        add(f"q32/N4096/b{batch}", 4096, batch,
            a[0] if batch == 1 else a[:batch], b[0] if batch == 1 else b[:batch], tw, rows)

    basis = rns.gen_basis(30, 6, 4096)
    stream = cli.splitmix64(derive(seed, "rns"))
    xs = [next(stream) % basis.big_q for _ in range(4096)]
    ys = [next(stream) % basis.big_q for _ in range(4096)]

    def rns_chain():
        product = rns.rns_polymul(rns.decompose(xs, basis), rns.decompose(ys, basis), basis)
        return rns.reconstruct(product, basis)

    def rns_check(out) -> None:
        if isinstance(out, BaseException):
            raise Divergence(f"rns: {out!r}")
        w.same_output("rns/q30x6/N4096", out, sha(str(out)))

    w.oracles["rns/q30x6/N4096"] = lambda out: oracle.negacyclic_bigint(xs, ys, basis.big_q) == out
    w.ops.append(Op(
        label="rns/q30x6/N4096",
        fn=rns_chain,
        check=rns_check,
        group="rns/q30x6/N4096",
        butterflies=butterflies(4096, "polymul") * 6,
        coeffs=4096 * 6,
    ))
    # warm-up: every kernel family once, leaving out the large batches
    for op in w.ops:
        if op.label.endswith("N1024/b1") or op.label.startswith("rns/"):
            _warm(op.fn)
    return w


# ---------------------------------------------------------------------------
# command line


def _cli_commands(s: str, a_path: str, b_path: str, bad_path: str):
    """(label, argv, expected exit, stdout pinned, oracle group, butterflies, coefficients out)."""
    ntt1024 = butterflies(1024, "ntt")
    return [
        ("predict", ["predict", "--n", "4096", "--npe", "16", "--profile", "q32"], 0, True, None, 0, 0),
        ("sim_json", ["sim", "--n", "1024", "--npe", "8", "--q-bits", "32", "--seed", s],
         0, True, None, ntt1024, 0),
        ("sim_text", ["sim", "--n", "1024", "--npe", "8", "--q-bits", "14", "--profile", "q14",
                      "--format", "text", "--seed", s], 0, True, None, ntt1024, 0),
        ("schedule_dump", ["schedule", "dump", "--n", "1024", "--npe", "8", "--op", "ntt"],
         0, True, None, 0, 0),
        ("layout_check", ["layout-check", "--n", "1024", "--layout", "sequential"], 0, True, None, 0, 0),
        ("ntt", ["ntt", "--n", "1024", "--q-bits", "14", "--seed", s], 0, False, "ntt", ntt1024, 1024),
        ("polymul", ["polymul", "--input", a_path, "--input-b", b_path],
         0, False, "polymul", butterflies(4096, "polymul"), 4096),
        ("fail_fast", ["sim", "--n", "256", "--npe", "4", "--q-bits", "32", "--policy", "fail-fast"],
         2, False, None, 0, 0),
        ("bad_input", ["polymul", "--input", bad_path, "--input-b", b_path], 1, False, None, 0, 0),
    ]


def _write_poly(path: str, coeffs, q: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"{len(coeffs)} {q}\n")
        fh.write("".join(f"{int(c)}\n" for c in coeffs))


def _read_poly(text: str) -> List[int]:
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    return [int(x) for x in lines[1:1 + n]]


def _sim_json_counts(stdout: str) -> dict:
    report = json.loads(stdout)
    return {
        "total_cycles": report["total_cycles"],
        "stall_cycles": report["stalls"],
        "conflict_events": report["conflicts"],
        "utilization": report["utilization"],
    }


def cli_workload(seed: int, pins: Pins, root: str, workdir: str) -> Workload:
    w = Workload("cli", [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")

    mod = ntt_modulus(32, 4096)
    q = mod.q
    raw = splitmix_array(derive(seed, "cli-poly"), 2 * 4096) % np.uint64(q)
    a_coeffs, b_coeffs = raw[:4096], raw[4096:]
    a_path, b_path, bad_path = (os.path.join(workdir, f) for f in ("a.poly", "b.poly", "bad.poly"))
    _write_poly(a_path, a_coeffs, q)
    _write_poly(b_path, b_coeffs, q)
    with open(bad_path, "w") as fh:
        fh.write(f"4096 {q}\n1\n2\n")  # truncated after two coefficients
    cli_seed = derive(seed, "cli") % (1 << 31)
    commands = _cli_commands(str(cli_seed), a_path, b_path, bad_path)

    # `nttsim ntt --seed` draws its input from one splitmix64 stream mod q
    ntt_mod = ntt_modulus(14, 1024)
    stream = cli.splitmix64(cli_seed)
    ntt_input = [next(stream) % ntt_mod.q for _ in range(1024)]
    psi = ntt.cached_twiddles(ntt_mod, 1024).psi
    w.oracles["ntt"] = lambda out: oracle.ntt_matches(ntt_input, _read_poly(out), ntt_mod.q, psi)
    w.oracles["polymul"] = lambda out: oracle.product_matches(a_coeffs, b_coeffs, _read_poly(out), mod)

    def checker(label, code, pinned, group):
        def check(proc) -> Optional[dict]:
            if isinstance(proc, BaseException):
                raise Divergence(f"cli/{label}: {proc!r}")
            if proc.returncode != code:
                raise Divergence(f"cli/{label}: exit {proc.returncode}, expected {code}")
            if "Traceback" in proc.stderr:
                raise Divergence(f"cli/{label}: traceback on stderr")
            if code:
                if proc.stdout or proc.stderr.count("\n") != 1:
                    raise Divergence(f"cli/{label}: failure must print one line to stderr only")
                return None
            if pinned:
                pins.check(f"cli/{label}", sha(proc.stdout))
            if group:
                w.same_output(group, proc.stdout, sha(proc.stdout))
            if label == "sim_json":
                return _sim_json_counts(proc.stdout)
            return None
        return check

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

    w.trace_ops = []
    for label, argv, code, pinned, group, bf, coeffs in commands:
        cmd = [sys.executable, "-m", "nttsim.cli", *argv]
        w.ops.append(Op(
            label=f"cli/{label}",
            fn=lambda cmd=cmd: subprocess.run(
                cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=120),
            check=checker(label, code, pinned, group),
            group=group, butterflies=bf, coeffs=coeffs,
        ))
        w.trace_ops.append(Op(
            label=f"cli/{label}/in-process",
            fn=lambda argv=argv: in_process(argv),
            check=checker(label, code, pinned, group),
            group=group, butterflies=bf, coeffs=coeffs,
        ))
    # warm-up: one process start so the interpreter and numpy files are cached
    w.ops[0].fn()
    w.import_cmd = [sys.executable, "-c",
                    "import time; t = time.perf_counter(); import nttsim.cli; "
                    "print(time.perf_counter() - t)"]
    return w


BUILDERS = {
    "sim_sweep": sim_sweep,
    "sim_hazard": sim_hazard,
    "ref_batch": ref_batch,
    "cli": cli_workload,
}
