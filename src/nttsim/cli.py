"""Command-line front end.

Commands: ntt, intt, polymul (reference transforms on polynomial files),
sim (cycle-accurate replay), schedule dump (trace CSV), layout-check
(bank-conflict audit) and predict (closed-form cycle count).

Options may come from a flat key=value config file (one nesting level
for the pipeline profile, e.g. ``pipeline.delay_read``); command-line
flags override file values. Identical config and seed produce
byte-identical output.

Random inputs come from a splitmix64 stream (64-bit state; increment
0x9E3779B97F4A7C15, mix constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) reduced mod q, so any implementation can reproduce
the operands from the seed alone. For two-operand commands the second
polynomial continues the same stream.

Exit codes: 0 success, 1 validation error, 2 hazard under the fail-fast
policy, 3 simulator-versus-reference mismatch.
"""

import argparse
import io
import sys
from dataclasses import replace
from typing import Iterator, List, Optional

from nttsim.layout import verify_conflict_free
from nttsim.modarith import Modulus, barrett_precompute, ntt_modulus
from nttsim.ntt import (
    Polynomial,
    cached_twiddles,
    intt_gs,
    ntt_ct,
    polymul_ntt,
    read_polynomial,
    write_polynomial,
)
from nttsim.rns import RnsBasis, decompose
from nttsim.schedule import PROFILES, build_schedule, export_csv
from nttsim.sim import (
    HAZARD_POLICIES,
    SimHazardError,
    SimMismatchError,
    make_sim_config,
    predicted_cycles,
    run,
)

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The documented 64-bit generator behind --seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_polynomial(
    mod: Modulus, n: int, seed: int, stream: Optional[Iterator[int]] = None
) -> Polynomial:
    if stream is None:
        stream = splitmix64(seed)
    return Polynomial.from_ints([next(stream) % mod.q for _ in range(n)], mod)


COMMANDS = ("ntt", "intt", "polymul", "sim", "schedule", "layout-check", "predict")

# every option a config file may set, with its parsed type
CONFIG_KEYS = {
    "command": str,
    "n": int,
    "npe": int,
    "q": str,
    "q_bits": int,
    "nq": int,
    "profile": str,
    "pipeline.delay_read": int,
    "pipeline.delay_write": int,
    "pipeline.delay_pe_ntt": int,
    "pipeline.delay_pe_mult": int,
    "setup_cycles": int,
    "policy": str,
    "layout": str,
    "seed": int,
    "op": str,
    "input": str,
    "input_b": str,
    "output": str,
    "format": str,
}


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}"
                )
            values[key] = CONFIG_KEYS[key](val)
    return values


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="polynomial degree (power of two)")
    p.add_argument("--npe", type=int, help="number of butterfly units")
    p.add_argument("--q", type=str, help="explicit prime modulus (comma list for RNS)")
    p.add_argument("--q-bits", dest="q_bits", type=int, help="modulus bit width")
    p.add_argument("--nq", type=int, help="number of RNS moduli")
    p.add_argument("--profile", type=str, help="pipeline profile: q32, q14 or ideal")
    p.add_argument("--delay-read", dest="pipeline.delay_read", type=int)
    p.add_argument("--delay-write", dest="pipeline.delay_write", type=int)
    p.add_argument("--delay-pe-ntt", dest="pipeline.delay_pe_ntt", type=int)
    p.add_argument("--delay-pe-mult", dest="pipeline.delay_pe_mult", type=int)
    p.add_argument("--setup-cycles", dest="setup_cycles", type=int)
    p.add_argument("--policy", choices=HAZARD_POLICIES)
    p.add_argument("--layout", choices=["shifted", "sequential"])
    p.add_argument("--seed", type=int, help="input generator seed")
    p.add_argument("--op", choices=["ntt", "intt", "mult", "polymul"])
    p.add_argument("--input", type=str, help="input polynomial file")
    p.add_argument("--input-b", dest="input_b", type=str, help="second operand file")
    p.add_argument("--output", type=str, help="output file (default stdout)")
    p.add_argument("--format", choices=["json", "text"], help="report format")


DEFAULTS = {
    "nq": 1,
    "seed": 0,
    "op": "ntt",
    "policy": "stall",
    "layout": "shifted",
    "format": "json",
    "setup_cycles": 0,
    "profile": "q32",
}


class Options(dict):
    """Resolved option bag: flags override config, config overrides defaults."""

    def __getattr__(self, key):
        return self[key]


def _resolve(args: argparse.Namespace, config: dict) -> Options:
    opts = Options()
    for key in CONFIG_KEYS:
        flag_val = getattr(args, key, None)
        opts[key] = flag_val if flag_val is not None else config.get(key)
    for key, default in DEFAULTS.items():
        if opts[key] is None:
            opts[key] = default
    if args.command is not None:
        opts["command"] = args.command
    if opts["command"] is None:
        raise ValueError("no command given on the command line or in the config")
    if opts["command"] not in COMMANDS:
        raise ValueError(f"unknown command {opts['command']!r}")
    return opts


def _pipeline(opts: Options):
    name = opts.profile
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; expected {list(PROFILES)}")
    pipe = PROFILES[name]
    overrides = {
        field: opts[f"pipeline.{field}"]
        for field in ("delay_read", "delay_write", "delay_pe_ntt", "delay_pe_mult")
        if opts[f"pipeline.{field}"] is not None
    }
    if overrides:
        return replace(pipe, **overrides), "custom"
    return pipe, name


def _moduli(opts: Options, n: int) -> List[Modulus]:
    if opts.q is not None:
        primes = [int(x) for x in str(opts.q).split(",")]
        return [barrett_precompute(p).with_root() for p in primes]
    bits = opts.q_bits
    if bits is None:
        raise ValueError("either --q or --q-bits is required")
    if opts.nq < 1:
        raise ValueError(f"--nq must be at least 1, got {opts.nq}")
    return [ntt_modulus(bits, n, i) for i in range(opts.nq)]


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_or_generate(opts: Options, which: str, stream) -> Polynomial:
    path = opts[which]
    if path is not None:
        with open(path) as fh:
            return read_polynomial(fh)
    if opts.n is None:
        raise ValueError(f"--n is required when no {which} file is given")
    mod = _moduli(opts, opts.n)[0]
    return random_polynomial(mod, opts.n, opts.seed, stream)


def _cmd_transform(opts: Options) -> int:
    stream = splitmix64(opts.seed)
    poly = _load_or_generate(opts, "input", stream)
    mod = poly.mod.with_root()
    poly = Polynomial(poly.coeffs, mod)
    tw = cached_twiddles(mod, poly.n)
    if opts.command == "ntt":
        result = ntt_ct(poly, tw)
    else:
        result = intt_gs(poly, tw)
    buf = io.StringIO()
    write_polynomial(result, buf)
    _write_output(buf.getvalue(), opts.output)
    return 0


def _cmd_polymul(opts: Options) -> int:
    stream = splitmix64(opts.seed)
    a = _load_or_generate(opts, "input", stream)
    b = _load_or_generate(opts, "input_b", stream)
    if a.mod.q != b.mod.q or a.n != b.n:
        raise ValueError("operand files disagree on N or q")
    mod = a.mod.with_root()
    product = polymul_ntt(Polynomial(a.coeffs, mod), Polynomial(b.coeffs, mod), mod)
    buf = io.StringIO()
    write_polynomial(product, buf)
    _write_output(buf.getvalue(), opts.output)
    return 0


def _cmd_predict(opts: Options) -> int:
    if opts.n is None or opts.npe is None:
        raise ValueError("predict requires --n and --npe")
    pipe, _name = _pipeline(opts)
    cycles = predicted_cycles(opts.n, opts.npe, pipe, opts.setup_cycles, opts.op)
    _write_output(f"{cycles}\n", opts.output)
    return 0


def _cmd_layout_check(opts: Options) -> int:
    if opts.n is None:
        raise ValueError("layout-check requires --n")
    report = verify_conflict_free(opts.n, kind=opts.layout)
    _write_output(report.to_json_lines(), opts.output)
    return 0


def _cmd_schedule_dump(opts: Options) -> int:
    if opts.n is None or opts.npe is None:
        raise ValueError("schedule dump requires --n and --npe")
    op = opts.op if opts.op != "polymul" else "ntt"
    trace = build_schedule(opts.n, opts.npe, op, layout_kind=opts.layout)
    buf = io.StringIO()
    export_csv(trace, buf)
    _write_output(buf.getvalue(), opts.output)
    return 0


def _cmd_sim(opts: Options) -> int:
    if opts.n is None or opts.npe is None:
        raise ValueError("sim requires --n and --npe")
    pipe, name = _pipeline(opts)
    moduli = _moduli(opts, opts.n)
    config = make_sim_config(
        opts.n,
        opts.npe,
        moduli=moduli,
        profile=pipe if name == "custom" else name,
        setup_cycles=opts.setup_cycles,
        hazard_policy=opts.policy,
        layout_kind=opts.layout,
    )
    stream = splitmix64(opts.seed)
    basis = RnsBasis.from_moduli(config.moduli)
    a_vals = [next(stream) % basis.big_q for _ in range(opts.n)]
    b_vals = [next(stream) % basis.big_q for _ in range(opts.n)]
    if opts.input is not None:
        if len(config.moduli) != 1:
            raise ValueError("file-driven sim supports a single modulus")
        with open(opts.input) as fh:
            a = read_polynomial(fh, config.moduli[0])
    else:
        a = decompose(a_vals, basis)
    needs_b = opts.op in ("mult", "polymul")
    b = None
    if needs_b:
        if opts.input_b is not None:
            with open(opts.input_b) as fh:
                b = read_polynomial(fh, config.moduli[0])
        else:
            b = decompose(b_vals, basis)
    report = run(config, a, b, op=opts.op)
    if opts.format == "text":
        lines = [
            f"op {report.op}: total cycles {report.total_cycles}, "
            f"stalls {report.stall_cycles}, conflicts {report.bank_conflict_count}",
        ]
        for rep in report.reports:
            lines.append(
                f"  {rep.op_kind}: issue {rep.issue_cycles}, "
                f"total {rep.total_cycles}, stalls {rep.stall_cycles}, "
                f"utilization {rep.utilization:.3f}"
            )
        _write_output("\n".join(lines) + "\n", opts.output)
    else:
        _write_output(report.to_json() + "\n", opts.output)
    return 0


_HANDLERS = {
    "ntt": _cmd_transform,
    "intt": _cmd_transform,
    "polymul": _cmd_polymul,
    "sim": _cmd_sim,
    "schedule": _cmd_schedule_dump,
    "layout-check": _cmd_layout_check,
    "predict": _cmd_predict,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nttsim",
        description="negacyclic NTT tools and accelerator simulation",
    )
    parser.add_argument("--config", type=str, help="key=value options file")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "schedule":
            p.add_argument("action", nargs="?", default="dump", choices=["dump"])
        _add_common_options(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config_file(args.config) if args.config else {}
        opts = _resolve(args, config)
        return _HANDLERS[opts.command](opts)
    except SimHazardError as exc:
        print(f"hazard: {exc}", file=sys.stderr)
        return 2
    except SimMismatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
