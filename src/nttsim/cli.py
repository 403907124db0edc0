"""Command-line front end.

Commands: ntt, intt, polymul (reference transforms on polynomial files),
sim (cycle-accurate replay), schedule dump (trace CSV), layout-check
(bank-conflict audit) and predict (closed-form cycle count).

Options may come from a flat key=value config file (one nesting level
for the pipeline profile, as in ``pipeline.delay_read``); command-line
flags override file values, and both are checked alike; --op, --profile,
--policy and --layout take their choices from the library's own tables.
Identical config and seed produce byte-identical output.

ntt, intt, polymul and sim decide N, the moduli and their operands by
one rule. An operand file fixes N and q for every command, sim included,
so with a file sim needs no --n; --n, --q and --q-bits may repeat what
the files say but not change it, and two operand files must agree. A
file gives one modulus, so an --nq other than 1 beside it is refused.
Every check, q = 1 mod 2N included, comes before the first draw. An
operand without a file is drawn from a splitmix64 stream (64-bit state;
increment 0x9E3779B97F4A7C15, mix constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB): drawn operands take the stream's values in operand
order, N each, reduced mod Q (the product of the moduli) and split over
the moduli, which is mod q for one modulus. An operand read from a file
uses no draws. Any implementation can reproduce the operands from the
seed alone.

Exit codes: 0 success, 1 validation or usage error, 2 hazard under the
fail-fast policy, 3 simulator-versus-reference mismatch.
"""

import argparse
import io
import sys
from dataclasses import fields, replace
from typing import Callable, Iterator, List, Optional, Sequence

from nttsim.layout import KINDS, verify_conflict_free
from nttsim.modarith import Modulus, barrett_precompute
from nttsim.ntt import (
    cached_twiddles,
    intt_gs,
    ntt_ct,
    polymul_ntt,
    read_polynomial,
    write_polynomial,
)
from nttsim.rns import RnsBasis, RnsPolynomial, _check_count, decompose, gen_basis
from nttsim.schedule import PROFILES, PipelineConfig, build_schedule, export_csv
from nttsim.sim import (
    HAZARD_POLICIES,
    OPS,
    SimHazardError,
    SimMismatchError,
    make_sim_config,
    op_steps,
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


class Options(dict):
    """Resolved option bag: flags override config, config overrides defaults."""

    def __getattr__(self, key):
        return self[key]


def _pipeline(opts: Options):
    pipe = PROFILES[opts.profile]
    overrides = {f.name: opts[f"pipeline.{f.name}"] for f in fields(PipelineConfig)
                 if opts[f"pipeline.{f.name}"] is not None}
    if overrides:
        return replace(pipe, **overrides), "custom"
    return pipe, opts.profile


def _write_output(text: str, path: Optional[str]) -> None:
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    elif not hasattr(sys.stdout, "buffer"):  # a text stream such as StringIO
        sys.stdout.write(text)
    else:
        # an unbuffered stdout writes to a raw file, which may stop short:
        # write to the end, so that a closed pipe fails the next write
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding))
        while data:
            data = data[sys.stdout.buffer.write(data):]


def _operands(opts: Options, settle: Callable[[int, Sequence[Modulus]], object]):
    """Decide N, the moduli and the operands of ntt, intt, polymul or sim
    by the rule in the module docstring.

    The command uses --input, and also --input-b for polymul and for sim
    --op mult|polymul; the others refuse --input-b. settle(N, moduli)
    checks the rest of the command before any operand is drawn; its
    result is returned with the operands [a, b], each an RnsPolynomial
    over the moduli (b is None when the command takes one operand).
    """
    names = ["input"]
    if "mult" in op_steps(opts.op if opts.command == "sim" else opts.command):
        names.append("input_b")
    elif opts.input_b is not None:
        command = f"sim --op {opts.op}" if opts.command == "sim" else opts.command
        raise ValueError(f"{command} takes one operand; "
                         "--input-b is for polymul and sim --op mult|polymul")
    files = {}
    for name in names:
        if opts[name] is not None:
            with open(opts[name]) as fh:
                poly = files[name] = read_polynomial(fh)
            if opts.n not in (None, poly.n):
                raise ValueError(f"file N={poly.n} does not match --n {opts.n}")
    if len({(p.n, p.mod.q) for p in files.values()}) > 1:
        raise ValueError("operand files disagree on N or q")
    fixed = next(iter(files.values()), None)
    n = opts.n if fixed is None else fixed.n
    if n is None:
        raise ValueError("--n is required when no input file is given")
    if opts.q is not None:
        if opts.q_bits is not None or opts.nq != 1:
            raise ValueError("--q lists the moduli; it takes no --q-bits or --nq")
        entries = opts.q.split(",")
        _check_count(len(entries))  # before one primality test per entry
        moduli = [barrett_precompute(int(x)) for x in entries]
    elif opts.q_bits is not None:
        moduli = gen_basis(opts.q_bits, opts.nq, n).moduli
    elif fixed is not None:
        if opts.nq != 1:
            raise ValueError("an operand file fixes the modulus; --nq needs --q-bits")
        moduli = [fixed.mod]
    else:
        raise ValueError("either --q or --q-bits is required")
    settled = settle(n, moduli)
    if len(moduli) != 1:
        if opts.command != "sim":
            raise ValueError(f"{opts.command} takes one modulus, got {len(moduli)}")
        if files:
            raise ValueError("file-driven sim supports a single modulus")
    if fixed is not None and fixed.mod.q != moduli[0].q:
        raise ValueError(f"file modulus {fixed.mod.q} does not match expected {moduli[0].q}")
    basis = RnsBasis.from_moduli(moduli)
    stream = splitmix64(opts.seed)
    operands = []
    for name in ("input", "input_b"):
        if name in files:
            operands.append(RnsPolynomial((files[name],)))
        elif name in names:
            operands.append(decompose([next(stream) % basis.big_q for _ in range(n)], basis))
        else:
            operands.append(None)
    return settled, operands


def _cmd_reference(opts: Options) -> int:
    _, (a, b) = _operands(opts, lambda n, moduli: cached_twiddles(moduli[0], n))
    (a,) = a.residue_polys
    if opts.command == "polymul":
        result = polymul_ntt(a, b.residue_polys[0])
    else:
        result = ntt_ct(a) if opts.command == "ntt" else intt_gs(a)
    buf = io.StringIO()
    write_polynomial(result, buf)
    _write_output(buf.getvalue(), opts.output)
    return 0


def _cmd_predict(opts: Options) -> int:
    if opts.n is None or opts.npe is None:
        raise ValueError("predict requires --n and --npe")
    if opts.layout != "shifted":
        # the closed form counts the shifted schedule; the sequential
        # layout's bank conflicts and stalls are not in it, so only sim
        # counts that layout's cycles
        raise ValueError(f"predict has no closed form for the {opts.layout} layout; "
                         "sim counts its cycles")
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
    # an op's schedule is that of its first step: polymul dumps its ntt
    trace = build_schedule(opts.n, opts.npe, op_steps(opts.op)[0], layout_kind=opts.layout)
    buf = io.StringIO()
    export_csv(trace, buf)
    _write_output(buf.getvalue(), opts.output)
    return 0


def _cmd_sim(opts: Options) -> int:
    if opts.npe is None:
        raise ValueError("sim requires --npe")
    pipe, name = _pipeline(opts)
    config, (a, b) = _operands(opts, lambda n, moduli: make_sim_config(
        n,
        opts.npe,
        moduli=moduli,
        profile=pipe if name == "custom" else name,
        setup_cycles=opts.setup_cycles,
        hazard_policy=opts.policy,
        layout_kind=opts.layout,
    ))
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
    "ntt": _cmd_reference,
    "intt": _cmd_reference,
    "polymul": _cmd_reference,
    "sim": _cmd_sim,
    "schedule": _cmd_schedule_dump,
    "layout-check": _cmd_layout_check,
    "predict": _cmd_predict,
}


COMMANDS = tuple(_HANDLERS)

# key: (type, choices, default, help) for every option. A config file may
# set any key; each but command, which the subcommand sets, is also the
# flag --<last dotted part, with - for _>. Flags and file values are
# parsed and checked alike by _parse.
OPTIONS = {
    "command": (str, COMMANDS, None, None),
    "n": (int, None, None, "polynomial degree (power of two)"),
    "npe": (int, None, None, "number of butterfly units"),
    "q": (str, None, None, "explicit prime modulus (comma list for RNS)"),
    "q_bits": (int, None, None, "modulus bit width"),
    "nq": (int, None, 1, "number of RNS moduli"),
    "profile": (str, PROFILES, "q32", "pipeline profile"),
    **{f"pipeline.{f.name}": (int, None, None, None) for f in fields(PipelineConfig)},
    "setup_cycles": (int, None, 0, None),
    "policy": (str, HAZARD_POLICIES, "stall", None),
    "layout": (str, KINDS, "shifted", None),
    "seed": (int, None, 0, "input generator seed"),
    "op": (str, OPS, "ntt", None),
    "input": (str, None, None, "input polynomial file"),
    "input_b": (str, None, None, "second operand file"),
    "output": (str, None, None, "output file (default stdout)"),
    "format": (str, ("json", "text"), "json", "report format"),
}


def _parse(key: str, raw: str):
    if key not in OPTIONS:
        raise ValueError(f"unknown key {key!r}")
    kind, choices, _default, _help = OPTIONS[key]
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"{key}: invalid {kind.__name__} value {raw!r}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"{key}: invalid choice {raw!r} (choose from {', '.join(choices)})")
    return value


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
            try:
                values[key.strip()] = _parse(key.strip(), val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, config: dict) -> Options:
    opts = Options()
    for key, (_kind, _choices, default, _help) in OPTIONS.items():
        flag_val = getattr(args, key, None)
        opts[key] = config.get(key, default) if flag_val is None else _parse(key, flag_val)
    if opts.command is None:
        raise ValueError("no command given on the command line or in the config")
    return opts


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other validation error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nttsim",
        description="negacyclic NTT tools and accelerator simulation",
    )
    parser.add_argument("--config", type=str, help="key=value options file")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "schedule":
            p.add_argument("action", nargs="?", default="dump", choices=["dump"])
        for key, (_kind, choices, _default, help_text) in OPTIONS.items():
            if key != "command":
                p.add_argument(
                    "--" + key.rpartition(".")[2].replace("_", "-"),
                    dest=key,
                    # _parse checks the choices; show them as argparse would
                    metavar=None if choices is None else "{" + ",".join(choices) + "}",
                    help=help_text,
                )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
