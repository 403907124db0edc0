"""Tests for the command-line front end: validation, golden outputs,
exit-code categories and byte-level determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nttsim
from nttsim import cli, layout, schedule, sim
from nttsim.cli import main, splitmix64
from nttsim.modarith import barrett_precompute
from nttsim.ntt import Polynomial, schoolbook_negacyclic


# 16 coefficients mod 16193 = ntt_modulus(14, 16)
A_POLY = "16 16193\n" + "".join(f"{i}\n" for i in range(16))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidation:
    def test_npe_not_power_of_two(self, capsys):
        code, _out, err = run_cli(
            ["sim", "--n", "4096", "--npe", "3", "--q-bits", "32"], capsys
        )
        assert code == 1
        assert "Npe" in err

    def test_odd_log2_rejected_for_sim(self, capsys):
        code, _out, err = run_cli(
            ["sim", "--n", "2048", "--npe", "16", "--q-bits", "32"], capsys
        )
        assert code == 1
        assert "2048" in err

    def test_reference_transform_allows_odd_log2(self, tmp_path, capsys):
        out = tmp_path / "t.poly"
        code, _o, _e = run_cli(
            ["ntt", "--n", "8", "--q-bits", "14", "--seed", "5",
             "--output", str(out)], capsys
        )
        assert code == 0
        assert out.read_text().splitlines()[0].startswith("8 ")

    def test_choices_come_from_the_library(self):
        """Every enumerated option but the command and the report format
        reads the library's own table, so no hand-written list can drift
        from it."""
        tables = {"op": sim.OPS, "policy": sim.HAZARD_POLICIES, "layout": layout.KINDS,
                  "profile": schedule.PROFILES}
        enumerated = {key for key, option in cli.OPTIONS.items() if option[1] is not None}
        assert enumerated - {"command", "format"} == set(tables)
        for key, table in tables.items():
            assert cli.OPTIONS[key][1] is table, key

    def test_unknown_profile(self, capsys):
        code, _out, err = run_cli(
            ["predict", "--n", "4096", "--npe", "16", "--profile", "q99"], capsys
        )
        assert code == 1


class TestRejectedInput:
    """Bad values end in exit code 1 and a single line on stderr."""

    @pytest.mark.parametrize("args", [
        ["predict", "--n", "16", "--npe", "2", "--profile", "ideal", "--setup-cycles", "-50"],
        ["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--setup-cycles", "-5"],
        ["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--nq", "0"],
        ["ntt", "--n", "16", "--q-bits", "14", "--nq", "0"],
        # usage errors end like validation errors, without a usage dump
        ["sim", "--n", "abc", "--npe", "2", "--q-bits", "14"],
        ["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--format", "xml"],
        ["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--bogus", "1"],
    ])
    def test_exit_1_one_line(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("line,message", [
        ("format = xml", "format: invalid choice 'xml' (choose from json, text)"),
        ("n = abc", "n: invalid int value 'abc'"),
    ])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command = sim\nn = 16\nnpe = 2\nq_bits = 14\n{line}\n")
        code, out, err = run_cli(["--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {cfg}:5: {message}\n"

    @pytest.mark.parametrize("args,message", [
        (["sim", "--n", "16", "--npe", "2", "--q", "15"], "modulus 15 is not prime"),
        (["predict", "--n", "16", "--npe", "2", "--op", "polymul", "--layout", "diagonal"],
         "layout: invalid choice 'diagonal' (choose from shifted, sequential)"),
        # a 63-bit prime, 1 mod 32: the uint64 Barrett kernels stop at 62 bits
        (["sim", "--n", "16", "--npe", "2", "--q", "9223372036854775073", "--op", "polymul"],
         "modulus 9223372036854775073 outside supported range [3, 2^62)"),
        # setup cycles and pipeline delays stop below 2^32, far inside the
        # int64 cycle columns, which they would otherwise wrap or overflow
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--profile", "ideal",
          "--setup-cycles", "9223372036854775800", "--format", "text"],
         "setup cycles must be below 2^32, got 9223372036854775800"),
        (["predict", "--n", "16", "--npe", "2", "--profile", "ideal",
          "--setup-cycles", "9223372036854775800"],
         "setup cycles must be below 2^32, got 9223372036854775800"),
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--setup-cycles", "10" + "0" * 21],
         "setup cycles must be below 2^32, got 10" + "0" * 21),
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--delay-pe-ntt", "4294967296"],
         "delay_pe_ntt must be below 2^32"),
        (["predict", "--n", "16", "--npe", "2", "--delay-read", "10" + "0" * 21],
         "delay_read must be below 2^32"),
        # the single-modulus commands use no second prime, so they refuse one
        (["ntt", "--n", "16", "--q", "97,193"], "ntt takes one modulus, got 2"),
        (["polymul", "--n", "16", "--q", "97,193"], "polymul takes one modulus, got 2"),
        (["ntt", "--n", "16", "--q-bits", "14", "--nq", "3"], "ntt takes one modulus, got 3"),
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--nq", "0"],
         "at least one modulus is required"),
        # a.poly is A_POLY: 16 coefficients mod 16193; its header fixes N and q
        (["ntt", "--input", "a.poly", "--q", "193"],
         "file modulus 16193 does not match expected 193"),
        (["ntt", "--input", "a.poly", "--q-bits", "20"],
         "file modulus 16193 does not match expected 1048193"),
        (["polymul", "--input", "a.poly", "--input-b", "a.poly", "--q", "193"],
         "file modulus 16193 does not match expected 193"),
        (["ntt", "--input", "a.poly", "--n", "64"], "file N=16 does not match --n 64"),
        # --q names every modulus itself
        (["sim", "--n", "16", "--npe", "2", "--q", "97", "--q-bits", "14"],
         "--q lists the moduli; it takes no --q-bits or --nq"),
        (["sim", "--n", "16", "--npe", "2", "--q", "97", "--nq", "3"],
         "--q lists the moduli; it takes no --q-bits or --nq"),
        # the file fixes N for sim too, and a file operand takes one modulus
        (["sim", "--input", "a.poly", "--n", "64", "--npe", "2", "--q-bits", "14"],
         "file N=16 does not match --n 64"),
        (["sim", "--input-b", "a.poly", "--n", "16", "--npe", "2", "--q-bits", "14", "--nq", "2",
          "--op", "polymul"],
         "file-driven sim supports a single modulus"),
        # a file gives one modulus: --nq cannot ask for another count
        (["ntt", "--input", "a.poly", "--nq", "0"],
         "an operand file fixes the modulus; --nq needs --q-bits"),
        (["sim", "--input", "a.poly", "--npe", "2", "--nq", "4"],
         "an operand file fixes the modulus; --nq needs --q-bits"),
        # with a file, sim needs no --n; only --npe is missing
        (["sim", "--input", "a.poly"], "sim requires --npe"),
        # --input-b names a second operand: a one-operand command refuses it
        # rather than ignore it, and opens neither file
        (["ntt", "--input", "a.poly", "--input-b", "missing.poly"],
         "ntt takes one operand; --input-b is for polymul and sim --op mult|polymul"),
        (["intt", "--n", "16", "--q-bits", "14", "--input-b", "a.poly"],
         "intt takes one operand; --input-b is for polymul and sim --op mult|polymul"),
        (["sim", "--input", "a.poly", "--npe", "2", "--op", "ntt", "--input-b", "missing.poly"],
         "sim --op ntt takes one operand; --input-b is for polymul and sim --op mult|polymul"),
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "14", "--op", "intt",
          "--input-b", "a.poly"],
         "sim --op intt takes one operand; --input-b is for polymul and sim --op mult|polymul"),
        # commands that need N or Npe and are given none
        (["predict", "--npe", "2"], "predict requires --n and --npe"),
        (["layout-check"], "layout-check requires --n"),
        (["schedule", "dump", "--n", "16"], "schedule dump requires --n and --npe"),
        # the profile is a choice of schedule.PROFILES, refused when parsed
        (["predict", "--profile", "q99"],
         "profile: invalid choice 'q99' (choose from q32, q14, ideal)"),
        (["--config", "q99.cfg"],
         "q99.cfg:4: profile: invalid choice 'q99' (choose from q32, q14, ideal)"),
        # a negative bit width is refused by name, not as a negative shift
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "-1"], "bit width -1 is negative"),
        # repeated moduli are refused as an RNS basis
        (["sim", "--n", "16", "--npe", "2", "--q", "97,97"], "basis primes must be distinct"),
        # an N above the maximum is refused before any table or draw
        (["ntt", "--n", "4194304", "--q-bits", "62"], "N=4194304 exceeds the maximum N=1048576"),
        (["sim", "--n", "4194304", "--npe", "4", "--q-bits", "32", "--op", "polymul"],
         "N=4194304 exceeds the maximum N=1048576"),
        # so is a channel count above the maximum, before the prime scan
        (["sim", "--n", "16", "--npe", "2", "--q-bits", "62", "--nq", "16000", "--op", "polymul"],
         "Nq=16000 exceeds the maximum Nq=64"),
        # and so is an over-long --q list, before any entry's primality test
        (["sim", "--n", "16", "--npe", "2", "--q", ",".join(["15"] + ["97"] * 64)],
         "Nq=65 exceeds the maximum Nq=64"),
        # a prime chain shorter than --nq is refused with what it found
        (["sim", "--n", "1024", "--npe", "4", "--q-bits", "14", "--nq", "2"],
         "only 1 prime below 2^14 is congruent to 1 mod 2048; 2 were asked for"),
        # the closed form is the shifted layout's; sim counts the sequential one
        (["predict", "--layout", "sequential", "--n", "1024", "--npe", "8", "--op", "polymul"],
         "predict has no closed form for the sequential layout; sim counts its cycles"),
    ])
    def test_pinned_messages(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.poly").write_text(A_POLY)
        (tmp_path / "q99.cfg").write_text("command = predict\nn = 16\nnpe = 2\nprofile = q99\n")
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("n_total", [-16, 0, 1, 4, 8, 12, 32, 2048])
    def test_one_geometry_message(self, capsys, n_total):
        """Every command on the square memory refuses an N outside it with
        the layout's one message."""
        n = str(n_total)
        line = (f"error: N={n_total} unsupported: the square memory needs "
                "a power of two with even log2 and N >= 16\n")
        for args in (["sim", "--n", n, "--npe", "2", "--q", "7681"],
                     ["predict", "--n", n, "--npe", "2"],
                     ["schedule", "dump", "--n", n, "--npe", "2"],
                     ["layout-check", "--n", n]):
            assert run_cli(args, capsys) == (1, "", line), args

    @pytest.mark.parametrize("flags", [
        ["--n", "16"], ["--q", "16193"], ["--q-bits", "14"], ["--n", "16", "--q-bits", "14"],
        ["--n", "16", "--q", "16193"],
    ])
    def test_flags_that_agree_with_the_file(self, tmp_path, capsys, flags):
        """A file fixes N and q for every command: polymul and sim draw
        the operands the file does not give to the file's N and q."""
        src = tmp_path / "a.poly"
        src.write_text(A_POLY)
        for command in (["ntt"], ["intt"], ["polymul"], ["sim", "--npe", "2"],
                        ["sim", "--npe", "2", "--op", "polymul"]):
            plain = run_cli([*command, "--input", str(src)], capsys)
            assert run_cli([*command, "--input", str(src), *flags], capsys) == plain
            assert plain[0] == 0

    @pytest.mark.parametrize("args", [
        # geometry fails after N and the moduli are settled
        ["sim", "--n", "2048", "--npe", "16", "--q-bits", "32"],
        ["sim", "--n", "16", "--npe", "3", "--q-bits", "14"],
        # every operand file is read and checked before the first draw
        ["sim", "--input", "missing.poly", "--n", "16", "--npe", "2", "--q-bits", "14"],
        ["sim", "--input", "a.poly", "--n", "16", "--npe", "2", "--q", "193"],
        ["polymul", "--n", "16", "--q-bits", "14", "--input-b", "missing.poly"],
        # q = 16369 is 1 mod 16, not mod 2N = 512: no N-point transform
        ["sim", "--n", "256", "--npe", "8", "--q", "16369"],
        ["ntt", "--n", "256", "--q", "16369"],
        ["polymul", "--n", "256", "--q", "16369"],
    ])
    def test_no_draw_before_validation(self, tmp_path, monkeypatch, capsys, args):
        def no_draws(seed):
            raise AssertionError("operand drawn before validation")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.poly").write_text(A_POLY)
        monkeypatch.setattr(cli, "splitmix64", no_draws)
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 32.0 GiB"), "error: Unable to allocate 32.0 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_out_of_memory(self, monkeypatch, capsys, exc, line):
        def handler(opts):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "layout-check", handler)
        code, out, err = run_cli(["layout-check", "--n", "16"], capsys)
        assert (code, out, err) == (1, "", line)

    def test_poly_file_unreduced_coefficient(self, tmp_path, capsys):
        src = tmp_path / "bad.poly"
        src.write_text("4 97\n1\n2\n98\n3\n")
        code, out, err = run_cli(["ntt", "--input", str(src)], capsys)
        assert (code, out, err) == (1, "", "error: coefficients not reduced mod 97\n")

    def test_poly_file_63_bit_modulus(self, tmp_path, capsys):
        src = tmp_path / "wide.poly"
        src.write_text("4 9223372036854775073\n1\n2\n3\n4\n")
        code, out, err = run_cli(["ntt", "--input", str(src)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: modulus 9223372036854775073 outside supported range [3, 2^62)\n"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe(self, unbuffered):
        """A reader that stops early ends the dump with exit 1 and one line."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(nttsim.__file__)), env.get("PYTHONPATH")])
        )
        with subprocess.Popen(
            [sys.executable, "-m", "nttsim.cli", "schedule", "dump", "--n", "16384", "--npe", "64"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b"error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("body,found", [
        ("1\n2\n3\n4\n5\n6\n", 6),  # over-long
        ("1\n2\n", 2),  # truncated
    ])
    def test_poly_file_with_wrong_count(self, tmp_path, capsys, body, found):
        src = tmp_path / "bad.poly"
        src.write_text("4 17\n" + body)
        code, out, err = run_cli(["ntt", "--input", str(src)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: polynomial header says 4 coefficients, the file has {found}\n"

    def test_poly_file_trailing_blank_lines(self, tmp_path, capsys):
        src = tmp_path / "ok.poly"
        src.write_text("4 17\n3\n1\n4\n1\n\n\n")
        code, _out, err = run_cli(["ntt", "--input", str(src)], capsys)
        assert code == 0 and err == ""


# two 14-bit primes that are 1 mod 2N for N = 16 and N = 64
FILE_PRIMES = (12289, 16001)


@pytest.fixture(scope="module")
def operand_files(tmp_path_factory):
    """One operand file per (N, q) of the operand-flag property."""
    root = tmp_path_factory.mktemp("operands")
    paths = {}
    for n in (16, 64):
        for q in FILE_PRIMES:
            paths[n, q] = root / f"p{n}_{q}.poly"
            paths[n, q].write_text(f"{n} {q}\n" + "".join(f"{(7 * i + n) % q}\n" for i in range(n)))
    return paths


def _main_output(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


_shapes = st.none() | st.tuples(st.sampled_from((16, 64)), st.sampled_from(FILE_PRIMES))


class TestOperandFlags:
    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from((["ntt"], ["intt"], ["polymul"], ["sim", "--npe", "2"],
                                 ["sim", "--npe", "2", "--op", "mult"],
                                 ["sim", "--npe", "2", "--op", "polymul"])),
        a=_shapes,
        b=_shapes,
        n=st.none() | st.sampled_from((16, 64)),
        q=st.none() | st.sampled_from((*map(str, FILE_PRIMES), "12289,16001")),
        q_bits=st.none() | st.sampled_from((14, 20)),
        nq=st.none() | st.sampled_from((1, 2)),
    )
    def test_one_operand_rule(self, operand_files, command, a, b, n, q, q_bits, nq):
        """Every command ends in exit 0 or 1 (sim may stop on a hazard with
        2), a refusal prints one error line and nothing else, and flags
        that repeat the file's N and q change nothing."""
        args = list(command)
        for flag, value in (("--n", n), ("--q", q), ("--q-bits", q_bits), ("--nq", nq)):
            if value is not None:
                args += [flag, str(value)]
        for flag, shape in (("--input", a), ("--input-b", b)):
            if shape is not None:
                args += [flag, str(operand_files[shape])]
        code, out, err = _main_output(args)
        assert code in ((0, 1, 2) if command[0] == "sim" else (0, 1))
        if code == 1:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        elif code == 0:
            assert err == ""
        uses_b = command[0] == "polymul" or command[-1] in ("mult", "polymul")
        fixed = a if a is not None else b if uses_b else None
        if fixed is not None:
            repeated = list(args)
            if n is None:
                repeated += ["--n", str(fixed[0])]
            if q is None and q_bits is None and nq in (None, 1):
                repeated += ["--q", str(fixed[1])]
            assert _main_output(repeated)[1] == out


class TestPredict:
    def test_golden_value(self, capsys):
        code, out, _err = run_cli(
            ["predict", "--n", "4096", "--npe", "16", "--profile", "q32"], capsys
        )
        assert code == 0
        assert out.strip() == "1555"

    def test_op_selection(self, capsys):
        code, out, _err = run_cli(
            ["predict", "--n", "4096", "--npe", "4", "--profile", "q32",
             "--op", "mult"], capsys
        )
        assert code == 0
        assert out.strip() == "1042"

    def test_sequential_layout_refused_from_a_file(self, tmp_path, capsys):
        # the file's layout is refused as the flag's is, not dropped
        cfg = tmp_path / "predict.cfg"
        cfg.write_text("command = predict\nn = 1024\nnpe = 8\nop = polymul\n"
                       "layout = sequential\n")
        assert run_cli(["--config", str(cfg)], capsys) == (
            1, "", "error: predict has no closed form for the sequential layout; "
            "sim counts its cycles\n")

    def test_refusal_when_bound_violated(self, capsys):
        code, _out, err = run_cli(
            ["predict", "--n", "16", "--npe", "2", "--profile", "q32"], capsys
        )
        assert code == 1
        assert "bound" in err.lower()


class TestPolymul:
    def test_golden_pair(self, tmp_path, capsys):
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        out = tmp_path / "c.poly"
        a.write_text("4 17\n1\n1\n0\n0\n")
        b.write_text("4 17\n16\n1\n0\n0\n")
        code, _o, _e = run_cli(
            ["polymul", "--input", str(a), "--input-b", str(b),
             "--output", str(out)], capsys
        )
        assert code == 0
        assert out.read_text() == "4 17\n16\n0\n1\n0\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _o, err = run_cli(
            ["polymul", "--input", str(tmp_path / "nope.poly"),
             "--input-b", str(tmp_path / "nope2.poly")], capsys
        )
        assert code == 1

    def test_ntt_intt_file_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "src.poly"
        mid = tmp_path / "mid.poly"
        back = tmp_path / "back.poly"
        src.write_text("4 17\n3\n1\n4\n1\n")
        assert main(["ntt", "--input", str(src), "--output", str(mid)]) == 0
        assert main(["intt", "--input", str(mid), "--output", str(back)]) == 0
        capsys.readouterr()
        assert back.read_text() == src.read_text()


class TestLayoutCheck:
    def test_sequential_has_findings(self, capsys):
        code, out, _err = run_cli(
            ["layout-check", "--n", "16", "--layout", "sequential"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        assert summary["violations"] > 0

    def test_shifted_is_clean(self, capsys):
        code, out, _err = run_cli(["layout-check", "--n", "16"], capsys)
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["violations"] == 0

    # sha256 of the stdout of `nttsim layout-check`, recorded when each
    # violation was a dict written by json.dumps(..., sort_keys=True)
    PINS = {
        (16, "shifted"): "51d2422cf7b3242f46cadb00768406508c0e75b1528be4ea6d09301e5f0f01ae",
        (16, "sequential"): "2badedbc47bc9a11c0d73f9f56fea132965763e3cadef4ffa7daafbcddc2a1f8",
        (1024, "shifted"): "d3b73dded02b78961a3054c116f28c2b4c8863015e40909e69872f0c0a77a57d",
        (1024, "sequential"): "0539c11cc3262f4a7ae461a95eab1cb717c1fe36c466bd1f447ca7c1121a29d0",
        (16384, "shifted"): "4e5c14e3e80a986c0c6ea2f21b9a82ee64d9ced2c475c0d28525ee9414d8ad94",
        (16384, "sequential"): "f7b5c38dbc04030f4dbdc56f2e194054a577878727366a74c3704de0ebb50689",
    }

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_pinned_output(self, key, capsys):
        n_total, layout = key
        code, out, err = run_cli(["layout-check", "--n", str(n_total), "--layout", layout], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[key]


class TestScheduleDump:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _o, _e = run_cli(
            ["schedule", "dump", "--n", "16", "--npe", "2", "--op", "ntt",
             "--output", str(out)], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 32
        assert rows[0]["cycle"] == "0"

    # sha256 of the stdout of `nttsim schedule dump`, recorded from the
    # per-record trace builder before traces became column arrays
    PINS = {
        (64, 2, "ntt", "shifted"): "e8e201364e1c51b97b5c569fc739dffd02f209534b4f2a0027fe29a9dd49e1d3",
        (64, 2, "ntt", "sequential"): "143943c3595638e35f4bfb7fd30e69b3781a83f51f0824ebb0dabfb3a0ca6ef6",
        (64, 2, "intt", "shifted"): "1c921e86ae0249ad43973b25e8530796ec586a83df3d6a599d538a0873d7746f",
        (64, 2, "intt", "sequential"): "d6c2fb208ac93b03a6e03ee3159969878bfc375d9c6c2adfa50df6dc135bd16c",
        (64, 2, "mult", "shifted"): "e3b1019e1542dc1825c6cdabe4d49927c368d6d0b54d0ddd68fa74e0f1337a19",
        (64, 2, "mult", "sequential"): "b0aa16e41e1d76dfe7b8179fc829fde4d5fa6196f7c251067e70ef1a45cba133",
        (1024, 8, "ntt", "shifted"): "4af21f31ffa2492f7ca4977bc328205a638558c86e6aa3cdedcf918e98565dbe",
        (1024, 8, "ntt", "sequential"): "346d10b40d5bf3c06d6380c09764e351cc3cfe6aadebd3f585b4e996513f84e2",
        (1024, 8, "intt", "shifted"): "342802f205cb99942bcb5f42d35cef5322dc2dcac9c3d702e34ff270269d686a",
        (1024, 8, "intt", "sequential"): "1eee1b25b4480ea62f36f0f9a7aedc1caa12110abd240f0fb3d90e832f834244",
        (1024, 8, "mult", "shifted"): "85f3c08b2b43291591af4bcea0a16cb1f7ee0c6d6a0152191b649f53cfdcfffb",
        (1024, 8, "mult", "sequential"): "d06c0681f841c16e700493434088d7d769612e4aedf79ad94114c80d3ea143c7",
    }

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_pinned_dump(self, key, capsys):
        n_total, npe, op, layout = key
        code, out, _e = run_cli(
            ["schedule", "dump", "--n", str(n_total), "--npe", str(npe),
             "--op", op, "--layout", layout], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[key]


class TestSim:
    def test_table_row_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _o, _e = run_cli(
            ["sim", "--n", "4096", "--npe", "32", "--q-bits", "32", "--nq", "1",
             "--op", "ntt", "--output", str(out)], capsys
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["total_cycles"] == 787
        assert data["stalls"] == 0
        assert data["conflicts"] == 0
        assert data["config"]["N"] == 4096

    def test_deterministic_output(self, capsys):
        args = ["sim", "--n", "64", "--npe", "4", "--q-bits", "14",
                "--profile", "ideal", "--seed", "9"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fail_fast_exit_code(self, capsys):
        code, _out, err = run_cli(
            ["sim", "--n", "16", "--npe", "2", "--q-bits", "14",
             "--profile", "q32", "--policy", "fail-fast"], capsys
        )
        assert code == 2
        assert "hazard" in err.lower()

    def test_text_format(self, capsys):
        code, out, _err = run_cli(
            ["sim", "--n", "64", "--npe", "4", "--q-bits", "14",
             "--profile", "ideal", "--format", "text"], capsys
        )
        assert code == 0
        assert "total cycles" in out.lower()

    # sha256 of stdout, exit code and stderr of each command line, recorded
    # before the plain Barrett array kernel left the library
    PINS = {
        "sim --n 64 --npe 4 --q-bits 14 --op polymul --seed 3": ("d9e6770b30ce22c4b10cb28fd39f5401f033478ebafa4905b5400982a31dc4fe", 0, ""),
        "sim --n 64 --npe 4 --q-bits 32 --op polymul --seed 3": ("1a8fc44d6b4ad862aa78659e3e5d4497d16df49d06a0a6fa82a12ba5911a09ef", 0, ""),
        "sim --n 64 --npe 4 --q-bits 40 --op polymul --seed 3": ("747ebaf8efb750a3fd57320be7e2f631fbcc4ba5a57e2e51fc4ce95a8f75e78a", 0, ""),
        "sim --n 64 --npe 4 --q-bits 62 --op polymul --seed 3": ("5160e521a41d252d1b476ba5d333b2d2a7c17e5de7cd70a880db6733489a4482", 0, ""),
        "sim --n 64 --npe 4 --q-bits 14 --op polymul --seed 3 --format text": ("8b64f703f8ef68035460037400e7329a8f7064ce90036055eea13fbe2dd85668", 0, ""),
        "sim --n 64 --npe 4 --q-bits 32 --op polymul --seed 3 --format text": ("8b64f703f8ef68035460037400e7329a8f7064ce90036055eea13fbe2dd85668", 0, ""),
        "sim --n 64 --npe 4 --q-bits 40 --op polymul --seed 3 --format text": ("8b64f703f8ef68035460037400e7329a8f7064ce90036055eea13fbe2dd85668", 0, ""),
        "sim --n 64 --npe 4 --q-bits 62 --op polymul --seed 3 --format text": ("8b64f703f8ef68035460037400e7329a8f7064ce90036055eea13fbe2dd85668", 0, ""),
        "sim --n 256 --npe 8 --q-bits 62 --nq 4 --op polymul --seed 4": ("1b5f2cba1c7ecfc8c134422d8ba88e48863496f1e84176ac78c0d090b35d41a4", 0, ""),
        # stalled: 1113 cycles, 13 stalls
        "sim --n 1024 --npe 16 --q-bits 32 --op polymul": ("17f8e72826401ab9c5fb0b4ff70cfaadbd18bbc733ecfd9a53fafb0ab977646e", 0, ""),
        "sim --n 1024 --npe 16 --q-bits 32 --op polymul --format text": ("b8a778b256c88e9034feb04d8a60af6dc645a1a093304d07473194ed6a70ecae", 0, ""),
        "sim --n 16 --npe 2 --q-bits 14 --policy fail-fast": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2, "hazard: raw hazard at cycle 4 (bank 0, addr 0)\n"),
        "sim --n 256 --npe 8 --q-bits 32 --op polymul --layout sequential --seed 5": ("b7ab19570bb578d7b9266845145d7aa09c4d83ab64656219e37fde8b54bcdf37", 0, ""),
        "ntt --n 64 --q-bits 32 --seed 6": ("377c2c377168a65304f484a61641d24bfd28b2f6f42dc198712591d77e1acf31", 0, ""),
        "intt --n 64 --q-bits 40 --seed 7": ("9ef62d844702142a6b7141aabf4c7767e855a18510c2008ef4532673fda6b5a4", 0, ""),
        "polymul --n 64 --q-bits 62 --seed 8": ("bc8e168275ed50b3aa60b1d3cbc05149309b71d56bf3719e0da8fe1446c2a37a", 0, ""),
    }

    @pytest.mark.parametrize("args", list(PINS))
    def test_pinned_output(self, args, capsys):
        code, out, err = run_cli(args.split(), capsys)
        assert (hashlib.sha256(out.encode()).hexdigest(), code, err) == self.PINS[args]


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command = predict\n"
            "n = 4096\n"
            "npe = 16\n"
            "profile = q32\n"
        )
        code, out, _err = run_cli(["--config", str(cfg)], capsys)
        assert code == 0
        assert out.strip() == "1555"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = predict\nn = 4096\nnpe = 16\nprofile = q32\n")
        code, out, _err = run_cli(
            ["--config", str(cfg), "predict", "--npe", "32"], capsys
        )
        assert code == 0
        assert out.strip() == "787"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = predict\nn = 4096\nnpe = 16\nbogus = 1\n")
        code, _out, err = run_cli(["--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus" in err

    def test_pipeline_nesting(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command = predict\nn = 4096\nnpe = 32\nprofile = q32\n"
            "pipeline.delay_read = 0\npipeline.delay_write = 0\n"
            "pipeline.delay_pe_ntt = 0\npipeline.delay_pe_mult = 0\n"
        )
        code, out, _err = run_cli(["--config", str(cfg)], capsys)
        assert code == 0
        assert out.strip() == "768"

    def test_blank_lines_and_comments_ignored(self, tmp_path, capsys):
        plain = tmp_path / "plain.cfg"
        plain.write_text("command = predict\nn = 4096\nnpe = 16\n")
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(
            "# predict at N=4096\n\ncommand = predict  # the subcommand\n"
            "   \nn = 4096\n\t# indented comment\nnpe = 16\n\n"
        )
        expected = run_cli(["--config", str(plain)], capsys)
        assert expected == (0, "1555\n", "")
        assert run_cli(["--config", str(noisy)], capsys) == expected

    @pytest.mark.parametrize("text,message", [
        ("command = predict\nn 4096\n", "{cfg}:2: expected 'key = value'"),
        ("n = 4096\nnpe = 16\n", "no command given on the command line or in the config"),
    ])
    def test_malformed_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        expected = (1, "", f"error: {message.format(cfg=cfg)}\n")
        assert run_cli(["--config", str(cfg)], capsys) == expected


class TestSeededGenerator:
    def test_splitmix_reference_values(self):
        # frozen reference outputs for seed 1234567
        stream = splitmix64(1234567)
        assert next(stream) == 0x599ED017FB08FC85
        assert next(stream) == 0x2C73F08458540FA5
        assert next(stream) == 0x883EBCE5A3F27C77

    def test_random_polynomial_deterministic(self, tmp_path, capsys):
        """The seed alone fixes a drawn operand, and it is reduced mod q:
        intt undoes the ntt of the drawn polynomial."""
        evals, drawn = [], []
        for run in range(2):
            mid, back = tmp_path / f"mid{run}.poly", tmp_path / f"back{run}.poly"
            assert main(["ntt", "--n", "16", "--q", "12289", "--seed", "42",
                         "--output", str(mid)]) == 0
            assert main(["intt", "--input", str(mid), "--output", str(back)]) == 0
            evals.append(mid.read_text())
            drawn.append([int(c) for c in back.read_text().split()[2:]])
        capsys.readouterr()
        assert evals[0] == evals[1]
        assert len(drawn[0]) == 16 and all(0 <= c < 12289 for c in drawn[0])

    def test_draws_follow_operand_order(self, tmp_path, capsys):
        """Drawn operands take the stream's values in operand order; an
        operand read from a file takes none."""
        q, n = 12289, 16
        stream = splitmix64(5)
        values = [next(stream) % q for _ in range(2 * n)]
        second = tmp_path / "second.poly"
        second.write_text(f"{n} {q}\n" + "".join(f"{v}\n" for v in values[n:]))
        mod = barrett_precompute(q)
        product = schoolbook_negacyclic(
            Polynomial.from_ints(values[:n], mod), Polynomial.from_ints(values[n:], mod)
        )
        expected = f"{n} {q}\n" + "".join(f"{c}\n" for c in product.to_ints())
        seeded = ["polymul", "--n", str(n), "--q", str(q), "--seed", "5"]
        assert run_cli(seeded, capsys) == (0, expected, "")
        # b drawn after a file-read a is the stream's first N values
        code, out, _err = run_cli(["polymul", "--input", str(second), "--seed", "5"], capsys)
        assert (code, out) == (0, expected)

    def test_seeded_cli_reproducible(self, tmp_path, capsys):
        f1, f2 = tmp_path / "p1.poly", tmp_path / "p2.poly"
        for f in (f1, f2):
            assert main(["ntt", "--n", "16", "--q-bits", "14", "--seed", "3",
                         "--output", str(f)]) == 0
        capsys.readouterr()
        assert f1.read_text() == f2.read_text()
