"""Tests for the reference negacyclic transforms.

Oracles: dense evaluation at odd powers of psi (matrix form), big-integer
schoolbook convolution, and hand-frozen small cases.
"""

import hashlib
import io
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from nttsim.modarith import barrett_precompute, ntt_modulus
from nttsim import modarith, ntt
from nttsim.rns import RnsBasis
from nttsim.ntt import (
    Polynomial,
    TwiddleTable,
    gen_twiddles,
    intt_gs,
    intt_gs_array,
    ntt_ct,
    ntt_ct_array,
    pointwise_mul,
    polymul_ntt,
    polymul_ntt_array,
    read_polynomial,
    schoolbook_negacyclic,
    write_polynomial,
)

from conftest import (
    bit_reverse,
    naive_negacyclic_intt,
    naive_negacyclic_ntt,
    negacyclic_schoolbook_oracle,
)

Q17 = barrett_precompute(17)
TABLES = ("forward", "inverse", "forward_pre", "inverse_half", "inverse_half_pre")


def poly17(coeffs):
    return Polynomial.from_ints(coeffs, Q17)


class TestTwiddles:
    def test_psi_for_q17_n4(self):
        tw = gen_twiddles(Q17, 4)
        assert tw.psi == 9  # 3^((17-1)/8)
        assert pow(9, 4, 17) == 16  # psi^N = q - 1
        assert (tw.psi * tw.psi_inv) % 17 == 1

    def test_forward_table_frozen(self):
        # psi^brv(j, 2) for psi = 9: [9^0, 9^2, 9^1, 9^3]
        tw = gen_twiddles(Q17, 4)
        assert tw.forward.tolist() == [1, 13, 9, 15]
        assert tw.inverse.tolist() == [pow(v, -1, 17) for v in [1, 13, 9, 15]]

    def test_forward_inverse_distinct(self):
        for n in (4, 8, 16):
            mod = ntt_modulus(14, n)
            tw = gen_twiddles(mod, n)
            assert tw.forward.tolist() != tw.inverse.tolist()

    def test_shared_tables_are_read_only(self):
        # cached_twiddles hands every caller these arrays: one write would
        # make every later product with this (q, N) wrong, reference included
        tw = ntt.cached_twiddles(ntt_modulus(14, 16), 16)
        for name in ("forward", "inverse", "forward_pre", "inverse_half", "inverse_half_pre"):
            table = getattr(tw, name)
            with pytest.raises(ValueError, match="read-only"):
                table[3] = table[4]

    def test_shared_tables_cannot_change_through_their_bases(self):
        # the tables view larger arrays; writing a table's own value back
        # through its base must fail as a write of any other value would
        tw = ntt.cached_twiddles(ntt_modulus(14, 16), 16)
        for name in TABLES:
            base = getattr(tw, name).base
            if base is not None:
                with pytest.raises(ValueError, match="read-only"):
                    base[...] = base

    def test_rejects_bad_congruence(self):
        # the one home of q = 1 mod 2N: 7 has no 4-point negacyclic transform
        mod = barrett_precompute(7)
        with pytest.raises(ValueError, match=r"^q=7 is not congruent to 1 mod 8$"):
            gen_twiddles(mod, 4)

    @pytest.mark.parametrize("bits,n,q,psi", [
        (14, 1024, 12289, 1945),
        (32, 4096, 4294828033, 567303915),
        (40, 1024, 1099511592961, 725937910219),
        (62, 256, 4611686018427379201, 409530867512150121),
    ])
    def test_psi_pinned(self, bits, n, q, psi):
        # psi = g^((q-1)/2N) for the smallest primitive root g; every
        # transform output of the CLI depends on this choice
        mod = ntt_modulus(bits, n)
        tw = gen_twiddles(mod, n)
        assert (mod.q, tw.psi) == (q, psi)
        assert pow(psi, n, q) == q - 1

    @pytest.mark.parametrize("bits,n,digest", [
        (14, 16, "11ba4814d4fa4f9c"),
        (14, 1024, "db169cb5ad3197c8"),
        (32, 4096, "767e2fe50ce9f035"),
        (32, 16384, "2ea27188ec30c9d5"),
        (40, 1024, "1458d2ee08f71734"),
        (62, 256, "d40d22651a0f7864"),
    ])
    def test_tables_pinned(self, bits, n, digest):
        # sha256 of both tables as little-endian words: frozen, so neither
        # a twiddle value nor the bit-reversed order can drift
        tw = gen_twiddles(ntt_modulus(bits, n), n)
        data = tw.forward.astype("<u8").tobytes() + tw.inverse.astype("<u8").tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_all_five_tables_pinned(self):
        # sha256 of every table array as little-endian words over the pairs
        # above: however the tables are built, every word must stay
        digest = hashlib.sha256()
        for bits, n in ((14, 16), (14, 1024), (32, 4096), (32, 16384), (40, 1024), (62, 256)):
            tw = gen_twiddles(ntt_modulus(bits, n), n)
            for name in TABLES:
                digest.update(getattr(tw, name).astype("<u8").tobytes())
        assert digest.hexdigest() == (
            "c873b44e4c027fbfd8ab9ca9bf870445d64f83551eeec2ad68ac72a06240609e")

    @pytest.mark.parametrize("n", [4, 16, 1024])
    @pytest.mark.parametrize("bits", [14, 31, 32, 33, 40, 62])
    def test_tables_match_pow(self, bits, n):
        # every entry from builtin pow, independent of how the tables are built
        mod = ntt_modulus(bits, n)
        q, s = mod.q, 32 if mod.k <= 32 else 64
        tw = gen_twiddles(mod, n)
        assert pow(tw.psi, n, q) == q - 1
        columns = zip(*(getattr(tw, name).tolist() for name in TABLES))
        for j, (fwd, inv, fwd_pre, half, half_pre) in enumerate(columns):
            assert fwd == pow(tw.psi, bit_reverse(j, n.bit_length() - 1), q)
            assert inv == pow(fwd, -1, q)
            assert half < q and 2 * half % q == inv
            # Shoup quotients floor(w * 2^s / q)
            assert (fwd_pre, half_pre) == ((fwd << s) // q, (half << s) // q)

    def test_any_modulus_of_a_prime_is_transform_ready(self, rng):
        # no root step between barrett_precompute and the transforms
        tw = ntt.cached_twiddles(barrett_precompute(7681), 256)
        assert pow(tw.psi, 256, 7681) == 7680
        basis = RnsBasis.from_primes([7681, 12289])
        for mod in basis.moduli:
            a = Polynomial.from_ints([rng.randrange(mod.q) for _ in range(256)], mod)
            b = Polynomial.from_ints([rng.randrange(mod.q) for _ in range(256)], mod)
            want = schoolbook_negacyclic(a, b).to_ints()
            assert polymul_ntt(a, b).to_ints() == want

    def test_roundtrip_identity(self, rng):
        for n in (4, 16, 64):
            mod = ntt_modulus(14, n)
            coeffs = [rng.randrange(mod.q) for _ in range(n)]
            p = Polynomial.from_ints(coeffs, mod)
            assert intt_gs(ntt_ct(p)).to_ints() == coeffs


def dense_batch(bits):
    """A (5, 256) batch, its twiddles and its dense evaluations in the
    transform's bit-reversed order, row by row from naive_negacyclic_ntt."""
    mod = ntt_modulus(bits, 256)
    tw = gen_twiddles(mod, 256)
    batch = np.random.default_rng(bits).integers(0, mod.q, size=(5, 256), dtype=np.uint64)
    evals = []
    for row in batch.tolist():
        natural = naive_negacyclic_ntt(row, tw.psi, mod.q)
        evals.append([natural[bit_reverse(r, 8)] for r in range(256)])
    return batch, np.array(evals, dtype=np.uint64), tw


class TestForwardTransform:
    def test_delta_becomes_constant(self):
        assert ntt_ct(poly17([1, 0, 0, 0])).to_ints() == [1, 1, 1, 1]

    def test_x_frozen(self):
        # hand-computed: evals of x at psi^(2j+1) are [9, 15, 8, 2] in
        # natural order; output is that list in bit-reversed positions
        assert ntt_ct(poly17([0, 1, 0, 0])).to_ints() == [9, 8, 15, 2]

    def test_matches_dense_evaluation(self, rng):
        for n in (4, 8, 16, 64):
            mod = ntt_modulus(14, n)
            tw = gen_twiddles(mod, n)
            coeffs = [rng.randrange(mod.q) for _ in range(n)]
            got = ntt_ct(Polynomial.from_ints(coeffs, mod)).to_ints()
            natural = naive_negacyclic_ntt(coeffs, tw.psi, mod.q)
            bits = n.bit_length() - 1
            assert got == [natural[bit_reverse(r, bits)] for r in range(n)]

    @pytest.mark.parametrize("bits", [14, 32])
    def test_batch_matches_dense_evaluation(self, bits):
        # one call runs every stage of every row, long and short groups alike
        batch, evals, tw = dense_batch(bits)
        np.testing.assert_array_equal(ntt_ct_array(batch, tw), evals)

    def test_length_mismatch_rejected(self):
        tw = gen_twiddles(Q17, 4)
        mod8 = ntt_modulus(14, 8)
        p = Polynomial.from_ints([0] * 8, mod8)
        with pytest.raises(ValueError):
            ntt_ct_array(p.coeffs, tw)

    def test_linearity(self, rng):
        n = 16
        mod = ntt_modulus(14, n)
        q = mod.q
        p = [rng.randrange(q) for _ in range(n)]
        r = [rng.randrange(q) for _ in range(n)]
        alpha, beta = rng.randrange(q), rng.randrange(q)
        combo = [(alpha * x + beta * y) % q for x, y in zip(p, r)]
        lhs = ntt_ct(Polynomial.from_ints(combo, mod)).to_ints()
        fp = ntt_ct(Polynomial.from_ints(p, mod)).to_ints()
        fr = ntt_ct(Polynomial.from_ints(r, mod)).to_ints()
        rhs = [(alpha * x + beta * y) % q for x, y in zip(fp, fr)]
        assert lhs == rhs


class TestInverseTransform:
    def test_roundtrip_small(self):
        p = poly17([3, 1, 4, 1])
        assert intt_gs(ntt_ct(p)).to_ints() == [3, 1, 4, 1]

    def test_constant_becomes_delta(self):
        for c in (1, 5, 16):
            assert intt_gs(poly17([c] * 4)).to_ints() == [c, 0, 0, 0]

    def test_matches_dense_inverse(self, rng):
        for n in (4, 8, 32, 64):
            mod = ntt_modulus(14, n)
            tw = gen_twiddles(mod, n)
            bits = n.bit_length() - 1
            evals_br = [rng.randrange(mod.q) for _ in range(n)]
            got = intt_gs(Polynomial.from_ints(evals_br, mod)).to_ints()
            natural = [evals_br[bit_reverse(j, bits)] for j in range(n)]
            assert got == naive_negacyclic_intt(natural, tw.psi, mod.q)

    @pytest.mark.parametrize("bits", [14, 32])
    def test_batch_inverts_dense_evaluation(self, bits):
        # the round trip through the dense oracle's evaluations
        batch, evals, tw = dense_batch(bits)
        np.testing.assert_array_equal(intt_gs_array(evals, tw), batch)

    def test_bulk_roundtrips(self):
        # 1000 random polynomials spread over N in {4, ..., 1024}
        gen = np.random.default_rng(7)
        for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            mod = ntt_modulus(14 if n <= 512 else 32, n)
            tw = gen_twiddles(mod, n)
            batch = gen.integers(0, mod.q, size=(112, n), dtype=np.uint64)
            out = intt_gs_array(ntt_ct_array(batch, tw), tw)
            np.testing.assert_array_equal(out, batch)

    @pytest.mark.parametrize("bits", [40, 62])
    def test_wide_modulus_batch_roundtrip(self, bits):
        # above 32 bits every stage multiplies by Shoup's quotient product,
        # whose high words come from 32-bit partial products
        n = 64
        mod = ntt_modulus(bits, n)
        tw = gen_twiddles(mod, n)
        gen = np.random.default_rng(bits)
        batch = gen.integers(0, mod.q, size=(3, n), dtype=np.uint64)
        forward = ntt_ct_array(batch, tw)
        bits_n = n.bit_length() - 1
        natural = naive_negacyclic_ntt(batch[1].tolist(), tw.psi, mod.q)
        assert forward[1].tolist() == [natural[bit_reverse(r, bits_n)] for r in range(n)]
        np.testing.assert_array_equal(intt_gs_array(forward, tw), batch)


class TestBlockedBatches:
    """Batches run in row blocks of ntt.BLOCK_ELEMS values; every shape must
    give the row-by-row result."""

    # at N=2048 a block holds 32 rows, so 37 rows leave a partial block
    @pytest.mark.parametrize("shape", [(37, 2048), (3, 2, 1024)])
    @pytest.mark.parametrize("bits", [14, 32, 40, 62])
    def test_matches_row_by_row(self, bits, shape):
        n = shape[-1]
        mod = ntt_modulus(bits, n)
        tw = gen_twiddles(mod, n)
        gen = np.random.default_rng(bits)
        a = gen.integers(0, mod.q, size=shape, dtype=np.uint64)
        b = gen.integers(0, mod.q, size=shape, dtype=np.uint64)
        for fn in (
            lambda x, y: ntt_ct_array(x, tw),
            lambda x, y: intt_gs_array(x, tw),
            lambda x, y: polymul_ntt_array(x, y, tw),
        ):
            stacked = fn(a, b)
            assert stacked.shape == shape
            rows = [fn(x, y) for x, y in zip(a.reshape(-1, n), b.reshape(-1, n))]
            np.testing.assert_array_equal(stacked.reshape(-1, n), np.array(rows))

    @pytest.mark.parametrize("bits", [14, 32, 40, 62])
    def test_identical_for_any_cpu_count(self, bits, monkeypatch):
        n = 2048
        mod = ntt_modulus(bits, n)
        tw = ntt.cached_twiddles(mod, n)
        gen = np.random.default_rng(bits)
        a = gen.integers(0, mod.q, size=(100, n), dtype=np.uint64)
        b = gen.integers(0, mod.q, size=(100, n), dtype=np.uint64)
        fns = (
            lambda x, y: ntt_ct_array(x, tw),
            lambda x, y: intt_gs_array(x, tw),
            lambda x, y: polymul_ntt_array(x, y, tw),
            lambda x, y: modarith.barrett_mul_hw_batch(x, y, mod),
        )
        # one row is one block, which runs inline whatever the CPU count
        want = [np.array([fn(x, y) for x, y in zip(a, b)]) for fn in fns]
        # a block holds 32 rows: 1, 2, 3 and 4 blocks, each leaving a
        # partial last block, and 3 CPUs cut 4 blocks into shares of 1, 1, 2
        for rows in (20, 37, 70, 100):
            for cpus in (1, 3):
                monkeypatch.setattr(modarith, "_CPUS", cpus)
                for fn, rowwise in zip(fns, want):
                    got = fn(a[:rows], b[:rows])
                    assert got.dtype == np.uint64 and got.shape == (rows, n)
                    assert got.tobytes() == rowwise[:rows].tobytes()

    @pytest.mark.parametrize("fn", ["ntt", "intt", "polymul", "barrett"])
    def test_unreduced_last_row_refused_before_any_share(self, fn, monkeypatch):
        n = 4096
        mod = ntt_modulus(32, n)
        tw = ntt.cached_twiddles(mod, n)
        bad = np.zeros((33, n), dtype=np.uint64)
        bad[-1, -1] = mod.q
        ran = []
        monkeypatch.setattr(modarith, "_CPUS", 3)
        monkeypatch.setattr(modarith, "_run_blocks", lambda *args: ran.append(args))
        monkeypatch.setattr(ntt, "_run_blocks", lambda *args: ran.append(args))
        call = {
            "ntt": lambda: ntt_ct_array(bad, tw),
            "intt": lambda: intt_gs_array(bad, tw),
            "polymul": lambda: polymul_ntt_array(bad, bad, tw),
            "barrett": lambda: modarith.barrett_mul_hw_batch(bad, bad, mod),
        }[fn]
        with pytest.raises(ValueError, match=rf"^operands not reduced mod {mod.q}$"):
            call()
        assert ran == []

    @pytest.mark.parametrize("where", ["worker", "caller"])
    @pytest.mark.parametrize("fn", ["polymul", "barrett"])
    def test_share_exception_reaches_caller(self, fn, where, monkeypatch):
        n = 4096
        mod = ntt_modulus(32, n)
        tw = ntt.cached_twiddles(mod, n)
        gen = np.random.default_rng(7)
        a = gen.integers(0, mod.q, size=(33, n), dtype=np.uint64)
        b = gen.integers(0, mod.q, size=(33, n), dtype=np.uint64)
        call = {
            "polymul": lambda: polymul_ntt_array(a, b, tw),
            "barrett": lambda: modarith.barrett_mul_hw_batch(a, b, mod),
        }[fn]
        want = call()
        monkeypatch.setattr(modarith, "_CPUS", 3)
        boom = RuntimeError("injected kernel fault")
        owner, name = (ntt, "shoup_mul_into") if fn == "polymul" else (modarith, "barrett_mul_hw_into")
        kernel = getattr(owner, name)

        def faulty(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (where == "caller"):
                raise boom
            kernel(*args)

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, faulty)
            with pytest.raises(RuntimeError) as raised:
                call()
        assert raised.value is boom
        assert call().tobytes() == want.tobytes()


def _forked_digest(conn, a, b, tw):
    conn.send(hashlib.sha256(polymul_ntt_array(a, b, tw).tobytes()).hexdigest())
    conn.close()


class TestBlockThreads:
    def test_forked_child_runs_threaded_batches(self, monkeypatch):
        """A child forked after a threaded batch runs threaded batches of
        its own and exits cleanly."""
        monkeypatch.setattr(modarith, "_CPUS", 2)
        n = 4096
        tw = ntt.cached_twiddles(ntt_modulus(32, n), n)
        gen = np.random.default_rng(11)
        a = gen.integers(0, tw.mod.q, size=(33, n), dtype=np.uint64)
        b = gen.integers(0, tw.mod.q, size=(33, n), dtype=np.uint64)
        want = hashlib.sha256(polymul_ntt_array(a, b, tw).tobytes()).hexdigest()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forked_digest, args=(send, a, b, tw))
        child.start()
        send.close()
        try:
            got = recv.recv() if recv.poll(30) else None
            child.join(30)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert got == want
        assert child.exitcode == 0

    @pytest.mark.parametrize("case", ["returned", "worker_raised", "concurrent"])
    def test_no_thread_outlives_a_call(self, case, monkeypatch):
        """A threaded batch joins its worker threads before it returns or
        raises. Six callers at once, more threads than cores and a short
        switch interval, each get the exact product."""
        n = 2048
        tw = ntt.cached_twiddles(ntt_modulus(32, n), n)
        gen = np.random.default_rng(13)
        a = gen.integers(0, tw.mod.q, size=(6, 37, n), dtype=np.uint64)
        b = gen.integers(0, tw.mod.q, size=(6, 37, n), dtype=np.uint64)
        want = [polymul_ntt_array(x, y, tw) for x, y in zip(a, b)]
        monkeypatch.setattr(modarith, "_CPUS", 3)
        if case == "returned":
            assert polymul_ntt_array(a[0], b[0], tw).tobytes() == want[0].tobytes()
        elif case == "worker_raised":
            kernel = ntt.shoup_mul_into

            def faulty(*args):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("injected kernel fault")
                kernel(*args)

            with monkeypatch.context() as patch:
                patch.setattr(ntt, "shoup_mul_into", faulty)
                with pytest.raises(RuntimeError, match="injected kernel fault"):
                    polymul_ntt_array(a[0], b[0], tw)
        else:
            got = [None] * len(a)
            start = threading.Barrier(len(a))

            def caller(i):
                start.wait(60)
                got[i] = polymul_ntt_array(a[i], b[i], tw)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(a))]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in callers)
            finally:
                sys.setswitchinterval(interval)
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes()
        assert [t for t in threading.enumerate() if t.name.startswith("nttsim-blocks")] == []

    def test_imports_without_affinity_or_fork_hook(self):
        """Where os has no sched_getaffinity or register_at_fork, the
        package imports, counts CPUs with os.cpu_count() and gives
        threaded batches the row-by-row result."""
        code = """
import os
del os.sched_getaffinity, os.register_at_fork
import numpy as np
import nttsim
from nttsim import modarith, ntt
assert modarith._CPUS == (os.cpu_count() or 1)
modarith._CPUS = 2
n = 2048
tw = ntt.cached_twiddles(modarith.ntt_modulus(32, n), n)
gen = np.random.default_rng(17)
a, b = (gen.integers(0, tw.mod.q, size=(70, n), dtype=np.uint64) for _ in range(2))
for rows in (20, 70):  # one block and three, a block holding 32 rows
    got = ntt.polymul_ntt_array(a[:rows], b[:rows], tw)
    want = np.array([ntt.polymul_ntt_array(x, y, tw) for x, y in zip(a[:rows], b[:rows])])
    assert got.tobytes() == want.tobytes(), rows
print("ok")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(ntt.__file__)), env.get("PYTHONPATH")])
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"


class TestEntryChecks:
    """Array entry points check once that every input value is reduced;
    their stage loops take reduced values unchecked."""

    @staticmethod
    def unreduced(q, n, case):
        x = np.zeros(n, dtype=np.uint64)
        if case == "q+3 first":
            x[0] = q + 3  # first-half values never reached a checked kernel
        elif case == "2q first":
            x[0] = 2 * q
        else:
            x[-1] = q
        return x

    @staticmethod
    def entry_calls(fn, bad, tw):
        """Each call of entry point fn with bad as one operand, zeros the other."""
        mod, zero = tw.mod, np.zeros(tw.n, dtype=np.uint64)
        return {
            "ntt": [lambda: ntt_ct_array(bad, tw)],
            "intt": [lambda: intt_gs_array(bad, tw)],
            "pointwise": [lambda: ntt.pointwise_mul_array(bad, zero, mod),
                          lambda: ntt.pointwise_mul_array(zero, bad, mod)],
            "polymul": [lambda: polymul_ntt_array(bad, zero, tw),
                        lambda: polymul_ntt_array(zero, bad, tw)],
            "schoolbook": [lambda: ntt.schoolbook_negacyclic_array(bad, zero, mod),
                           lambda: ntt.schoolbook_negacyclic_array(zero, bad, mod)],
            "barrett": [lambda: modarith.barrett_mul_hw_batch(bad, zero, mod),
                        lambda: modarith.barrett_mul_hw_batch(zero, bad, mod)],
        }[fn]

    @pytest.mark.parametrize("case", ["q+3 first", "2q first", "q last"])
    @pytest.mark.parametrize("bits", [14, 40])
    @pytest.mark.parametrize("fn", ["ntt", "intt", "pointwise", "polymul", "schoolbook"])
    def test_unreduced_input_rejected(self, fn, bits, case):
        n = 8
        mod = ntt_modulus(bits, n)
        tw = gen_twiddles(mod, n)
        for call in self.entry_calls(fn, self.unreduced(mod.q, n, case), tw):
            with pytest.raises(ValueError, match="not reduced"):
                call()

    # a cast would turn 1.7 and True into ones, and a negative int into an
    # OverflowError: each is refused with one ValueError instead
    @pytest.mark.parametrize("bad,message", [
        (np.full(16, 1.7), "^operands must be integers$"),
        ([1.7] * 16, "^operands must be integers$"),
        (np.ones(16, dtype=bool), "^operands must be integers$"),
        ([-1] * 16, "^operands not reduced mod 16193$"),
    ], ids=["float array", "float list", "bool array", "negative"])
    @pytest.mark.parametrize("fn", ["ntt", "intt", "pointwise", "polymul", "schoolbook",
                                    "barrett"])
    def test_non_integers_and_negatives_refused(self, fn, bad, message):
        mod = ntt_modulus(14, 16)
        assert mod.q == 16193
        for call in self.entry_calls(fn, bad, ntt.cached_twiddles(mod, 16)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_one_conversion(self):
        # a uint64 array passes uncopied; integers of any other kind arrive
        # as uint64, as gen_twiddles' lists and shoup_precompute's scalar do
        x = np.arange(16, dtype=np.uint64)
        assert modarith.check_reduced(x, 17) is x
        for values in ([3, 16], np.array([3, 16], dtype=np.int8), np.int64(5)):
            got = modarith.check_reduced(values, 17)
            assert got.dtype == np.uint64 and got.tolist() == np.asarray(values).tolist()

    @pytest.mark.parametrize("values", [[2**64] * 4, [-2**63 - 1] * 4, [3, 2**70]])
    def test_ints_beyond_a_word_are_unreduced(self, values):
        # numpy keeps these as Python ints in an object array
        assert np.asarray(values).dtype == object
        with pytest.raises(ValueError, match="^operands not reduced mod 17$"):
            modarith.check_reduced(values, 17)

    def test_object_arrays(self):
        # an object array of reduced ints converts; one holding a float or
        # bool beside a wide int is refused as any float or bool is
        got = modarith.check_reduced(np.array([3, 16], dtype=object), 17)
        assert got.dtype == np.uint64 and got.tolist() == [3, 16]
        for values in ([2**64, 1.5], [2**64, True]):
            with pytest.raises(ValueError, match="^operands must be integers$"):
                modarith.check_reduced(values, 17)


class TestPointwise:
    def test_identity_vector(self):
        ones = poly17([1, 1, 1, 1])
        x = poly17([3, 7, 0, 12])
        assert pointwise_mul(ones, x).to_ints() == [3, 7, 0, 12]

    def test_zero_annihilates(self):
        z = poly17([0, 0, 0, 0])
        x = poly17([3, 7, 1, 12])
        assert pointwise_mul(z, x).to_ints() == [0] * 4

    def test_against_scalar_oracle(self, rng):
        n, mod = 16, ntt_modulus(14, 16)
        a = [rng.randrange(mod.q) for _ in range(n)]
        b = [rng.randrange(mod.q) for _ in range(n)]
        got = pointwise_mul(
            Polynomial.from_ints(a, mod), Polynomial.from_ints(b, mod)
        ).to_ints()
        assert got == [(x * y) % mod.q for x, y in zip(a, b)]

    def test_length_mismatch(self):
        mod8 = ntt_modulus(14, 8)
        with pytest.raises(ValueError):
            pointwise_mul(poly17([1] * 4), Polynomial.from_ints([0] * 8, mod8))

    def test_modulus_mismatch(self):
        other = Polynomial.from_ints([1] * 4, barrett_precompute(97))
        with pytest.raises(ValueError, match="polynomial moduli differ"):
            pointwise_mul(poly17([1] * 4), other)

    def test_unequal_shapes_are_not_broadcast(self):
        mod = ntt_modulus(14, 8)
        row, rows = np.ones(8, np.uint64), np.ones((2, 8), np.uint64)
        with pytest.raises(ValueError, match="pointwise operands must have equal shapes"):
            ntt.pointwise_mul_array(row, rows, mod)
        with pytest.raises(ValueError, match="^operands must have equal shapes"):
            ntt.schoolbook_negacyclic_array(row, rows, mod)

    def test_products_come_from_the_checked_hardware_kernel(self, monkeypatch):
        calls = []

        def spy(a, b, mod):
            calls.append(np.shape(a))
            return modarith.barrett_mul_hw_batch(a, b, mod)

        monkeypatch.setattr(ntt, "barrett_mul_hw_batch", spy)
        mod = ntt_modulus(40, 8)
        a = np.arange(16, dtype=np.uint64).reshape(2, 8) * 12345
        got = ntt.pointwise_mul_array(a, a[::-1], mod)
        assert calls == [(2, 8)]
        assert got.tolist() == [[x * y % mod.q for x, y in zip(ra, rb)]
                                for ra, rb in zip(a.tolist(), a[::-1].tolist())]


class TestPolymul:
    def test_golden_pair(self):
        # (1 + x) * (x - 1) = x^2 - 1 over q = 17
        a = poly17([1, 1, 0, 0])
        b = poly17([16, 1, 0, 0])
        assert polymul_ntt(a, b).to_ints() == [16, 0, 1, 0]

    def test_negacyclic_wrap(self):
        # x^3 * x = x^4 = -1
        a = poly17([0, 0, 0, 1])
        b = poly17([0, 1, 0, 0])
        assert polymul_ntt(a, b).to_ints() == [16, 0, 0, 0]

    def test_matches_schoolbook(self, rng):
        for n, bits in ((8, 14), (32, 14), (64, 32), (256, 32)):
            mod = ntt_modulus(bits, n)
            a = [rng.randrange(mod.q) for _ in range(n)]
            b = [rng.randrange(mod.q) for _ in range(n)]
            pa, pb = Polynomial.from_ints(a, mod), Polynomial.from_ints(b, mod)
            fast = polymul_ntt(pa, pb).to_ints()
            slow = schoolbook_negacyclic(pa, pb).to_ints()
            assert fast == slow == negacyclic_schoolbook_oracle(a, b, mod.q)

    def test_multiply_by_x_n_times_negates(self, rng):
        n, mod = 16, ntt_modulus(14, 16)
        coeffs = [rng.randrange(mod.q) for _ in range(n)]
        x = Polynomial.from_ints([0, 1] + [0] * (n - 2), mod)
        p = Polynomial.from_ints(coeffs, mod)
        for _ in range(n):
            p = polymul_ntt(p, x)
        assert p.to_ints() == [(mod.q - c) % mod.q for c in coeffs]


class TestEveryWidth:
    @pytest.mark.parametrize("bits", range(14, 63))
    def test_polymul_matches_oracle(self, bits):
        # every modulus width on both sides of the twiddle multiply's
        # 32-bit branch, with random and all-(q-1) rows
        n = 32
        mod = ntt_modulus(bits, n)
        tw = gen_twiddles(mod, n)
        a, b = np.random.default_rng(bits).integers(0, mod.q, size=(2, 2, n), dtype=np.uint64)
        a[1] = b[1] = mod.q - 1
        got = polymul_ntt_array(a, b, tw)
        for r in range(2):
            want = negacyclic_schoolbook_oracle(a[r].tolist(), b[r].tolist(), mod.q)
            assert got[r].tolist() == want
        np.testing.assert_array_equal(intt_gs_array(ntt_ct_array(a, tw), tw), a)


class TestSchoolbook:
    def test_multiplicative_identity(self, rng):
        n, mod = 8, ntt_modulus(14, 8)
        a = [rng.randrange(mod.q) for _ in range(n)]
        one = Polynomial.from_ints([1] + [0] * (n - 1), mod)
        pa = Polynomial.from_ints(a, mod)
        assert schoolbook_negacyclic(pa, one).to_ints() == a

    def test_half_power_squares_to_minus_one(self):
        for n in (4, 8, 16):
            mod = ntt_modulus(14, n)
            h = [0] * n
            h[n // 2] = 1
            p = Polynomial.from_ints(h, mod)
            got = schoolbook_negacyclic(p, p).to_ints()
            assert got == [mod.q - 1] + [0] * (n - 1)

    def test_big_integer_convolution_oracle(self, rng):
        for n, bits in itertools.product((4, 16, 64), (32, 40, 62)):
            mod = ntt_modulus(bits, n)
            a = [rng.randrange(mod.q) for _ in range(n)]
            b = [rng.randrange(mod.q) for _ in range(n)]
            got = schoolbook_negacyclic(
                Polynomial.from_ints(a, mod), Polynomial.from_ints(b, mod)
            ).to_ints()
            assert got == negacyclic_schoolbook_oracle(a, b, mod.q)


class TestSerialization:
    def test_text_roundtrip(self):
        p = poly17([3, 1, 4, 1])
        buf = io.StringIO()
        write_polynomial(p, buf)
        buf.seek(0)
        q = read_polynomial(buf)
        assert q.to_ints() == [3, 1, 4, 1]
        assert q.mod.q == 17

    def test_header_format(self):
        buf = io.StringIO()
        write_polynomial(poly17([0, 1, 2, 3]), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "4 17"
        assert lines[1:] == ["0", "1", "2", "3"]

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_polynomial(io.StringIO("4\n1\n2\n3\n4\n"))

    @pytest.mark.parametrize("body,found", [("1\n2\n3\n4\n5\n", 5), ("1\n2\n3\n", 3)])
    def test_rejects_wrong_coefficient_count(self, body, found):
        with pytest.raises(ValueError, match=f"says 4 coefficients, the file has {found}"):
            read_polynomial(io.StringIO("4 17\n" + body))

    def test_allows_trailing_blank_lines(self):
        assert read_polynomial(io.StringIO("4 17\n3\n1\n4\n1\n\n \n")).to_ints() == [3, 1, 4, 1]


class TestPolynomialType:
    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Polynomial.from_ints([17, 0, 0, 0], Q17)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Polynomial.from_ints([0] * 6, Q17)

    # the kernels take coefficients unchecked: nothing is cast or truncated
    @pytest.mark.parametrize("coeffs,message", [
        (np.full(16, 1.7), "^coefficients must be a 1-D uint64 array$"),
        (np.ones(16, dtype=np.int64), "^coefficients must be a 1-D uint64 array$"),
        (np.ones((4, 4), dtype=np.uint64), "^coefficients must be a 1-D uint64 array$"),
        ([1] * 16, "^coefficients must be a 1-D uint64 array$"),
        (np.ones(12, dtype=np.uint64), "^polynomial length 12 must be a power of two >= 4$"),
        (np.array([16193] + [0] * 15, dtype=np.uint64), "^operands not reduced mod 16193$"),
    ], ids=["float64", "int64", "2-D", "list", "length 12", "value q"])
    def test_constructor_refuses_what_it_cannot_hold(self, coeffs, message):
        mod = ntt_modulus(14, 16)
        assert mod.q == 16193
        with pytest.raises(ValueError, match=message):
            Polynomial(coeffs, mod)

    def test_coefficients_are_read_only(self):
        # the values are checked once, when the polynomial is built: a write
        # could store one that write_polynomial saves and read_polynomial refuses
        p = Polynomial(np.arange(16, dtype=np.uint64), ntt_modulus(14, 16))
        with pytest.raises(ValueError, match="read-only"):
            p.coeffs[0] = 16198
        assert not poly17([1, 2, 3, 4]).coeffs.flags.writeable

    def test_coefficients_are_a_private_copy(self):
        # the caller's array stays the caller's: a write through it, or
        # through any array it views, leaves the checked values as they were
        base = np.arange(32, dtype=np.uint64)
        p = Polynomial(base[:16], ntt_modulus(14, 16))
        base[0] = 16198
        assert p.coeffs.tolist() == list(range(16))
        assert p.coeffs.base is None

    @pytest.mark.parametrize("value", [1.7, np.float64(2.9), "5"],
                             ids=["float", "numpy float", "str"])
    def test_from_ints_refuses_non_integers(self, value):
        # int() would truncate a float and parse a string
        mod = ntt_modulus(14, 16)
        with pytest.raises(ValueError, match="^coefficients must be integers$"):
            Polynomial.from_ints([value] * 16, mod)
        assert Polynomial.from_ints(np.arange(16), mod).to_ints() == list(range(16))

    def test_length_bound(self):
        # refused from N alone, before any table or operand is allocated
        assert ntt.MAX_N == 1 << 20
        assert ntt._check_power_of_two(ntt.MAX_N) == 20
        message = r"^N=2097152 exceeds the maximum N=1048576$"
        with pytest.raises(ValueError, match=message):
            ntt._check_power_of_two(2 * ntt.MAX_N)
        with pytest.raises(ValueError, match=message):
            gen_twiddles(Q17, 2 * ntt.MAX_N)

    def test_batch_matches_per_poly(self, rng):
        # a polynomial's modulus and length fix the one table its transforms use
        n = 32
        for bits in (14, 32, 40, 62):
            mod = ntt_modulus(bits, n)
            tw = ntt.cached_twiddles(mod, n)
            gen = np.random.default_rng(3)
            batch = gen.integers(0, mod.q, size=(5, n), dtype=np.uint64)
            for array_fn, poly_fn in ((ntt_ct_array, ntt_ct), (intt_gs_array, intt_gs)):
                stacked = array_fn(batch, tw)
                for row in range(5):
                    single = poly_fn(Polynomial.from_ints(batch[row].tolist(), mod))
                    assert single.to_ints() == stacked[row].tolist()
