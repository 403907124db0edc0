"""Host-speed correction for timings taken on a shared machine.

On a small virtual machine that shares its cores with other load, the
other load slows this process in bursts of milliseconds to a fraction
of a second, often to half its speed, and how much of a minute the
bursts fill drifts from one minute to the next. Process CPU time slows with wall time (the
process runs slower, it is not descheduled), and quiet stretches are
too short to hold a call of a second, so neither CPU time nor a call's
fastest sample removes it.

A Speedometer samples the host's speed while the benchmark runs: every
PERIOD_S seconds a SIGALRM handler runs a fixed pure-Python loop (the
probe) and records how long it took. The probe does what nttsim's scalar
paths do, a modular multiply-accumulate over a list of 4096 Python ints,
so that other load slows it nearly as much as it slows them: fitted over
the samples of one run, sim_sweep's ops slowed as the 1.05th to 1.33rd
power of this probe's slowdown, and as the 1.1th to 1.6th power of that
of a loop which touches no data. A timed call's scaled time is its
measured time, less the probes that ran inside it, times
REFERENCE_PROBE_S over the mean duration of those probes: the call's
time on a host where the probe takes REFERENCE_PROBE_S (an idle
2-vCPU x86-64 virtual machine, Python 3.11). A call too short to hold a
probe is scaled by one probe run right after it. The probe touches no
nttsim code and no shared state, so a change to nttsim moves scaled
times as it moves measured ones, unless it changes how fast the probe
runs beside it, for example by filling the caches (see README.md,
Noise).
"""

import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.04
REFERENCE_PROBE_S = 1.0e-3
_Q = 4294967291  # the largest prime below 2**32


def _probe_data(count: int = 4096) -> List[int]:
    """Fixed 32-bit values from a 64-bit linear congruential generator."""
    out, x = [], 1
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append(x >> 32)
    return out


_DATA = _probe_data()


def probe() -> float:
    """Duration of the fixed probe loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for x in _DATA:
        acc = (acc * x + 1) % _Q
    return time.perf_counter() - t0


class Speedometer:
    """Probes from a SIGALRM timer, between start() and stop()."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (start, duration)

    def _sample(self, *_) -> None:
        # blocked so that a late tick cannot nest a probe inside this one
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start = time.perf_counter()
            self.samples.append((start, probe()))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int, t0: float, t1: float) -> Tuple[float, float]:
        """(measured, scaled) time of the call timed from t0 to t1; mark is
        self.mark() taken before t0. Probes inside the call are taken out of
        its measured time."""
        inside = [d for s, d in self.samples[mark:] if t0 <= s and s + d <= t1]
        measured = t1 - t0 - sum(inside)
        if not inside:
            self._sample()
            inside = [self.samples[-1][1]]
        return measured, measured * REFERENCE_PROBE_S / statistics.fmean(inside)

    def slowdown(self) -> float:
        """Median probe duration over REFERENCE_PROBE_S, over every sample so far."""
        if not self.samples:
            return float("nan")
        return statistics.median(d for _, d in self.samples) / REFERENCE_PROBE_S
