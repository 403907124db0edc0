"""Replay the access schedule cycle by cycle and count everything.

Reproduces the golden clock-cycle table for N=4096 across PE counts,
shows the halving law, and demonstrates that the hazard detectors fire
when (and only when) the layout or the pipeline depth is broken.
"""

import numpy as np

from nttsim.modarith import ntt_modulus
from nttsim.ntt import Polynomial
from nttsim.schedule import PROFILES, PipelineConfig, build_schedule, check_raw_bound
from nttsim.sim import detect_hazards, make_sim_config, predicted_cycles, run

mod = ntt_modulus(32, 4096)
gen = np.random.default_rng(1)
a = Polynomial(gen.integers(0, mod.q, size=4096, dtype=np.uint64), mod)
b = Polynomial(gen.integers(0, mod.q, size=4096, dtype=np.uint64), mod)

print("N=4096, 32-bit profile: simulated clock cycles (zero stalls)\n")
print(f"{'Npe':>4} {'ideal':>7} {'ntt':>7} {'mult':>6} {'intt':>7}")
for npe in (1, 2, 4, 8, 16, 32):
    cfg = make_sim_config(4096, npe, moduli=[mod], profile="q32")
    ntt = run(cfg, a, op="ntt")
    mult = run(cfg, a, b, op="mult")
    intt = run(cfg, a, op="intt")
    ideal = 4096 * 12 // (2 * npe)
    assert ntt.stall_cycles == mult.stall_cycles == intt.stall_cycles == 0
    assert ntt.matches_predicted
    print(f"{npe:>4} {ideal:>7} {ntt.total_cycles:>7} "
          f"{mult.total_cycles:>6} {intt.total_cycles:>7}")

print("\nhalving law: each doubling of Npe halves the issue term exactly;")
print("the residual 19/18/20-cycle offsets are the pipeline fill overhead.\n")

# break things on purpose: wrong layout, then an over-deep pipeline
trace_seq = build_schedule(64, 4, "ntt", layout_kind="sequential")
rep_seq = detect_hazards(trace_seq, PROFILES["q32"])
print(f"sequential layout injected (N=64): {rep_seq.read_conflicts} read-port "
      f"conflicts, {rep_seq.total_cycles} total cycles")

bound = check_raw_bound(64, 4, PROFILES["ideal"]).bound
deep = PipelineConfig(0, 0, bound, bound)
rep_deep = detect_hazards(build_schedule(64, 4, "ntt"), deep)
print(f"pipeline depth {bound} vs bound {bound} (N=64): "
      f"{rep_deep.raw_count} RAW hazards, {rep_deep.stall_cycles} stall cycles")

small = ntt_modulus(14, 64)
cfg = make_sim_config(64, 4, moduli=[small], profile=deep)
pa = Polynomial(gen.integers(0, small.q, size=64, dtype=np.uint64), small)
report = run(cfg, pa, op="ntt")
print(f"full run with numerics: {report.stall_cycles} stall cycles, "
      f"result verified against the reference transform")
print(f"\nstall-free prediction for N=16384, Npe=16: "
      f"{predicted_cycles(16384, 16, PROFILES['q32'], 0, 'ntt')} cycles")
