"""The two-phase access schedule and its read-after-write safety margin.

Phase 0 stages pair coefficients across rows and read logical columns
(physical diagonals); phase 1 stages pair within rows and read row by
row. Every cycle touches each bank at most once, every butterfly writes
back to the cells it read, and the tightest producer-consumer distance
sets the pipeline-depth budget.
"""

from collections import Counter

from nttsim.schedule import PROFILES, build_schedule, check_raw_bound, trace_stats

trace = build_schedule(64, 4, "ntt")
print("N=64, Npe=4: first cycles of each phase\n")
for cycle_no in (0, 1, 24, 25):
    rows = trace.cycles[cycle_no]  # the issue group's rows of the columns
    stage = trace.stage[rows[0]]
    phase = 0 if stage < 3 else 1
    b0, a0 = divmod(trace.r0[rows], trace.n)
    b1, a1 = divmod(trace.r1[rows], trace.n)
    cells = ", ".join(f"b{x0}a{y0}+b{x1}a{y1}" for x0, y0, x1, y1 in zip(b0, a0, b1, a1))
    print(f"cycle {cycle_no:3d} (stage {stage}, phase {phase}): {cells}")

stats = trace_stats(trace)
print(f"\nissue cycles: {stats.issue_cycles} "
      f"(= N log2 N / (2 Npe) = {64 * 6 // 8})")
print(f"utilization:  {stats.utilization}")
print(f"cycles per stage: {stats.cycles_per_stage}")
print(f"rounds per stage: {stats.rounds_per_stage}")
bank_reads = Counter(stats.reads_per_bank)
print(f"reads per bank: {dict(bank_reads)} (perfectly balanced)\n")

print("read-after-write bounds (strict: delay must stay below):")
for n_total, npe in ((1024, 16), (4096, 32), (4096, 8), (16384, 64)):
    for profile in ("q14", "q32"):
        rep = check_raw_bound(n_total, npe, PROFILES[profile])
        flag = "ok" if rep.satisfied else "STALLS"
        print(f"  N={n_total:>6} Npe={npe:>3} {profile}: "
              f"delay {rep.total_delay:>2} vs bound {rep.bound:>4} -> {flag}")
