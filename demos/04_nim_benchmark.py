"""
Benchmark: recovering the Nim losing positions
==============================================

Train on the 3-heap Nim P-positions with all heaps below 100, then
probe how well the fitted residue function identifies P-positions it
never saw.  Reproduces the headline benchmark numbers.
"""

import time

from padiclearn import (
    BENCHMARK_PARAMS,
    SampleSet,
    generate_p_positions,
    learn,
    run_task,
    trivial_baseline,
)

# A Nim position is losing for the player to move iff the XOR of the
# heap sizes is zero.  7984 such positions fit below 100 per heap.
pts = generate_p_positions(3, 100)
print(f"training on {pts.shape[0]} P-positions below 100^3")

t0 = time.perf_counter()
est = learn(SampleSet(BENCHMARK_PARAMS, pts))
print(f"trained in {time.perf_counter() - t0:.2f} s "
      f"(p=2, E=10, window 100^3, full series)")

# Task 1: classify uniform random positions in [0, 1024)^3.
rep = run_task(est, 1, trials=100000, seed=1)
print(f"task 1  {rep.trials} random positions, "
      f"success {rep.success_rate:.4f}")

# Task 2: exhaustively sweep the plane x0 = 0, where the P-positions
# are the 1024 points with x1 == x2.  2^20 trials.
rep = run_task(est, 2)
print(f"task 2  {rep.trials} plane points, {rep.failures} failures, "
      f"success {rep.success_rate:.6f}")

# Task 3: random unseen P-positions.  Hard mode: every query sits on
# the target set, so any nonzero residue is a miss.
rep = run_task(est, 3, trials=50000, seed=1)
print(f"task 3  {rep.trials} random P-positions, "
      f"success {rep.success_rate:.4f}")

# Task 4: every P-position with x0 < 64 and the other heaps free.
rep = run_task(est, 4)
print(f"task 4  {rep.trials} P-positions, {rep.failures} failures, "
      f"success {rep.success_rate:.4f}")

# Subsampled variant of task 2 with a binomial confidence interval,
# for settings where the full sweep is too large.
rep = run_task(est, 2, mode="subsample", seed=1)
lo, hi = rep.ci95
print(f"task 2 subsampled  n={rep.trials}, "
      f"success {rep.success_rate:.4f}, ci95 [{lo:.4f}, {hi:.4f}]")

# Reference point: a baseline that answers "not a member" everywhere
# scores the base rate on tasks 1 and 2 and zero on tasks 3 and 4.
for task in (1, 2, 3, 4):
    b = trivial_baseline(task)
    print(f"baseline task {task}: success {b.success_rate:.6f}")
