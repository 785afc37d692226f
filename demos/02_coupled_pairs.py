"""Anatomy of a coupled coarse/fine pair.

One walk is recorded twice: when it first enters the coarse stopping shell
and again when it reaches the fine one. The coarse record is literally a
prefix of the fine path, which is what makes the level differences small,
and small differences are the entire multilevel advantage.
"""

import numpy as np

from mlwos import get_problem, run_many

problem = get_problem("square")
domain, bc = problem.domain, problem.bc

pair = run_many(domain, problem.start, [0.1, 0.1 / 16], master_seed=42, count=1)
coarse, fine = bc(pair.exits[:, 0])
print("one pair, widths 0.1 -> 0.00625:")
print(f"  coarse exit after {pair.steps[0, 0]} steps at {np.round(pair.exits[0, 0], 4)}")
print(f"  fine   exit after {pair.steps[1, 0]} steps at {np.round(pair.exits[1, 0], 4)}")
print(f"  boundary values {coarse:.4f} / {fine:.4f}, diff {fine - coarse:+.4f}")

batch = run_many(domain, problem.start, [0.1, 0.1 / 16], master_seed=42, count=20_000)
coarse_vals = bc(batch.exits[0])
fine_vals = bc(batch.exits[1])
print("\n20000 pairs:")
print(f"  var fine value     : {np.var(fine_vals):.5f}")
print(f"  var coupled diff   : {np.var(fine_vals - coarse_vals):.5f}")
print(f"  variance reduction : {np.var(fine_vals) / np.var(fine_vals - coarse_vals):.1f}x")
