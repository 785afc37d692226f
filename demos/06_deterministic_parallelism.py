"""Reproducibility is a contract, not an accident.

Every sample owns a counter-based stream addressed by (seed, context,
level, sample index), so results are assembled in sample order no matter
which thread produced them. The same seed gives the same bits on 1 thread
or 8, and any single path can be replayed in isolation.
"""

import numpy as np

from mlwos import (
    adaptive_mlmc,
    get_problem,
    run_many,
    sample_level,
    stream_context,
)

problem = get_problem("hemisphere")

reports = [
    adaptive_mlmc(problem, 5e-3, eta=16.0, seed=11, threads=t) for t in (1, 2, 8)
]
print("adaptive estimate with seed 11 across thread counts:")
for t, rep in zip((1, 2, 8), reports):
    print(f"  threads={t}: value={rep.value!r} work={rep.total_steps}")
assert len({rep.value for rep in reports}) == 1

# replay one sample of the coarsest summed level by its key alone: seed 11,
# the estimator's stream context, the level's stream level (one per coarser
# level the estimator dropped) and the sample index
rep = reports[0]
level, index = len(rep.dropped), rep.m[0] // 2
[(population, _)] = sample_level(
    problem, [((rep.eps[0],), level, stream_context(0), 0, rep.m[0])], seed=11, threads=1,
)
assert population.mean() == rep.level_stats[0].mean  # the estimate's own samples
one = run_many(
    problem.domain, problem.start, [rep.eps[0]], master_seed=11,
    context=stream_context(0), level=level, start_index=index, count=1,
)
value = problem.bc(one.exits[0, 0])
assert value == population[index]
print(f"\nsample {index} of {rep.m[0]} at width {rep.eps[0]:g} (stream level {level}) "
      "replayed from its key:")
print(f"  {one.steps[0, 0]} steps, exit {np.round(one.exits[0, 0], 5)}, value {value:.6f}")
