"""Error versus work for the three estimators on the square problem.

WOS is plain walk-on-spheres with equilibrated sample counts, MLWOS the
multilevel estimator with sample counts from modeled decay rates, MEAS the
multilevel estimator with measured allocation, which also drops each
coarse level whose warm-up shows it does not pay. Every cell is several
full runs under different stream contexts; the error is measured against
the finite-difference reference value.

At these coarse error targets the paths are only a handful of steps long,
so a multilevel ladder has little room to save work. MLWOS runs its
a-priori ladder anyway; MEAS mostly keeps only the finest width there, and
so spends about what WOS spends plus a small warm-up. The multilevel
advantage grows as the target shrinks and fine paths lengthen.
"""

from mlwos import get_problem, work_error_study

res = work_error_study(
    get_problem("square"), ["WOS", "MLWOS", "MEAS"],
    eps_targets=[0.1, 0.03, 0.01], eta=16.0, reps=8, seed=5,
)

print("method  eps_target   rms_error    mean_work")
for method, pts in sorted(res.points.items()):
    for eps, rms, ci, work in pts:
        print(f"{method:6s}  {eps:9.4g}   {rms:.5f}      {work:10.0f}")
print("\nerror-vs-work slopes (optimum for Monte Carlo is -0.5):")
for method, fit in sorted(res.fits.items()):
    print(f"  {method:6s} {fit.slope:+.3f}  (r2 {fit.r_squared:.3f})")
