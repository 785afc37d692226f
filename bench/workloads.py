"""The benchmark's workloads: what one operation is, its tiny smoke-test
form, its correctness check, the walk steps it spent and its digest.

Every operation goes through the public estimator and studies functions,
looked up on their modules at call time so that span wrappers apply, with
the caller's ``threads`` (``None`` resolves to the library default).
"""

from __future__ import annotations

import hashlib
import math
import struct

ETA = 16.0
STUDY_METHODS = ("WOS", "MLWOS", "MEAS")


def digest(parts):
    """Short sha256 of the parts' reprs; equal digests mean equal results."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _bits(x):
    return struct.pack("<d", x).hex()


class Solve:
    """One point solve: WOS (``mc_estimate``, automatic sample count) or
    MEAS (``adaptive_mlmc``) at a target width ``eps``."""

    def __init__(self, name, problem, method, eps, tiny_eps, prefix, trace_prefix):
        self.name = name
        self.problems = (problem,)
        self.problem = problem
        self.method = method
        self.eps = eps
        self.tiny_eps = tiny_eps
        # Operations always run: exact counts are means over the first
        # ``prefix`` untraced / ``trace_prefix`` traced operations.
        self.prefix = prefix
        self.trace_prefix = trace_prefix

    def run(self, mlwos, problems, seed, threads, tiny):
        problem = problems[self.problem]
        eps = self.tiny_eps if tiny else self.eps
        if self.method == "WOS":
            return mlwos.estimator.mc_estimate(problem, eps, seed=seed, threads=threads)
        return mlwos.estimator.adaptive_mlmc(problem, eps, ETA, seed=seed, threads=threads)

    def check(self, problems, report, tiny):
        """|value - reference| <= 4 stat_error + eps_target."""
        ref = problems[self.problem].reference_solution
        err = abs(report.value - ref)
        limit = 4.0 * report.stat_error + report.eps_target
        if not err <= limit:
            return f"error {err:.3g} exceeds 4*stat_error+eps = {limit:.3g}"
        return None

    def steps(self, report):
        return report.total_steps

    def digest(self, report):
        return digest([_bits(report.value), report.total_steps])


class WorkErrorStudy:
    """One error-versus-work sweep of WOS, MLWOS and MEAS."""

    def __init__(self, name, problem, eps_list, tiny_eps_list, reps, prefix, trace_prefix):
        self.name = name
        self.problems = (problem,)
        self.problem = problem
        self.eps_list = eps_list
        self.tiny_eps_list = tiny_eps_list
        self.reps = reps
        self.prefix = prefix
        self.trace_prefix = trace_prefix

    def run(self, mlwos, problems, seed, threads, tiny):
        eps_list = self.tiny_eps_list if tiny else self.eps_list
        return mlwos.studies.work_error_study(
            problems[self.problem], STUDY_METHODS, eps_list, eta=ETA,
            reps=self.reps, seed=seed, threads=threads,
        )

    def check(self, problems, result, tiny):
        """One record per (method, eps, rep), each value finite and inside
        [0, 1], the range of the square's boundary data."""
        eps_list = self.tiny_eps_list if tiny else self.eps_list
        want = len(STUDY_METHODS) * len(eps_list) * self.reps
        if len(result.records) != want:
            return f"{len(result.records)} records, expected {want}"
        bad = [r for r in result.records if not (math.isfinite(r.value) and 0.0 <= r.value <= 1.0)]
        if bad:
            return f"{len(bad)} record values outside [0, 1], first {bad[0].value!r}"
        return None

    def steps(self, result):
        return sum(r.work for r in result.records)

    def digest(self, result):
        return digest(
            [(r.method, r.eps_target, r.rep_seed, _bits(r.value), r.work) for r in result.records]
        )


WORKLOADS = {
    w.name: w
    for w in (
        Solve("square-wos", "square", "WOS", 1e-3, 1e-2, prefix=3, trace_prefix=1),
        Solve("hemisphere-meas", "hemisphere", "MEAS", 1e-3, 1e-2, prefix=24, trace_prefix=4),
        WorkErrorStudy(
            "square-workerr", "square", (0.1, 0.03, 0.01), (0.1, 0.03), reps=5,
            prefix=4, trace_prefix=2,
        ),
    )
}
