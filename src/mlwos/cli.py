"""Command-line front end.

Commands
--------
solve          point estimate with one method (wos, mlwos, meas)
study-variance level-difference decay measurement
study-pdiv     divergence-probability measurement
study-workerr  error-versus-work comparison across methods
trace          one walk's full path as CSV

Each command accepts only the flags it reads (``solve`` those of its
method); any other is a usage error. Flags override config-file values,
which override defaults. All outputs are deterministic for a fixed config
and seed, byte-identical for any thread count; measured wall time
therefore appears only on the console, never in artifacts. Exit status:
0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import estimator, studies, walk
from .geometry import PROBLEM_NAMES, get_problem

__all__ = ["RunConfig", "parse_args", "run", "main"]

_COMMANDS = ("solve", "study-variance", "study-pdiv", "study-workerr", "trace")

# The RunConfig fields each command reads; ``solve`` also reads those of
# its method. A field set by flag or config file that the command does not
# read is a usage error, since the artifact's config echo would record a
# value that shaped nothing. The execution-only ``threads`` and ``output``
# are always accepted.
_READS = {
    "solve": {"problem", "method", "eps_target", "seed", "format"},
    "study-variance": {"problem", "eps_target", "eta", "levels", "m", "seed", "reps", "format"},
    "study-pdiv": {"problem", "eps_list", "radius", "m", "seed", "format"},
    "study-workerr": {"problem", "method", "eps_list", "eta", "reps", "seed", "warmup", "format"},
    "trace": {"problem", "eps_target", "seed"},
}
_SOLVE_READS = {"WOS": {"m"}, "MEAS": {"eta", "warmup"}, "MLWOS": {"eta"}}
_FLAGS = {"eps_target": "--eps", "eps_list": "--eps-list"}


@dataclass
class RunConfig:
    """Fully resolved run parameters; one JSON object mirrors these fields."""

    command: str
    problem: str = "square"
    method: str = "meas"
    eps_target: float = 1e-3
    eta: float = 16.0
    warmup: int = estimator.DEFAULT_WARMUP
    m: Optional[int] = None
    seed: int = 0
    threads: Optional[int] = None
    reps: int = 10
    output: Optional[str] = None
    format: str = "json"
    eps_list: str = ""
    levels: int = 6
    radius: float = 0.2

    def validate(self, given=()):
        """Check the values; ``given`` names the fields set by flag or
        config file, each of which the command must read."""
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        reads = _READS[self.command] | {"threads", "output"}
        where = self.command
        if self.command == "solve":
            method = self.method.upper()
            if method not in _SOLVE_READS:
                raise ValueError(f"unknown method {self.method!r}; choose from {estimator.METHODS}")
            reads = reads | _SOLVE_READS[method]
            where = f"solve with method {method}"
        unread = sorted(_FLAGS.get(name, "--" + name) for name in set(given) - reads)
        if unread:
            raise ValueError(f"{where} does not read {', '.join(unread)}")
        if self.eps_target <= 0.0:
            raise ValueError("--eps must be positive")
        if self.eta <= 1.0:
            raise ValueError("--eta must exceed 1")
        walk.resolve_threads(self.threads)  # rejects a bad --threads or MLWOS_THREADS
        if self.reps < 1:
            raise ValueError("--reps must be at least 1")
        if self.warmup < 2:
            raise ValueError("--warmup must be at least 2")
        if self.m is None and "m" in _READS[self.command]:
            raise ValueError(f"{self.command} needs --m; it cannot be null")
        if self.m is not None and self.m < 2:
            raise ValueError("--m must be at least 2")
        if "eps_list" in _READS[self.command]:
            _parse_eps_list(self.eps_list)
        if self.format not in ("csv", "json"):
            raise ValueError("--format must be csv or json")


_DEFAULTS = {
    "solve": {"format": "json", "output": "solve.json", "reps": 1},
    "study-variance": {
        "format": "csv",
        "output": "variance.csv",
        "eta": 2.0,
        "eps_target": 0.5,
        "m": 10000,
        "reps": 10,
    },
    "study-pdiv": {
        "format": "csv",
        "output": "pdiv.csv",
        "eps_list": "0.05,0.025,0.0125,0.00625",
        "m": 100000,
        "reps": 1,
    },
    "study-workerr": {
        "format": "csv",
        "output": "workerr.csv",
        "eps_list": "0.1,0.03,0.01,0.003",
        "method": "wos,mlwos,meas",
        "reps": 20,
    },
    "trace": {"output": "trace.csv", "eps_target": 1e-2},
}


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 (argparse defaults to 2, reserved here for runtime
    # failures).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlwos", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} run")
        p.error = parser.error  # keep usage errors on exit status 1
        p.add_argument("--problem", choices=PROBLEM_NAMES, default=None)
        p.add_argument("--method", default=None, help="wos, mlwos or meas (comma list for study-workerr)")
        p.add_argument("--eps", dest="eps_target", type=float, default=None,
                       help="error target; coarsest width for study-variance")
        p.add_argument("--eta", type=float, default=None, help="width refinement factor (>1)")
        p.add_argument("--warmup", type=int, default=None, help="warm-up samples per level")
        p.add_argument("--m", type=int, default=None, help="explicit sample count per run or level")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0, never time-based)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: MLWOS_THREADS or core count)")
        p.add_argument("--reps", type=int, default=None, help="repeated runs per study cell")
        p.add_argument("--output", default=None, help="artifact path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None, help="JSON file with RunConfig fields")
        p.add_argument("--eps-list", dest="eps_list", default=None,
                       help="comma-separated widths for sweeps")
        p.add_argument("--levels", type=int, default=None, help="levels for study-variance")
        p.add_argument("--radius", type=float, default=None, help="divergence radius for study-pdiv")
    return parser


def parse_args(argv) -> RunConfig:
    """Resolve flags > config file > per-command defaults into a RunConfig."""
    ns = _build_parser().parse_args(argv)
    command = ns.command
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}

    resolved = {}
    resolved.update(_DEFAULTS.get(command, {}))
    given = set()
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _usage_exit(f"cannot read config {ns.config}: {exc}")
        unknown = set(file_cfg) - fields - {"command"}
        if unknown:
            raise _usage_exit(f"unknown config fields {sorted(unknown)}")
        given = set(file_cfg) - {"command"}
        resolved.update({k: file_cfg[k] for k in given})
    for name in fields:
        value = getattr(ns, name, None)
        if value is not None:
            resolved[name] = value
            given.add(name)

    config = RunConfig(command=command, **{k: v for k, v in resolved.items() if k in fields})
    try:
        config.validate(given)
    except ValueError as exc:
        raise _usage_exit(str(exc))
    return config


def _usage_exit(message: str) -> SystemExit:
    print(f"mlwos: error: {message}", file=sys.stderr)
    return SystemExit(1)


def _parse_eps_list(text):
    if not isinstance(text, str):
        raise ValueError(f"--eps-list must be a comma-separated string, got {text!r}")
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"bad --eps-list {text!r}")
    if not values:
        raise ValueError("--eps-list must not be empty")
    if any(v <= 0.0 for v in values):
        raise ValueError(f"--eps-list widths must be positive, got {text!r}")
    return values


def _write(path: str, payload: str):
    with open(path, "w") as fh:
        fh.write(payload)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _config_echo(config: RunConfig) -> dict:
    # Audit trail of everything statistical; execution-only knobs (threads,
    # output path) are omitted so artifacts stay identical across them.
    echo = dataclasses.asdict(config)
    for key in ("threads", "output"):
        echo.pop(key, None)
    return echo


def _emit(config: RunConfig, doc: dict, csv: str, summary: dict):
    """Write the artifact: ``doc`` as JSON, or ``csv`` plus ``summary`` as
    JSON in ``<output>.summary.json``."""
    if config.format == "json":
        _write(config.output, _json_dump(doc))
    else:
        _write(config.output, csv)
        _write(config.output + ".summary.json", _json_dump(summary))


def _run_solve(config: RunConfig) -> str:
    problem = get_problem(config.problem)
    t0 = time.perf_counter()
    report = estimator.solve(
        problem,
        config.method,
        config.eps_target,
        config.eta,
        warmup=config.warmup,
        m=config.m,
        seed=config.seed,
        threads=config.threads,
    )
    elapsed = time.perf_counter() - t0

    method = config.method.upper()
    doc = report.to_dict()
    doc["problem"] = config.problem
    doc["method"] = method
    doc["config"] = _config_echo(config)
    csv = studies.render_csv("level,eps,m,mean,variance,mean_steps", doc["levels"])
    summary = {k: v for k, v in doc.items() if k != "levels"}
    _emit(config, doc, csv, summary)
    return (
        f"{config.problem} {method.lower()}: value={report.value:.6f} "
        f"stat_error={report.stat_error:.2e} discr_bound={report.eps_target:.2e} "
        f"work={report.total_steps} wall={elapsed:.2f}s"
    )


def _run_variance(config: RunConfig) -> str:
    problem = get_problem(config.problem)
    result = studies.variance_study(
        problem,
        eta=config.eta,
        eps0=config.eps_target,
        num_levels=config.levels,
        m_per_level=config.m,
        seed=config.seed,
        threads=config.threads,
        reps=config.reps,
    )
    summary = {**result.summary(), "config": _config_echo(config)}
    _emit(config, {"records": result.rows, **summary}, result.to_csv(), summary)
    if result.degenerate:
        return "variance study: degenerate (all level norms zero)"
    return f"variance study: fitted decay exponent {result.fit.slope:.3f} (r2 {result.fit.r_squared:.3f})"


def _run_pdiv(config: RunConfig) -> str:
    problem = get_problem(config.problem)
    eps_list = _parse_eps_list(config.eps_list)
    result = studies.pdiv_study(
        problem,
        eps_list,
        radius=config.radius,
        m=config.m,
        seed=config.seed,
        threads=config.threads,
    )
    summary = {**result.summary(), "config": _config_echo(config)}
    _emit(config, {"records": result.rows, **summary}, result.to_csv(), summary)
    if result.fit is None:
        return "pdiv study: no fit (too few divergence events)"
    return f"pdiv study: fitted slope {result.fit.slope:.3f} (r2 {result.fit.r_squared:.3f})"


def _run_workerr(config: RunConfig) -> str:
    problem = get_problem(config.problem)
    methods = [m.strip() for m in config.method.split(",") if m.strip()]
    eps_list = _parse_eps_list(config.eps_list)
    result = studies.work_error_study(
        problem,
        methods,
        eps_list,
        eta=config.eta,
        reps=config.reps,
        seed=config.seed,
        threads=config.threads,
        warmup=config.warmup,
    )
    summary = {**result.summary(), "config": _config_echo(config)}
    records = [dataclasses.asdict(r) for r in result.records]
    _emit(config, {"records": records, **summary}, result.to_csv(), summary)
    slopes = ", ".join(f"{m}:{f.slope:.3f}" for m, f in sorted(result.fits.items()))
    return f"work-error study: error-vs-work slopes {slopes}"


def _run_trace(config: RunConfig) -> str:
    problem = get_problem(config.problem)
    batch = walk.run_many(
        problem.domain, problem.start, [config.eps_target], master_seed=config.seed, trace=True
    )
    value = float(problem.bc(batch.exits[0, 0]))
    _write(config.output, walk.trace_csv(problem.domain, batch.trace))
    return f"trace: {batch.steps[0, 0]} steps, exit value {value:.6f}, written to {config.output}"


_RUNNERS = {
    "solve": _run_solve,
    "study-variance": _run_variance,
    "study-pdiv": _run_pdiv,
    "study-workerr": _run_workerr,
    "trace": _run_trace,
}


def run(config: RunConfig) -> int:
    """Execute a resolved config; writes artifacts and a one-line summary."""
    try:
        summary = _RUNNERS[config.command](config)
    except (ValueError, walk.StepLimitExceeded, OSError) as exc:
        print(f"mlwos: error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
