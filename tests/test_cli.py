import json
import subprocess
import sys

import pytest

from mlwos.cli import main, parse_args

_PY = [sys.executable, "-m", "mlwos"]

# A valid value for each flag whose field some command does not read.
_VALUES = {
    "--method": "wos", "--eps": "0.01", "--eta": "4", "--warmup": "7", "--m": "5000",
    "--reps": "3", "--format": "json", "--eps-list": "0.1,0.05", "--levels": "3",
    "--radius": "0.3",
}
# The flags each command does not read; ``solve``'s depend on the method.
_UNREAD = {
    "wos": ["--eta", "--warmup", "--reps", "--eps-list", "--levels", "--radius"],
    "meas": ["--m", "--reps", "--eps-list", "--levels", "--radius"],
    "mlwos": ["--m", "--warmup", "--reps", "--eps-list", "--levels", "--radius"],
    "study-variance": ["--method", "--warmup", "--eps-list", "--radius"],
    "study-pdiv": ["--method", "--eps", "--eta", "--warmup", "--reps", "--levels"],
    "study-workerr": ["--eps", "--m", "--levels", "--radius"],
    "trace": ["--method", "--eta", "--warmup", "--m", "--reps", "--format", "--eps-list",
              "--levels", "--radius"],
}
_SOLVE_CASES = [("meas", "--m"), ("mlwos", "--m"), ("wos", "--warmup"), ("mlwos", "--warmup")]


# The RunConfig fields an artifact's config echo holds, by command and
# ``solve`` method: those it reads, as in the README's flag table.
_SOLVE_ECHO = {"problem", "method", "eps_target", "seed", "format"}
_ECHOED = {
    "wos": _SOLVE_ECHO | {"m"},
    "meas": _SOLVE_ECHO | {"eta", "warmup"},
    "mlwos": _SOLVE_ECHO | {"eta"},
    "study-variance": {"problem", "eps_target", "eta", "levels", "m", "seed", "reps", "format"},
    "study-pdiv": {"problem", "eps_list", "radius", "m", "seed", "format"},
    "study-workerr": {"problem", "method", "eps_list", "eta", "reps", "seed", "warmup", "format"},
    "trace": {"problem", "eps_target", "seed"},
}
# A small run of each, on the square.
_SMALL_RUNS = {
    "wos": ["solve", "--method", "wos", "--m", "50", "--eps", "0.1"],
    "meas": ["solve", "--method", "meas", "--eps", "0.1", "--warmup", "10"],
    "mlwos": ["solve", "--method", "mlwos", "--eps", "0.1"],
    "study-variance": ["study-variance", "--eps", "0.4", "--levels", "2", "--m", "100",
                       "--reps", "2"],
    "study-pdiv": ["study-pdiv", "--eps-list", "0.05", "--m", "2000"],
    "study-workerr": ["study-workerr", "--method", "wos", "--eps-list", "0.1", "--reps", "5"],
    "trace": ["trace", "--eps", "0.1"],
}


def run_cli(args, cwd, env):
    return subprocess.run(
        _PY + args, cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )


class TestParseArgs:
    def test_solve_flags(self):
        cfg = parse_args(
            [
                "solve", "--problem", "hemisphere", "--method", "meas",
                "--eps", "1e-3", "--eta", "16", "--seed", "7",
            ]
        )
        assert cfg.command == "solve"
        assert cfg.problem == "hemisphere"
        assert cfg.method == "meas"
        assert cfg.eps_target == 1e-3
        assert cfg.eta == 16.0
        assert cfg.seed == 7
        assert cfg.warmup == 100  # default
        assert cfg.output == "solve.json"  # default

    def test_eta_one_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["solve", "--eta", "1"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--eps", "nan"], ["solve", "--eps", "inf"],
         ["solve", "--method", "meas", "--eta", "nan"],
         ["study-workerr", "--eps-list", "0.1,nan"],
         ["study-pdiv", "--radius", "nan"], ["study-pdiv", "--radius", "inf"]],
        ids=["eps-nan", "eps-inf", "eta-nan", "eps-list-nan", "radius-nan", "radius-inf"],
    )
    def test_nonfinite_value_is_usage_error(self, argv):
        """NaN passes every ordering check: unchecked, a NaN width ran its
        walks into the step limit, a runtime error (exit 2)."""
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["solve", "--bogus", "3"])
        assert err.value.code == 1

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["solve", "--problem", "cube"])
        assert err.value.code == 1

    def test_unknown_solve_method_rejected(self, capsys):
        assert main(["solve", "--method", "mlmc", "--eta", "8"]) == 1
        assert "unknown method 'mlmc'" in capsys.readouterr().err

    def test_config_file_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 4, "eta": 8.0, "problem": "square"}))
        cfg = parse_args(["solve", "--config", str(cfg_file), "--seed", "9"])
        assert cfg.seed == 9  # flag wins
        assert cfg.eta == 8.0  # config beats default
        assert cfg.problem == "square"

    def test_config_unknown_field_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"wibble": 1}))
        with pytest.raises(SystemExit) as err:
            parse_args(["solve", "--config", str(cfg_file)])
        assert err.value.code == 1

    def test_unreadable_config_is_usage_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["solve", "--config", str(broken)]) == 1

    @pytest.mark.parametrize(
        "method, flag, value",
        [(method, flag, _VALUES[flag]) for method, flag in _SOLVE_CASES]
        + [(method, flag, _VALUES[flag]) for method in ("wos", "meas", "mlwos")
           for flag in _UNREAD[method] if (method, flag) not in _SOLVE_CASES],
    )
    def test_option_the_method_ignores_is_usage_error(self, method, flag, value, capsys):
        assert main(["solve", "--method", method, flag, value]) == 1
        err = capsys.readouterr().err
        assert flag in err and method.upper() in err

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command in ("study-variance", "study-pdiv", "study-workerr", "trace")
         for flag in _UNREAD[command]],
    )
    def test_flag_the_command_ignores_is_usage_error(self, command, flag, capsys):
        assert main([command, flag, _VALUES[flag], "--output", "unused"]) == 1
        err = capsys.readouterr().err
        assert flag in err and command in err

    def test_config_field_the_command_ignores_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"eta": 3.0, "seed": 4}))
        assert main(["study-pdiv", "--config", str(cfg_file)]) == 1
        assert "--eta" in capsys.readouterr().err
        # The same field is accepted by a command that reads it.
        assert parse_args(["study-workerr", "--config", str(cfg_file)]).eta == 3.0

    @pytest.mark.parametrize(
        "command, field, value, flag",
        [
            ("study-variance", "m", None, "--m"),
            ("study-pdiv", "m", None, "--m"),
            ("study-pdiv", "eps_list", "", "--eps-list"),
            ("study-workerr", "eps_list", "", "--eps-list"),
            ("study-workerr", "eps_list", " , ", "--eps-list"),
            ("study-workerr", "eps_list", [0.1, 0.03], "--eps-list"),
            ("study-workerr", "eps_list", "0.1,-0.03", "--eps-list"),
            ("study-pdiv", "eps_list", "0.05,0", "--eps-list"),
        ],
    )
    def test_config_value_a_study_cannot_run_is_usage_error(
        self, tmp_path, capsys, command, field, value, flag
    ):
        """A null ``m`` or an empty ``eps_list`` would run on a fallback
        default while the artifact echoed the null or empty value; a
        nonpositive width would fail deep inside the estimators."""
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({field: value}))
        assert main([command, "--config", str(cfg_file), "--output", "unused"]) == 1
        assert flag in capsys.readouterr().err
        if field == "eps_list":
            assert main([command, "--eps-list", "", "--output", "unused"]) == 1
            assert flag in capsys.readouterr().err

    def test_null_m_is_automatic_for_wos_solve(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"m": None}))
        assert parse_args(["solve", "--method", "wos", "--config", str(cfg_file)]).m is None

    def test_options_the_method_uses_accepted(self):
        assert parse_args(["solve", "--method", "wos", "--m", "50"]).m == 50
        assert parse_args(["solve", "--method", "MEAS", "--warmup", "7"]).warmup == 7
        assert parse_args(["study-workerr", "--warmup", "7"]).warmup == 7

    def test_study_defaults(self):
        cfg = parse_args(["study-variance"])
        assert cfg.eta == 2.0
        assert cfg.eps_target == 0.5
        assert cfg.reps == 10
        assert cfg.output == "variance.csv"
        cfg = parse_args(["study-workerr"])
        assert cfg.method == "wos,mlwos,meas"
        assert cfg.reps == 20

    @pytest.mark.parametrize("problem, eps", [("square", 0.5), ("ball3", 0.5), ("hemisphere", 0.05)])
    def test_variance_width_defaults_to_half_the_start_distance(self, tmp_path, problem, eps):
        """The hemisphere's start is 0.1 from its boundary, so a fixed 0.5
        could not run there; the default runs and is echoed."""
        out = tmp_path / "variance.json"
        argv = ["study-variance", "--problem", problem, "--levels", "2", "--m", "100",
                "--reps", "1", "--format", "json", "--threads", "1", "--output", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["config"]["eps_target"] == eps


class TestSolveCommand:
    def test_constant_problem_summary(self, tmp_path, cli_env):
        res = run_cli(
            ["solve", "--problem", "ball2", "--method", "wos", "--m", "100",
             "--eps", "1e-3", "--output", "out.json"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 0, res.stderr
        assert "value=1.000000" in res.stdout
        assert "stat_error=0.00e+00" in res.stdout
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["value"] == 1.0
        assert doc["wall_time_s"] == 0.0
        assert doc["config"]["seed"] == 0
        assert "threads" not in doc["config"]

    def test_runtime_error_exit_two(self, tmp_path, cli_env):
        # eps above the start's boundary distance is a runtime failure
        res = run_cli(
            ["solve", "--problem", "ball2", "--method", "wos", "--eps", "2.0",
             "--output", "out.json"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 2, res.stderr
        assert "error" in res.stderr

    def test_csv_format(self, tmp_path, cli_env):
        res = run_cli(
            ["solve", "--problem", "ball3", "--method", "wos", "--m", "60",
             "--eps", "0.1", "--format", "csv", "--output", "out.csv"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "out.csv").read_text().strip().split("\n")
        assert lines[0] == "level,eps,m,mean,variance,mean_steps"

    def test_meas_names_dropped_levels(self, tmp_path, cli_env):
        """At 3e-3 on the square MEAS drops the coarsest width, 0.768: the
        artifact's levels are the two it sums, and the dropped width's
        warm-up steps count in the total."""
        res = run_cli(
            ["solve", "--problem", "square", "--method", "meas", "--eps", "3e-3",
             "--threads", "1", "--output", "out.json"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "out.json").read_text())
        assert [row["eps"] for row in doc["levels"]] == [0.048, 0.003]
        assert [row["level"] for row in doc["levels"]] == [0, 1]
        [dropped] = doc["dropped"]
        assert dropped["eps"] == 0.768 and dropped["warmup_steps"] > 0
        summed = sum(round(row["m"] * row["mean_steps"]) for row in doc["levels"])
        assert doc["total_steps"] == summed + dropped["warmup_steps"]

    def test_mlwos_method_runs(self, tmp_path, cli_env):
        res = run_cli(
            ["solve", "--problem", "square", "--method", "mlwos", "--eps", "0.02",
             "--eta", "4", "--seed", "3", "--output", "out.json"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "out.json").read_text())
        assert len(doc["levels"]) >= 2


class TestThreadsErrors:
    @pytest.mark.parametrize("value", ["abc", "-4"])
    def test_malformed_environment_is_usage_error(self, tmp_path, cli_env, value):
        env = dict(cli_env, MLWOS_THREADS=value)
        args = ["solve", "--problem", "ball2", "--method", "wos", "--m", "10",
                "--output", "out.json"]
        res = run_cli(args, tmp_path, env)
        assert res.returncode == 1, res.stderr
        assert "MLWOS_THREADS" in res.stderr
        assert not (tmp_path / "out.json").exists()
        # An explicit --threads takes precedence over the environment.
        res = run_cli(args + ["--threads", "1"], tmp_path, env)
        assert res.returncode == 0, res.stderr

    def test_same_exit_code_as_threads_flag(self, monkeypatch):
        monkeypatch.setenv("MLWOS_THREADS", "abc")
        assert main(["solve", "--problem", "ball2"]) == 1
        monkeypatch.delenv("MLWOS_THREADS")
        assert main(["solve", "--problem", "ball2", "--threads", "0"]) == 1


class TestDeterminismAcrossThreads:
    def test_solve_and_studies_byte_identical(self, tmp_path, cli_env):
        commands = {
            "solve": ["solve", "--problem", "hemisphere", "--method", "meas",
                      "--eps", "5e-3", "--eta", "16", "--seed", "2"],
            "variance": ["study-variance", "--problem", "square", "--eps", "0.4",
                         "--levels", "2", "--m", "150", "--reps", "2", "--seed", "2"],
            "pdiv": ["study-pdiv", "--problem", "square", "--m", "1500",
                     "--eps-list", "0.05,0.025", "--seed", "2"],
            "workerr": ["study-workerr", "--problem", "square", "--method", "wos,meas",
                        "--eps-list", "0.1,0.05", "--reps", "5", "--seed", "2"],
        }
        for name, argv in commands.items():
            outputs = []
            for threads in (1, 4):
                out = tmp_path / f"{name}_t{threads}.dat"
                res = run_cli(
                    argv + ["--threads", str(threads), "--output", str(out)],
                    tmp_path,
                    cli_env,
                )
                assert res.returncode == 0, res.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{name} differs across thread counts"


class TestConfigEcho:
    @pytest.mark.parametrize("case", sorted(_SMALL_RUNS))
    def test_echo_holds_the_fields_read_and_the_stream_format(self, tmp_path, case):
        """Defaults the command never reads are not echoed."""
        argv = _SMALL_RUNS[case] + ["--problem", "square", "--threads", "1"]
        out = tmp_path / "out"
        if case == "trace":
            assert main(argv + ["--output", str(out)]) == 0
            doc = json.loads((tmp_path / "out.summary.json").read_text())
        else:
            assert main(argv + ["--format", "json", "--output", str(out)]) == 0
            doc = json.loads(out.read_text())
        assert set(doc["config"]) == _ECHOED[case] | {"stream_format"}
        assert doc["config"]["stream_format"] == 4


class TestTraceCommand:
    def test_trace_csv(self, tmp_path, cli_env):
        res = run_cli(
            ["trace", "--problem", "square", "--eps", "0.01", "--seed", "5",
             "--output", "path.csv"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "path.csv").read_text().strip().split("\n")
        assert lines[0] == "step,x1,x2,dist"
        assert lines[1].startswith("0,1.0,1.0,")
        assert len(lines) >= 3
        assert res.stdout.startswith("trace: ")
        steps = int(res.stdout.split()[1])
        assert len(lines) == steps + 2
        assert float(lines[-1].split(",")[-1]) < 0.01


class TestWorkerrCommand:
    def test_contractual_header_and_summary(self, tmp_path, cli_env):
        res = run_cli(
            ["study-workerr", "--problem", "square", "--method", "wos,meas",
             "--eps-list", "0.1,0.05", "--reps", "5", "--seed", "3",
             "--output", "we.csv"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "we.csv").read_text().strip().split("\n")
        assert lines[0] == "method,eps_target,eta,rep,value,error,work,wall_time_s"
        summary = json.loads((tmp_path / "we.csv.summary.json").read_text())
        assert set(summary["fits"]) == {"WOS", "MEAS"}
        assert "points" in summary

    def test_missing_reference_is_runtime_error(self, tmp_path, cli_env):
        # ball problems have references; fabricate the failure via config of a
        # method list with an unknown entry instead
        res = run_cli(
            ["study-workerr", "--problem", "square", "--method", "bogus",
             "--eps-list", "0.1", "--reps", "5", "--output", "we.csv"],
            tmp_path,
            cli_env,
        )
        assert res.returncode == 2, res.stderr


def test_main_returns_exit_code(tmp_path):
    assert main(["solve", "--problem", "ball2", "--method", "wos", "--m", "50",
                 "--eps", "0.1", "--output", str(tmp_path / "r.json")]) == 0
    assert main(["solve", "--eta", "1"]) == 1
