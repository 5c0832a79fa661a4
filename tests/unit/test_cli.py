"""Unit tests for the experiment CLI."""

import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_quick(self):
        args = build_parser().parse_args(["run", "fig14", "--quick"])
        assert args.command == "run"
        assert args.experiment == "fig14"
        assert args.quick

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_unknown_subcommand_exits_non_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["frobnicate"])
        assert excinfo.value.code != 0

    def test_no_command_prints_usage_and_fails(self):
        out = io.StringIO()
        assert main([], out=out) == 2
        assert "usage:" in out.getvalue()

    def test_engine_defaults(self):
        args = build_parser().parse_args(["engine"])
        assert args.command == "engine"
        assert args.planner == "batch-greedy"
        assert args.solver == "adpar-exact"
        assert args.norm == "l2"
        assert args.weights is None

    def test_engine_unknown_planner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--planner", "quantum"])

    def test_engine_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--solver", "oracle"])

    def test_engine_unknown_norm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "--norm", "l3"])

    def test_engine_solver_flags_parse(self):
        args = build_parser().parse_args(
            ["engine", "--solver", "adpar-weighted", "--norm", "l1",
             "--weights", "2", "1", "1"]
        )
        assert args.solver == "adpar-weighted"
        assert args.norm == "l1"
        assert args.weights == [2.0, 1.0, 1.0]

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.arrivals == 1000
        assert args.burst == 64
        assert args.hold == 2
        assert args.solver == "adpar-exact"

    def test_stream_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--solver", "oracle"])

    def test_stream_shares_backend_flags(self):
        # The shared add_backend_args block gives stream the full set.
        args = build_parser().parse_args(
            ["stream", "--planner", "payoff-dp", "--solver", "adpar-weighted",
             "--norm", "l1", "--weights", "2", "1", "1"]
        )
        assert args.planner == "payoff-dp"
        assert args.norm == "l1"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.planner == "batch-greedy"
        assert args.solver == "adpar-exact"
        assert args.availability == 0.6

    def test_serve_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--solver", "oracle"])


class TestEngineSpecFromArgs:
    """The one flag → EngineSpec mapping all traffic subcommands share."""

    def test_engine_flags_map_to_spec(self):
        from repro.cli import engine_spec_from_args

        args = build_parser().parse_args(
            ["engine", "--planner", "payoff-dp", "--solver", "adpar-weighted",
             "--norm", "l1", "--weights", "2", "1", "1",
             "--availability", "0.7", "--objective", "payoff"]
        )
        spec = engine_spec_from_args(args)
        assert spec.planner == "payoff-dp"
        assert spec.solver == "adpar-weighted"
        assert spec.solver_options == {"norm": "l1", "weights": (2.0, 1.0, 1.0)}
        assert spec.availability == 0.7
        assert spec.objective == "payoff"
        assert spec.aggregation == "max"

    def test_stream_flags_map_to_same_spec_shape(self):
        from repro.cli import engine_spec_from_args

        args = build_parser().parse_args(["stream", "--availability", "0.5"])
        spec = engine_spec_from_args(args)
        # stream has no --objective flag: the helper falls back.
        assert spec.objective == "throughput"
        assert spec.availability == 0.5
        assert spec.solver_options == {"norm": "l2"}

    def test_serve_flags_map_to_default_spec(self):
        from repro.cli import engine_spec_from_args

        args = build_parser().parse_args(
            ["serve", "--availability", "0.9", "--workforce-mode", "strict"]
        )
        spec = engine_spec_from_args(args)
        assert spec.availability == 0.9
        assert spec.workforce_mode == "strict"


class TestMain:
    def test_list_prints_every_experiment(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text

    def test_run_example(self):
        out = io.StringIO()
        assert main(["run", "example"], out=out) == 0
        assert "Running example" in out.getvalue()

    def test_run_quick_fig15(self):
        out = io.StringIO()
        assert main(["run", "fig15", "--quick"], out=out) == 0
        assert "Throughput" in out.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            ["engine", "--availability", "1.5"],
            ["engine", "--strategies", "0"],
            ["engine", "--requests", "0"],
            ["engine", "--seed", "-1"],
            ["engine", "--solver", "adpar-weighted", "--weights", "-1", "1", "1"],
            ["engine", "--solver", "adpar-weighted", "--weights", "0", "0", "0"],
        ],
    )
    def test_engine_invalid_workload_fails_cleanly(self, argv, capsys):
        assert main(argv, out=io.StringIO()) == 2
        assert "repro engine: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("planner", ["batch-greedy", "payoff-dp"])
    def test_engine_subcommand_reports_resolutions(self, planner):
        out = io.StringIO()
        code = main(
            ["engine", "--planner", planner, "--strategies", "40",
             "--requests", "12", "--k", "3"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert f"planner={planner}" in text
        assert "solver=adpar-exact" in text
        assert "satisfied=" in text
        assert "cache:" in text

    def test_stream_subcommand_reports_counts(self):
        out = io.StringIO()
        code = main(
            ["stream", "--strategies", "25", "--arrivals", "120",
             "--burst", "16", "--k", "2"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "stream |S|=25 arrivals=120" in text
        assert "admitted=" in text
        assert "throughput=" in text
        assert "cache:" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--availability", "1.5"],
            ["stream", "--arrivals", "0"],
            ["stream", "--burst", "0"],
            ["stream", "--hold", "0"],
            ["stream", "--strategies", "0"],
        ],
    )
    def test_stream_invalid_workload_fails_cleanly(self, argv, capsys):
        assert main(argv, out=io.StringIO()) == 2
        assert "repro stream: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["engine", "--solver", "onedim"], "solver=onedim"),
            (
                ["engine", "--solver", "adpar-weighted", "--norm", "linf",
                 "--weights", "2", "1", "1"],
                "solver=adpar-weighted",
            ),
        ],
    )
    def test_engine_solver_selection_end_to_end(self, argv, label):
        out = io.StringIO()
        code = main(argv + ["--strategies", "30", "--requests", "8", "--k", "2"], out=out)
        assert code == 0
        assert label in out.getvalue()

    def test_registry_covers_all_paper_artifacts(self):
        # One entry per §5 artifact: tables 1-5 (example), fig 11-18, table 6.
        assert set(EXPERIMENTS) == {
            "example",
            "fig11",
            "table6",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18a",
            "fig18bc",
        }


def test_serving_imports_leave_scipy_unloaded():
    """``scipy.stats`` backs only the experiment statistics, so importing
    the CLI and the service layer must not pay its import time or RSS."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli, repro.api; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
