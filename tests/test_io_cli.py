"""Tests for JSON serialization (repro.io) and the CLI (repro.cli)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core import Interval, Mapping, Platform, TaskChain
from repro.io import FORMAT_VERSION, dumps, from_dict, loads, to_dict
from repro.cli import build_parser, main
from repro.obs import list_runs

#: The directory that holds this checkout's ``repro`` package.
PKG_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def chain():
    return TaskChain([4.0, 6.0, 2.0], [2.0, 1.0, 0.0])


@pytest.fixture
def platform():
    return Platform(
        speeds=[2.0, 1.0, 3.0],
        failure_rates=[1e-6, 2e-6, 5e-7],
        bandwidth=2.0,
        link_failure_rate=1e-5,
        max_replication=2,
    )


@pytest.fixture
def mapping(chain, platform):
    return Mapping(
        chain, platform, [(Interval(0, 2), (0, 1)), (Interval(2, 3), (2,))]
    )


class TestSerialization:
    def test_chain_roundtrip(self, chain):
        assert loads(dumps(chain)) == chain

    def test_platform_roundtrip(self, platform):
        assert loads(dumps(platform)) == platform

    def test_mapping_roundtrip(self, mapping):
        assert loads(dumps(mapping)) == mapping

    def test_format_version_stamped(self, chain):
        payload = to_dict(chain)
        assert payload["repro_format"] == FORMAT_VERSION

    def test_newer_format_rejected(self, chain):
        payload = to_dict(chain)
        payload["repro_format"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            from_dict(payload)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown object type"):
            from_dict({"type": "Starship"})
        with pytest.raises(ValueError, match="missing 'type'"):
            from_dict({"work": [1]})
        with pytest.raises(TypeError):
            to_dict(42)  # type: ignore[arg-type]

    def test_json_is_plain(self, mapping):
        payload = json.loads(dumps(mapping))
        assert payload["type"] == "Mapping"
        assert payload["intervals"] == [[0, 2], [2, 3]]
        assert payload["replicas"] == [[0, 1], [2]]


#: Every subcommand path (including nested ones) — each must have a
#: working --help.
HELP_PATHS = [
    [],
    ["solve"],
    ["evaluate"],
    ["simulate"],
    ["experiment"],
    ["scenario"],
    ["scenario", "list"],
    ["scenario", "show"],
    ["scenario", "run"],
    ["plan"],
    ["plan", "show"],
    ["demo"],
]


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("solve", "evaluate", "simulate", "experiment", "demo"):
            args = parser.parse_args(
                [cmd, "x", "y"] if cmd == "solve" else
                ([cmd, "x"] if cmd in ("evaluate", "simulate") else
                 ([cmd, "fig6"] if cmd == "experiment" else [cmd]))
            )
            assert args.command == cmd

    @pytest.mark.parametrize("path", HELP_PATHS, ids=lambda p: " ".join(p) or "root")
    def test_every_subcommand_help_exits_zero(self, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_solve_roundtrip(self, tmp_path, chain, capsys):
        hom = Platform.homogeneous_platform(
            4, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=2
        )
        cpath = tmp_path / "chain.json"
        ppath = tmp_path / "plat.json"
        out = tmp_path / "mapping.json"
        cpath.write_text(dumps(chain))
        ppath.write_text(dumps(hom))
        code = main(
            [
                "solve", str(cpath), str(ppath),
                "--max-period", "50", "--max-latency", "100",
                "--output", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "failure prob" in text
        decoded = loads(out.read_text())
        assert isinstance(decoded, Mapping)

    def test_solve_infeasible_exit_code(self, tmp_path, chain):
        hom = Platform.homogeneous_platform(2, max_replication=1)
        cpath = tmp_path / "chain.json"
        ppath = tmp_path / "plat.json"
        cpath.write_text(dumps(chain))
        ppath.write_text(dumps(hom))
        code = main(["solve", str(cpath), str(ppath), "--max-period", "0.5"])
        assert code == 1

    def test_solve_heuristic_on_het(self, tmp_path, chain, platform, capsys):
        cpath = tmp_path / "chain.json"
        ppath = tmp_path / "plat.json"
        cpath.write_text(dumps(chain))
        ppath.write_text(dumps(platform))
        code = main(["solve", str(cpath), str(ppath)])
        assert code == 0
        assert "heuristic" in capsys.readouterr().out

    def test_solve_any_registered_method(self, tmp_path, chain, platform, capsys):
        """--method takes every registry name, not a hand-kept subset."""
        cpath = tmp_path / "chain.json"
        ppath = tmp_path / "plat.json"
        cpath.write_text(dumps(chain))
        ppath.write_text(dumps(platform))
        assert main(["solve", str(cpath), str(ppath), "--method", "heur-l"]) == 0
        assert "heur-l" in capsys.readouterr().out

    def test_solve_unknown_method_lists_names(self, tmp_path, chain, platform):
        from repro.experiments import METHODS

        cpath = tmp_path / "chain.json"
        ppath = tmp_path / "plat.json"
        cpath.write_text(dumps(chain))
        ppath.write_text(dumps(platform))
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(cpath), str(ppath), "--method", "no-such-method"])
        message = str(exc.value.code)
        assert "unknown method 'no-such-method'" in message
        for name in METHODS:
            assert repr(name) in message

    def test_wrong_file_type_rejected(self, tmp_path, chain):
        cpath = tmp_path / "chain.json"
        cpath.write_text(dumps(chain))
        with pytest.raises(SystemExit, match="expected Platform"):
            main(["solve", str(cpath), str(cpath)])

    def test_evaluate(self, tmp_path, mapping, capsys):
        mpath = tmp_path / "mapping.json"
        mpath.write_text(dumps(mapping))
        assert main(["evaluate", str(mpath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 <= payload["failure_probability"] <= 1
        assert payload["worst_case_latency"] >= payload["expected_latency"]

    def test_simulate(self, tmp_path, mapping, capsys):
        mpath = tmp_path / "mapping.json"
        mpath.write_text(dumps(mapping))
        code = main(["simulate", str(mpath), "--datasets", "300", "--seed", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert "reliability_ok" in payload
        assert code in (0, 1)

    def test_experiment_figure_id(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        code = main(
            ["experiment", "fig10", "--instances", "2", "--exact", "pareto-dp",
             "--manifest", str(manifest_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig10 [hom-linked]" in out and "fig11 [hom-linked]" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiments"] == ["hom-linked"]
        assert set(manifest["versions"]) == {"repro", "numpy", "python"}
        [row] = list_runs()
        assert row["run_id"] == manifest["run_id"]
        # An experiment manifest nests its workload under runs[*].
        assert row["scenario"] == "section8-hom"
        assert row["n_instances"] == 2
        spec_hash = manifest["runs"][0]["scenario"]["spec_hash"]
        report = (tmp_path / "runs" / row["run_id"] / "report.md").read_text()
        assert f"- scenario: `section8-hom` (spec `{spec_hash[:12]}`)" in report
        assert "- n_instances: 2" in report

    def test_experiment_reads_its_settings_from_the_command_line(self, monkeypatch):
        """--instances and --grid default to 20 and reduced, so the run
        identity hashes the values the run used; no environment
        variable moves them."""
        from repro.experiments.figures import run_experiment

        monkeypatch.setenv("REPRO_INSTANCES", "3")
        monkeypatch.setenv("REPRO_GRID", "full")
        args = build_parser().parse_args(["experiment"])
        assert (args.instances, args.grid) == (20, "reduced")
        exp = run_experiment("hom-linked", n_instances=2, exact_method="pareto-dp")
        assert exp.grid == "reduced" and len(exp.xs) == 11

    def test_experiment_figure_ids_dedup(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        code = main(
            ["experiment", "fig10", "fig11", "hom-linked", "--instances", "2",
             "--quiet", "--manifest", str(manifest_path)]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiments"] == ["hom-linked"]
        assert [run["experiment"] for run in manifest["runs"]] == ["hom-linked"]

    def test_experiment_unknown(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment 'fig99'"):
            main(["experiment", "fig99", "--manifest", str(tmp_path / "m.json")])
        assert not (tmp_path / "m.json").exists()

    def test_figures_command_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "fig6"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'figures'" in capsys.readouterr().err

    def test_demo_homogeneous(self, capsys):
        assert main(["demo", "--tasks", "5", "--processors", "4"]) == 0
        out = capsys.readouterr().out
        assert "derived bounds" in out

    def test_demo_heterogeneous(self, capsys):
        assert main(
            ["demo", "--tasks", "5", "--processors", "4", "--heterogeneous"]
        ) == 0
        assert "heuristic" in capsys.readouterr().out


class TestScenarioCLI:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "section8-hom" in out and "scaling-stress" in out

    def test_scenario_list_into_closed_pipe(self):
        """A reader that closes stdout after one line (``| head -1``)
        ends the command with no BrokenPipeError traceback."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "scenario", "list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"name")
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1)
        assert stderr == b""

    def test_scenario_show_roundtrips(self, capsys):
        assert main(["scenario", "show", "section8-hom"]) == 0
        decoded = loads(capsys.readouterr().out)
        from repro.scenarios import get_scenario

        assert decoded == get_scenario("section8-hom").spec

    def test_scenario_run_registered(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(["scenario", "run", "section8-hom", "--n-instances", "2",
                     "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2 instances" in out and "heur-l" in out and "pareto-dp" in out
        # The manifest is self-describing: spec hash + describe record
        # + the planner's selection with skip reasons.
        payload = json.loads(manifest.read_text())
        from repro.scenarios import get_scenario, scenario_hash

        spec = get_scenario("section8-hom").spec.with_(n_instances=2)
        assert payload["scenario"]["spec_hash"] == scenario_hash(spec)
        assert payload["scenario"]["describe"]["homogeneous"] is True
        assert payload["plan"]["selected"] == ["pareto-dp", "heur-l", "heur-p"]
        assert any("redundant exact" in s["reason"] for s in payload["plan"]["skipped"])
        assert payload["grid"]["mode"] == "point"
        assert set(payload["series"]) == {"pareto-dp", "heur-l", "heur-p"}

    def test_scenario_run_grid_auto(self, tmp_path, capsys):
        """Acceptance: --grid auto emits a multi-point (P, L) sweep with
        per-method curves and a manifest recording the derived grid."""
        manifest = tmp_path / "m.json"
        assert main(["scenario", "run", "section8-hom", "--n-instances", "3",
                     "--grid", "auto", "--grid-points", "4",
                     "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "derived period grid: 4 points" in out
        assert "solutions vs period bound" in out
        payload = json.loads(manifest.read_text())
        assert payload["grid"]["mode"] == "auto"
        assert len(payload["grid"]["periods"]) == 4
        assert len(payload["points"]) == 4
        for series in payload["series"].values():
            assert len(series["counts"]) == 4
            # Paper-style shape: counts never decrease along the grid.
            assert series["counts"] == sorted(series["counts"])
        assert payload["scenario"]["spec_hash"]
        assert payload["plan"]["skipped"]

    def test_scenario_run_explicit_methods_gated(self, tmp_path, capsys):
        """An explicitly requested out-of-scope method is skipped with a
        reason instead of crashing the run."""
        manifest = tmp_path / "m.json"
        assert main(["scenario", "run", "high-heterogeneity", "--n-instances", "2",
                     "--methods", "pareto-dp", "heur-l",
                     "--manifest", str(manifest)]) == 0
        err = capsys.readouterr().err
        assert "skipping pareto-dp" in err
        payload = json.loads(manifest.read_text())
        assert payload["plan"]["selected"] == ["heur-l"]

    def test_scenario_run_no_applicable_methods(self, tmp_path):
        with pytest.raises(SystemExit, match="no applicable methods"):
            main(["scenario", "run", "high-heterogeneity", "--n-instances", "2",
                  "--methods", "pareto-dp",
                  "--manifest", str(tmp_path / "m.json")])

    def test_scenario_run_spec_file_roundtrip(self, tmp_path, capsys):
        """A spec written through io.py runs straight from the file."""
        from repro.scenarios import get_scenario

        spec = get_scenario("hot-spare").spec.with_(
            name="tiny-spare", n_instances=2, n_tasks=6, p=4
        )
        path = tmp_path / "spec.json"
        path.write_text(dumps(spec, indent=2))
        assert loads(path.read_text()) == spec  # io round-trip
        assert main(["scenario", "run", str(path), "--seed", "2",
                     "--manifest", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "tiny-spare" in out and "2 instances" in out

    def test_scenario_run_unknown(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "run", "no-such-workload"])

    @pytest.mark.parametrize("command", [
        ["scenario", "run", "section8-hom", "--n-instances", "2"],
        ["experiment", "hom-period", "--instances", "2"],
    ], ids=["scenario-run", "experiment"])
    @pytest.mark.parametrize("jobs", ["0", "abc"])
    def test_bad_jobs_fails_before_generation(self, tmp_path, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs, "--manifest", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"jobs must be an integer >= 1, got {jobs!r}" in err
        assert out == "" and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["scenario", "run", "section8-hom", "--n-instances", "2", "--seed", "-1"],
         "seed must be an integer >= 0, got '-1'"),
        (["experiment", "hom-period", "--instances", "2", "--seed", "-1"],
         "seed must be an integer >= 0, got '-1'"),
        (["experiment", "hom-period", "--instances", "0"],
         "instances must be an integer >= 1, got '0'"),
        (["simulate", "mapping.json", "--seed", "-1"],
         "seed must be an integer >= 0, got '-1'"),
        (["demo", "--seed", "-1"], "seed must be an integer >= 0, got '-1'"),
    ], ids=["scenario-run-seed", "experiment-seed", "experiment-instances",
            "simulate-seed", "demo-seed"])
    def test_bad_integer_fails_at_parse_time(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *(["--manifest", str(tmp_path / "m.json")]
                           if argv[0] in ("scenario", "experiment") else [])])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert message in err
        assert out == "" and not (tmp_path / "m.json").exists()

    def test_scenario_run_unknown_method_fails_before_generation(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="unknown method 'nosuch'"):
            main(["scenario", "run", "section8-hom", "--n-instances", "2",
                  "--methods", "nosuch", "--manifest", str(tmp_path / "m.json")])
        assert "instances" not in capsys.readouterr().out
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", [
        ["scenario", "run", "section8-hom", "--n-instances", "2"],
        ["experiment", "hom-period", "--instances", "2"],
        ["cache", "stats"],
    ], ids=["scenario-run", "experiment", "cache-stats"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_cache_dir_on_a_file_fails_before_any_work(
        self, tmp_path, capsys, command, below
    ):
        """A cache directory that is (or lies under) a regular file is
        rejected up front, not at the first cache write."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("keep")
        cache_dir = blocker / "cache" if below else blocker
        with pytest.raises(SystemExit, match="is not a directory"):
            main([*command, "--cache-dir", str(cache_dir),
                  *(["--manifest", str(tmp_path / "m.json")]
                    if command[0] != "cache" else [])])
        assert capsys.readouterr().out == ""
        assert blocker.read_text() == "keep"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--objective", "latency", "--min-reliability", "1.5"],
         r"min_reliability must lie in \[0, 1\) \(0 = no floor\), got 1\.5"),
        (["--objective", "latency", "--min-reliability", "-0.2"],
         r"min_reliability must lie in \[0, 1\) \(0 = no floor\), got -0\.2"),
        (["--grid-points", "1"], "need at least 2 grid points, got 1"),
    ])
    def test_scenario_run_bad_input_fails_before_any_work(
        self, tmp_path, capsys, flags, message
    ):
        """Out-of-range input exits with the value named, before the run
        generates instances or solves (and caches) a single grid probe."""
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit, match=message):
            main(["scenario", "run", "section8-hom", "--grid", "auto",
                  "--cache-dir", str(cache_dir),
                  "--manifest", str(tmp_path / "m.json"), *flags])
        assert "instances" not in capsys.readouterr().out
        assert not cache_dir.exists() or not any(cache_dir.rglob("*"))
        assert not (tmp_path / "m.json").exists()

    def test_scenario_show_unknown(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "show", "no-such-workload"])


class TestPlanCLI:
    def test_plan_show_table(self, capsys):
        assert main(["plan", "show", "section8-hom"]) == 0
        out = capsys.readouterr().out
        assert "pareto-dp" in out and "skipped:" in out
        assert "redundant exact solver" in out

    def test_plan_show_json(self, capsys):
        assert main(["plan", "show", "scaling-stress", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"] == ["heur-l", "heur-p"]
        assert any(
            "exceeds the exact-method threshold" in s["reason"]
            for s in payload["skipped"]
        )

    @pytest.mark.parametrize("flag", [
        ["--max-exact-tasks", "100"], ["--max-exact-procs", "64"], ["--include-stochastic"],
    ])
    def test_plan_show_has_no_planner_settings(self, flag, capsys):
        """The planner has no settings, so plan show takes none: it
        prints the plan scenario run runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "show", "scaling-stress", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, objective", [
        ("section8-hom", "reliability"), ("section8-hom", "period"),
        ("section8-het", "reliability"),
    ])
    def test_plan_show_is_the_plan_scenario_run_runs(
        self, scenario, objective, tmp_path, capsys
    ):
        assert main(["plan", "show", scenario, "--objective", objective, "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        manifest = tmp_path / "m.json"
        assert main(["scenario", "run", scenario, "--objective", objective,
                     "--n-instances", "2", "--runs-dir", str(tmp_path / "runs"),
                     "--manifest", str(manifest)]) == 0
        ran = json.loads(manifest.read_text())["plan"]
        assert shown["selected"] == ran["selected"]
        assert [s["method"] for s in shown["skipped"]] == [
            s["method"] for s in ran["skipped"]
        ]

    def test_plan_show_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["plan", "show", "no-such-workload"])

    def test_plan_show_unknown_method(self):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["plan", "show", "section8-hom", "--methods", "nope"])
