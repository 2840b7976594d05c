import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakkam as wk
import weakkam.harness as harness
from weakkam.errors import ConfigError
from weakkam.harness import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    ExperimentConfig,
    _Run,
    cli_dispatch,
    run_pipeline,
)


def free_config(out, n=32, lambdas=(0.5, 0.25, 0.125), threads=1):
    return ExperimentConfig.from_dict(
        {
            "problem": {
                "family": "mechanical",
                "dim": 1,
                "sizes": [n],
                "potential": {"name": "zero"},
            },
            "schedule": {
                "lambdas": list(lambdas),
                "critical_lambdas": [0.2, 0.1, 0.05],
                "u0_targets": 8,
            },
            "output_dir": str(out),
            "threads": threads,
        }
    )


def write_config(path, cfg: ExperimentConfig):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return str(path)


def file_digests(root):
    out = {}
    for name in sorted(os.listdir(root)):
        if name == "timings.json":
            continue  # wall-clock measurements legitimately differ
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestConfig:
    def test_round_trip_unchanged(self, tmp_path):
        cfg = free_config(tmp_path)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_increasing_lambdas_rejected_before_compute(self, tmp_path):
        with pytest.raises(ConfigError):
            free_config(tmp_path, lambdas=(0.1, 0.2))

    def test_bad_tolerance_rejected(self, tmp_path):
        # the certified bound is a constant of the library: a config cannot set it
        raw = free_config(tmp_path).to_dict()
        raw["schedule"]["tol_solve"] = 1e-8
        with pytest.raises(ConfigError, match=r"unknown config keys \['tol_solve'\]"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_key_rejected(self, tmp_path):
        raw = free_config(tmp_path).to_dict()
        raw["schedule"]["mystery"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("frequencies", [[2.0], [2], [1.0, -3.0]])
    def test_integer_valued_frequencies_accepted(self, tmp_path, frequencies):
        raw = free_config(tmp_path).to_dict()
        raw["problem"].update(dim=2, sizes=[4, 4])
        raw["problem"]["potential"] = {"name": "cosine", "amplitudes": [1.0],
                                       "frequencies": frequencies}
        assert ExperimentConfig.from_dict(raw).problem.potential["frequencies"] == frequencies

    def test_transport_family_is_unknown(self):
        # transport is the mechanical family with a drift and no potential
        with pytest.raises(ConfigError, match="unknown family 'transport'"):
            ExperimentConfig.from_dict(
                {"problem": {"family": "transport", "dim": 1, "sizes": [8], "drift": [0.3]}}
            )

    def test_table_potential_reads_csv(self, tmp_path):
        table = tmp_path / "pot.csv"
        with open(table, "w") as fh:
            fh.write("node,value\n")
            for i in range(8):
                fh.write(f"{i},{float(np.cos(2 * np.pi * i / 8))!r}\n")
        cfg = ExperimentConfig.from_dict(
            {
                "problem": {
                    "family": "mechanical",
                    "dim": 1,
                    "sizes": [8],
                    "potential": {"name": "table", "path": str(table)},
                },
                "schedule": {"lambdas": [0.4, 0.2], "critical_lambdas": [0.2, 0.1, 0.05]},
                "output_dir": str(tmp_path / "out"),
            }
        )
        report = run_pipeline(cfg)
        assert abs(report.c_cross - 1.0) <= 0.05


class TestPipeline:
    def test_free_particle_report(self, tmp_path):
        report = run_pipeline(free_config(tmp_path / "out"))
        assert report.passed
        assert abs(report.c_est) <= 1e-9
        assert abs(report.c_cross) <= 1e-15
        assert report.plateau == 0.0
        u0 = np.loadtxt(tmp_path / "out" / "u0.csv", delimiter=",", skiprows=1, usecols=1)
        np.testing.assert_array_equal(u0, 0.0)
        for name in (
            "report.json",
            "convergence.csv",
            "critical.csv",
            "barrier.bin",
            "barrier.json",
            "u0.csv",
            "mather_measure.csv",
            "aubry.csv",
            "timings.json",
        ):
            assert (tmp_path / "out" / name).exists(), name

    def test_convergence_csv_columns(self, tmp_path):
        run_pipeline(free_config(tmp_path / "out"))
        header = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[0]
        assert header == "lambda,sup_error,min_neg_lambda_u,max_neg_lambda_u,lipschitz_quotient"

    def test_report_schema_golden(self, tmp_path):
        report = run_pipeline(free_config(tmp_path / "out"))
        with open(tmp_path / "out" / "report.json") as fh:
            payload = json.load(fh)
        assert payload["version"] == 1
        golden = os.path.join(os.path.dirname(__file__), "data", "report_schema.json")
        with open(golden) as fh:
            expected_keys = json.load(fh)
        assert sorted(payload.keys()) == expected_keys["top_level"]
        assert sorted(payload["bounds"].keys()) == expected_keys["bounds"]
        assert sorted(payload["counters"].keys()) == expected_keys["counters"]
        assert all(type(v) is int and v >= 0 for v in payload["counters"].values())
        flag_names = [f["name"] for f in payload["flags"]]
        assert flag_names == expected_keys["flags"]
        assert report.passed is payload["passed"]

    def test_bounds_report_the_values_in_use(self, tmp_path, capsys):
        config = free_config(tmp_path / "out")
        path = write_config(tmp_path / "cfg.json", config)
        run_pipeline(config)
        bounds = json.loads((tmp_path / "out" / "report.json").read_text())["bounds"]
        assert bounds["alpha"] == 0.5 and "v_search" not in bounds
        # the stencil is built from the derived alpha: 7 offsets at 0.5
        assert bounds["stencil_offsets"] == 7
        assert cli_dispatch(["bounds", "--config", path]) == EXIT_OK
        assert " alpha=0.5 c=0\n" in capsys.readouterr().out

    def test_determinism_across_worker_counts(self, tmp_path):
        digests = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            run_pipeline(free_config(out, threads=threads))
            digests.append(file_digests(out))
        assert digests[0] == digests[1] == digests[2]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(free_config(a))
        run_pipeline(free_config(b))
        assert file_digests(a) == file_digests(b)

    def test_stage_label_on_failure(self, tmp_path, monkeypatch):
        raw = free_config(tmp_path / "out").to_dict()
        raw["problem"]["potential"] = {"name": "cosine", "amplitudes": [1.0], "frequencies": [1.0]}
        monkeypatch.setattr("weakkam.action_barrier._MAX_ROUNDS", 1)
        with pytest.raises(wk.WeakKamError, match="stage critical"):
            run_pipeline(ExperimentConfig.from_dict(raw))


def _load_tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# calls a subcommand makes, on free32 with three lambdas, to each harness name
# the benchmark's tracer wraps
_SETUP = {"stability_bounds": 1, "make_stencil": 1}
_GRAPH = {**_SETUP, "build_kernel": 1, "min_mean_cycle": 1}
_FULL = {
    **_GRAPH, "critical_value_estimate": 1, "peierls_barrier": 1, "aubry_report": 1,
    "solve_mather_lp": 1, "compute_u0": 1, "solve_discounted": 3,
    "verify_limit": 1,
}
STAGE_CALLS = {
    "bounds": {"stability_bounds": 1},
    "critical": {**_SETUP, "build_kernel": 1, "critical_value_estimate": 1},
    "peierls": {**_GRAPH, "peierls_barrier": 1},
    "discounted": {**_GRAPH, "solve_discounted": 3},
    "mather": {**_GRAPH, "solve_mather_lp": 1},
    "verify": {**_GRAPH, "solve_mather_lp": 1},
    "converge": _FULL,
}


class TestCli:
    def test_critical_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        assert cli_dispatch(["critical", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "c_est=" in out

    def test_converge_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        assert cli_dispatch(["converge", "--config", path]) == EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        proc = subprocess.run(
            [sys.executable, "-m", "weakkam", "critical", "--config", path, "--nope"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_u0_is_not_a_subcommand(self, tmp_path, capsys):
        # converge runs every stage u0 did and writes the same files
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exit_:
            cli_dispatch(["u0", "--config", path])
        assert exit_.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: weakkam ") and "invalid choice: 'u0'" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakkam", "frobnicate", "--config", "x"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_missing_config_is_runtime_error(self, tmp_path):
        assert cli_dispatch(["critical", "--config", str(tmp_path / "nope.json")]) == 1

    def test_discounted_writes_solution_and_trajectory(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.json", free_config(tmp_path / "out", lambdas=(0.25,))
        )
        assert cli_dispatch(["discounted", "--config", path, "--lambda", "0.25"]) == EXIT_OK
        assert (tmp_path / "out" / "discounted_0.25.bin").exists()
        assert (tmp_path / "out" / "discounted_0.25.json").exists()
        lines = (tmp_path / "out" / "trajectory_0.25.csv").read_text().splitlines()
        assert lines[0] == "step,node,offset,speed"
        step, node, offset, speed = lines[1].split(",")
        assert step == "0" and float(speed) == 0.0  # free particle stays put

    def test_two_well_trajectories_start_at_the_lowest_top_node(self, tmp_path):
        # u_lambda of two_well ties its maximum at nodes 50 and 150 up to the
        # last bits, so the start must not follow which of the two rounds up
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "two_well.json")
        assert cli_dispatch(["discounted", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        lambdas = harness.load_config(path).schedule.lambdas
        for lam in lambdas:
            lines = (tmp_path / f"trajectory_{lam:g}.csv").read_text().splitlines()
            assert lines[1].split(",")[:2] == ["0", "50"], lam

    def test_verify_flags_corrupted_u0(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        good = tmp_path / "good.bin"
        bad = tmp_path / "bad.bin"
        np.zeros(32).tofile(good)
        (np.arange(32.0) ** 2).tofile(bad)
        assert cli_dispatch(["verify", "--config", path, "--u0", str(good)]) == EXIT_OK
        assert cli_dispatch(["verify", "--config", path, "--u0", str(bad)]) == EXIT_VERIFICATION

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_verify_refuses_a_non_finite_u0(self, value, tmp_path, capsys):
        # max(-inf, nan) is -inf, so a NaN must be refused before the maximum is taken
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        u0 = np.zeros(32)
        u0[5] = value
        u0.tofile(tmp_path / "u0.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["verify", "--config", path, "--u0", str(tmp_path / "u0.bin")]
            assert cli_dispatch(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: u must be finite at every node; u[5] = {value}\n"

    def test_verify_checks_every_mather_class(self, tmp_path, capsys):
        # two_well has classes [0] and [100] and its LP measure sits on node 0:
        # the barrier row h(0, .) integrates to h(0, 0) = 0 against it, but to
        # h(0, 100) > 0 against the uniform measure on the class-{100} cycle
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "two_well.json")
        run = _Run(harness.load_config(path), tmp_path / "run")
        assert run.aubry.classes == [[0], [100]]
        assert run.mather.projected[0] == 1.0
        row = tmp_path / "row.bin"
        run.barrier.row(0).tofile(row)
        argv = ["verify", "--config", path, "--u0", str(row)]
        assert cli_dispatch(argv) == EXIT_VERIFICATION
        line = capsys.readouterr().out
        assert f"measure_integral={run.barrier.values[0, 100]:.17g}" in line

    @staticmethod
    def _two_well32(out):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "two_well.json")
        config = harness.load_config(path)
        return replace(config, problem=replace(config.problem, sizes=(32,)), output_dir=str(out))

    def test_converge_closes_both_lps_without_linalg(self, tmp_path, monkeypatch):
        # the weak-duality certificates need no basis inverse and no linear solve
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called on the zero-pivot path")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        report = run_pipeline(self._two_well32(tmp_path / "out"))
        assert report.passed
        counters = report.counters
        assert counters["lp_fallbacks"] == counters["lp_fallback_howard_runs"] == 0

    def test_fallbacks_are_counted(self, tmp_path, monkeypatch):
        # refusing every start pair sends the Mather LP and each of the 16 u0
        # targets to the graph search, whose end pairs are still certified
        calls = itertools.count()
        real = wk.mather._certifies
        monkeypatch.setattr(wk.mather, "_certifies",
                            lambda *args: next(calls) % 2 == 1 and real(*args))
        report = run_pipeline(self._two_well32(tmp_path / "out"))
        assert report.passed
        assert report.counters["lp_fallbacks"] == 1 + 16
        # one Howard run each: at multiplier 0 every target's least-cost cycle
        # of least mean Lbar already meets the budget
        assert report.counters["lp_fallback_howard_runs"] == 17

    def test_refused_end_pair_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(wk.mather, "_certifies", lambda *args: False)
        # no certificate holds, so the graph search's end pair is refused too
        path = write_config(tmp_path / "cfg.json", self._two_well32(tmp_path / "out"))
        assert cli_dispatch(["converge", "--config", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "weak-duality certificate" in err

    def test_kernel0_keeps_no_costs(self, tmp_path):
        # the critical table forms its own in-edge costs from kernel0 and the
        # critical kernel is kernel0 at another shift, so kernel0 never caches
        # a cost array or derives an index table
        run = _Run(self._two_well32(tmp_path / "out"))
        run.critical, run.critical_graph
        assert not {"costs", "head_index", "pred_index"} & run.kernel0.__dict__.keys()
        kernel = run.critical_graph[0]
        assert kernel.edge_lagrangian is run.kernel0.edge_lagrangian
        assert run.report.passed
        assert not {"costs", "head_index", "pred_index"} & run.kernel0.__dict__.keys()

    @pytest.mark.parametrize("option, want", [(32, list(range(32))), ((17, 3, 5), [3, 5, 17])],
                             ids=["every_node", "listed"])
    def test_u0_lp_runs_at_the_configured_targets(self, option, want, tmp_path, monkeypatch):
        solved, original = [], harness.compute_u0

        def recorded(barrier, kernel, c, budget_slack, targets):
            solved.append(original(barrier, kernel, c, budget_slack, targets))
            return solved[-1]

        config = self._two_well32(tmp_path / "out")
        config = replace(config, schedule=replace(config.schedule, u0_targets=option))
        monkeypatch.setattr(harness, "compute_u0", recorded)
        report = run_pipeline(config)
        assert report.passed
        (u0_lp,) = solved
        assert u0_lp.targets.tolist() == want
        u0 = np.loadtxt(tmp_path / "out" / "u0.csv", delimiter=",", skiprows=1, usecols=1)
        assert report.u0_cross_delta == float(np.abs(u0[want] - u0_lp.values).max())

    def test_grid_and_out_overrides(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "ignored", n=32))
        out = tmp_path / "redirected"
        assert (
            cli_dispatch(
                ["converge", "--config", path, "--grid", "16", "--out", str(out)]
            )
            == EXIT_OK
        )
        with open(out / "report.json") as fh:
            payload = json.load(fh)
        assert payload["config"]["problem"]["sizes"] == [16]

    @pytest.mark.parametrize("config", ["free32", "pendulum32"])
    def test_subcommands_are_slices_of_converge(self, config, tmp_path):
        if config == "free32":
            path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "ignored"))
        else:
            path = os.path.join(os.path.dirname(__file__), "..", "configs", "pendulum.json")
        run = lambda cmd: cli_dispatch(
            [cmd, "--config", path, "--grid", "32", "--out", str(tmp_path / cmd)]
        )
        assert run("converge") == EXIT_OK
        slices = {
            "critical": ["critical.csv"],
            "peierls": ["barrier.bin", "barrier.json"],
            "mather": ["mather_measure.csv"],
        }
        for cmd, names in slices.items():
            assert run(cmd) == EXIT_OK
            for name in names:
                got = (tmp_path / cmd / name).read_bytes()
                assert got == (tmp_path / "converge" / name).read_bytes(), (cmd, name)

    @pytest.mark.parametrize("cmd, expected", [("peierls", 1), ("converge", 1)])
    def test_tight_subgraph_runs_once_per_kernel(self, cmd, expected, tmp_path, monkeypatch):
        # once, shared by the critical kernel, the barrier and the Mather LP
        original = wk.action_barrier.tight_subgraph
        calls = []

        def counted(kernel):
            calls.append(kernel.num_nodes)
            return original(kernel)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("weakkam"):
                if getattr(module, "tight_subgraph", None) is original:
                    monkeypatch.setattr(module, "tight_subgraph", counted)
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "pendulum.json")
        code = cli_dispatch([cmd, "--config", path, "--grid", "32", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(calls) == expected

    @pytest.mark.parametrize(
        "sizes, amplitude, frequency, schedule",
        [
            # the two-well benchmark problem at a = 2 - amplitude(seed 1)
            ([120], 1.0731271511775198, 2.0,
             {"lambdas": [0.25, 0.125, 0.0625, 0.03125],
              "critical_lambdas": [0.2, 0.1, 0.05, 0.025], "u0_targets": 8}),
            ([8, 8], 0.93, 1.0, {"u0_targets": 8}),
        ],
        ids=["two_well120", "torus8x8"],
    )
    def test_critical_self_loop_settles_the_graph_passes(
        self, sizes, amplitude, frequency, schedule, tmp_path
    ):
        # at these amplitudes Karp's table put the mean a few ulps above the
        # critical self-loop's Lbar, so that loop had a negative reduced cost:
        # both Bellman-Ford passes ran 2n rounds and the Mather LP pivoted
        dim = len(sizes)
        config = ExperimentConfig.from_dict({
            "problem": {
                "family": "mechanical", "dim": dim, "sizes": sizes,
                "potential": {"name": "cosine", "amplitudes": [amplitude] * dim,
                              "frequencies": [frequency] * dim},
            },
            "schedule": schedule,
        })
        report = run_pipeline(config, tmp_path)
        n = int(np.prod(sizes))
        assert report.counters["barrier_relax_rounds"] < 2 * n
        assert report.counters["lp_fallbacks"] == 0
        run = _Run(config)
        kernel = wk.build_kernel(run.grid, run.spec, run.stencil, c=0.0)
        loop = run.stencil.offsets.index((0,) * dim)
        assert report.c_cross == -kernel.edge_lagrangian[loop].min()

    @pytest.mark.parametrize("cmd", sorted(STAGE_CALLS))
    def test_subcommand_calls_each_traced_name_once_per_stage(self, cmd, tmp_path, monkeypatch):
        calls = {}
        for module, name, _ in _load_tracing()._WRAPPED:
            if module == "harness":
                def counted(*args, _name=name, _fn=getattr(harness, name), **kwargs):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(harness, name, counted)
        path = write_config(tmp_path / "cfg.json", free_config(tmp_path / "out"))
        u0 = tmp_path / "u0.bin"
        np.zeros(32).tofile(u0)
        extra = ["--u0", str(u0)] if cmd == "verify" else []
        assert cli_dispatch([cmd, "--config", path, *extra]) == EXIT_OK
        assert calls == STAGE_CALLS[cmd]

    def test_converge_does_not_import_numpy_ma(self, tmp_path):
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "free.json")
        argv = ["converge", "--config", config, "--out", str(tmp_path)]
        script = (
            "import sys\n"
            "from weakkam.harness import cli_dispatch\n"
            f"assert cli_dispatch({argv!r}) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "given, expected",
        [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"OMP_NUM_THREADS": "2"}, None)],
    )
    def test_one_blas_thread_unless_the_caller_sets_one(self, tmp_path, given, expected):
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "free.json")
        argv = ["converge", "--config", config, "--out", str(tmp_path)]
        script = (
            "import json, os, sys\n"
            "from weakkam.harness import cli_dispatch\n"
            f"assert cli_dispatch({argv!r}) == 0\n"
            "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_blas_env(**given)
        )
        assert proc.returncode == 0, proc.stderr
        blas, tasks = json.loads(proc.stdout.splitlines()[-1])
        assert blas == expected
        if not given and sys.platform == "linux":
            assert tasks == 1  # no OpenBLAS worker beside the main thread

    def test_timings_record_the_import_time(self, tmp_path):
        run_pipeline(free_config(tmp_path / "out"))
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert set(timings) == {"import_s", "stages", "rss_growth_mb"}
        assert timings["import_s"] > 0
        # each stage's growth of the peak RSS, next to its seconds
        assert set(timings["rss_growth_mb"]) == set(timings["stages"])
        assert min(timings["rss_growth_mb"].values()) >= 0.0

    def test_out_of_memory_is_one_line_error(self, tmp_path):
        raw = free_config(tmp_path / "out").to_dict()
        raw["problem"]["sizes"] = [400_000_000]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cap = 3 << 30  # the grid's coordinates alone need 3.2 GB

        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = subprocess.run(
            [sys.executable, "-m", "weakkam", "bounds", "--config", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
            # the default launch starts no BLAS worker, so no per-thread buffers count
            # against the cap on any core count
            env=_blas_env(),
        )
        assert proc.returncode == EXIT_ERROR, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: out of memory")

    @staticmethod
    def _cli_run(out, blas_threads, cmd, config, *extra):
        """Run ``weakkam cmd`` on a shipped config into out; blas_threads None
        is the default launch, with no BLAS thread variable set."""
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", config)
        given = {} if blas_threads is None else {"OPENBLAS_NUM_THREADS": str(blas_threads)}
        proc = subprocess.run(
            [sys.executable, "-m", "weakkam", cmd, "--config", config, *extra, "--out", str(out)],
            capture_output=True,
            text=True,
            env=_blas_env(**given),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return out

    def _two_well_report(self, out, grid, blas_threads):
        out = self._cli_run(out, blas_threads, "converge", "two_well.json", "--grid", str(grid))
        return (out / "report.json").read_bytes()

    def test_report_independent_of_blas_threads(self, tmp_path):
        one = self._two_well_report(tmp_path / "one", 48, 1)
        two = self._two_well_report(tmp_path / "two", 48, 2)
        assert one == two

    @pytest.mark.parametrize(
        "cmd, config, artifacts",
        [
            ("converge", "torus_2d.json", ["report.json"]),
            ("peierls", "pendulum.json", ["barrier.bin", "barrier.json"]),
        ],
    )
    def test_default_launch_matches_two_blas_threads(self, tmp_path, cmd, config, artifacts):
        default = self._cli_run(tmp_path / "default", None, cmd, config)
        two = self._cli_run(tmp_path / "two", 2, cmd, config)
        for name in artifacts:
            assert (default / name).read_bytes() == (two / name).read_bytes(), name

    @pytest.mark.parametrize("cmd, config", [("converge", "two_well.json"),
                                             ("peierls", "pendulum.json")])
    def test_a_launch_writes_what_cli_dispatch_writes(self, tmp_path, cmd, config, capsys):
        # the package freezes its import heap out of every collection, the one
        # at exit included: a launch that exits after the run loses no byte
        launched = self._cli_run(tmp_path / "launched", None, cmd, config)
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", config)
        assert cli_dispatch([cmd, "--config", path, "--out", str(tmp_path / "here")]) == EXIT_OK
        names = sorted(p.name for p in launched.iterdir())
        assert names and names == sorted(p.name for p in (tmp_path / "here").iterdir())
        for name in set(names) - {"timings.json"}:
            assert (launched / name).read_bytes() == (tmp_path / "here" / name).read_bytes(), name

    def test_pivot_counters_independent_of_blas_threads(self, tmp_path):
        # at n >= 100 LAPACK factored the basis on several threads, which moved
        # the pivot path and then the last bits of the LP values; the tree
        # certificates close both programs with no BLAS call
        for grid in (120, 200):
            one, two = (self._two_well_report(tmp_path / f"n{grid}b{t}", grid, t) for t in (1, 2))
            assert one == two
            counters = json.loads(one)["counters"]
            assert counters["lp_fallbacks"] == counters["lp_fallback_howard_runs"] == 0


def _blas_env(**given):
    """This process's environment without the BLAS thread variables, plus given."""
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    return {**{k: v for k, v in os.environ.items() if k not in blas}, **given}


def _dump(edit=lambda raw: None):
    def text(raw):
        edit(raw)
        return json.dumps(raw)

    return text


def _potential(block):
    return _dump(lambda raw: raw["problem"].update(potential=block))


def _set(block, **values):
    return _dump(lambda raw: raw[block].update(values))


def _discretization(**values):
    return _set("discretization", **values)


# case -> (extra CLI arguments, {tmp} standing for the test's directory,
#          free32 config document -> file text, environment, text the error
#          line must name)
BAD_INPUTS = {
    "lambda_zero": (["--lambda", "0"], _dump(), {}, "lambdas must be positive"),
    "lambda_inf": (["--lambda", "inf"], _dump(), {}, "lambdas must be positive and finite"),
    "critical_lambda_inf": (
        [], _set("schedule", critical_lambdas=[math.inf, 0.1, 0.05]), {}, "critical_lambdas"
    ),
    # the critical estimate extrapolates three points: too few, or not decreasing
    "critical_lambdas_two": (
        [], _set("schedule", critical_lambdas=[0.2, 0.1]), {}, "schedule.critical_lambdas"
    ),
    "critical_lambdas_increasing": (
        [], _set("schedule", critical_lambdas=[0.1, 0.2, 0.05]), {}, "schedule.critical_lambdas"
    ),
    # both would be written as discounted_0.5.*
    "lambda_labels_collide": (
        [], _set("schedule", lambdas=[0.5, 0.4999999, 0.25]), {}, "0.5 and 0.4999999"
    ),
    "threads_zero": (["--threads", "0"], _dump(), {}, "threads must be >= 1"),
    "grid_zero": (["--grid", "0"], _dump(), {}, "sizes"),
    "malformed_json": ([], lambda raw: json.dumps(raw)[:-1], {}, "JSON"),
    "threads_string": ([], _dump(lambda raw: raw.update(threads="two")), {}, "'two'"),
    "lambdas_string": (
        [], _dump(lambda raw: raw["schedule"].update(lambdas="abc")), {}, "'abc'"
    ),
    "burn_in_key": ([], _dump(lambda raw: raw["schedule"].update(burn_in=10)), {}, "burn_in"),
    "u0_targets_out_of_range": (
        [], _dump(lambda raw: raw["schedule"].update(u0_targets=[999])), {}, "u0_targets"
    ),
    # a repeated node would be solved twice and counted twice in lp_fallbacks
    "u0_targets_repeated": (
        [], _dump(lambda raw: raw["schedule"].update(u0_targets=[5, 5, 7])), {}, "node 5"
    ),
    "potential_amplitudes_string": (
        [], _potential({"name": "cosine", "amplitudes": "x"}), {}, "amplitudes"
    ),
    "potential_table_without_path": ([], _potential({"name": "table"}), {}, "path"),
    "potential_table_path_nul": ([], _potential({"name": "table", "path": "a\0b"}), {}, "path"),
    "output_dir_nul": ([], _dump(lambda raw: raw.update(output_dir="a\0b")), {}, "output_dir"),
    "potential_unknown_key": (
        [], _potential({"name": "zero", "amplitude": 3}), {}, "amplitude"
    ),
    # alpha, v_search, tau and the stencil radius follow from the stability
    # bounds: a config that sets one, as earlier versions could, names an unknown key
    "alpha_zero": ([], _discretization(alpha=0), {}, "unknown config keys ['alpha']"),
    "alpha_negative": ([], _discretization(alpha=-1), {}, "unknown config keys ['alpha']"),
    "v_search_zero": ([], _discretization(v_search=0), {}, "unknown config keys ['v_search']"),
    "tau_zero": (
        [], _discretization(tau_rule="explicit", tau=0), {}, "unknown config keys ['tau']"
    ),
    "stencil_k_zero": ([], _discretization(stencil_k=0), {}, "unknown config keys ['stencil_k']"),
    "tau_without_explicit_rule": ([], _discretization(tau=0.05), {}, "unknown config keys ['tau']"),
    "tau_rule_explicit": ([], _discretization(tau_rule="explicit"), {}, "tau_rule"),
    # the cosine potential takes only the list forms, and u0_targets a count or nodes
    "potential_amplitude_key": (
        [], _potential({"name": "cosine", "amplitude": 2.0}), {}, "unknown keys ['amplitude']"
    ),
    "potential_frequency_key": (
        [], _potential({"name": "cosine", "frequency": 2.0}), {}, "unknown keys ['frequency']"
    ),
    "u0_targets_null": ([], _set("schedule", u0_targets=None), {}, "schedule.u0_targets"),
    # a large potential gives an alpha whose tau = O(1/alpha) is so small that
    # exp(-lambda*tau) rounds to 1: the stencil stage refuses it
    "alpha_overflows_speeds": (
        [], _potential({"name": "cosine", "amplitudes": [1e200]}), {},
        "velocity bound alpha = 5e+200",
    ),
    "alpha_without_discount": (
        [], _potential({"name": "cosine", "amplitudes": [1e150]}), {},
        "velocity bound alpha = 5e+150",
    ),
    "tau_without_discount": (
        [], _potential({"name": "cosine", "amplitudes": [1e300]}), {},
        "alpha = 5e+300 gives tau = 8.75e-302",
    ),
    # stability bounds beyond double range: the bounds stage refuses them
    "drift_overflows_bounds": ([], _set("problem", drift=[1e200]), {}, "not finite"),
    "amplitude_overflows_bounds": (
        [], _potential({"name": "cosine", "amplitudes": [1e308]}), {}, "not finite"
    ),
    "drift_nan": ([], _set("problem", drift=[math.nan]), {}, "problem.drift"),
    # JSON integers beyond double range, and a node count beyond int64
    "drift_huge_integer": ([], _set("problem", drift=[10**400]), {}, "problem.drift"),
    "amplitude_huge_integer": (
        [], _potential({"name": "cosine", "amplitudes": [10**400]}), {},
        "problem.potential.amplitudes",
    ),
    "frequency_huge_integer": (
        [], _potential({"name": "cosine", "frequencies": [10**400]}), {},
        "problem.potential.frequencies",
    ),
    "lambda_huge_integer": (
        [], _set("schedule", lambdas=[10**400, 0.5]), {}, "lambdas must be positive and finite"
    ),
    "critical_lambda_huge_integer": (
        [], _set("schedule", critical_lambdas=[10**400, 0.1, 0.05]), {}, "critical_lambdas"
    ),
    "sizes_beyond_int64": ([], _set("problem", sizes=[2**63]), {}, "more nodes than int64 holds"),
    "sizes_product_beyond_int64": (
        [], _set("problem", dim=2, sizes=[2**32, 2**32]), {}, "more nodes than int64 holds"
    ),
    "drift_infinite": ([], _set("problem", drift=[math.inf]), {}, "problem.drift"),
    "drift_wrong_length": ([], _set("problem", drift=[0.5, 0.5]), {}, "drift"),
    # transport is spelt as the mechanical family with a drift
    "family_transport": (
        [], _set("problem", family="transport", drift=[0.5]), {}, "unknown family 'transport'"
    ),
    # cos(2 pi f x) with f = 0.5 jumps across the torus wrap
    "frequency_not_integer": (
        [], _potential({"name": "cosine", "amplitudes": [1.0], "frequencies": [0.5]}), {},
        "problem.potential.frequencies must be integers",
    ),
    # keys of earlier versions: each is now an unknown key
    "critical_shift_key": (
        [], _dump(lambda raw: raw.update(critical_shift="ergodic")), {}, "critical_shift"
    ),
    "table_path_key": ([], _set("problem", table_path="pot.csv"), {}, "table_path"),
    "bounds_c_key": ([], _discretization(bounds_c=1.0), {}, "bounds_c"),
    "eps_c_key": ([], _set("schedule", eps_c=1e-6), {}, "eps_c"),
    "eps_aubry_key": ([], _set("schedule", eps_aubry=1e-7), {}, "eps_aubry"),
    "tol_stabilize_key": ([], _set("schedule", tol_stabilize=1e-6), {}, "tol_stabilize"),
    "tol_constraint_key": ([], _set("schedule", tol_constraint=1e-6), {}, "tol_constraint"),
    "tol_prim_key": ([], _set("schedule", tol_prim=1e-3), {}, "tol_prim"),
    # the round cap and the certified bound are constants of the library
    "max_iter_key": ([], _set("schedule", max_iter=1000), {}, "unknown config keys ['max_iter']"),
    "tol_solve_key": ([], _set("schedule", tol_solve=1e-8), {}, "unknown config keys ['tol_solve']"),
    # deeper than the JSON decoder recurses
    "json_nested_too_deeply": ([], lambda raw: "[" * 200_000, {}, "JSON: nested too deeply"),
    # verify's u0 file: 32 doubles and one stray byte, whose partial value is not dropped
    "u0_partial_value": (["--u0", "{tmp}/u0_257.bin"], _dump(), {}, "u0_257.bin: expected 32 "
                         "f64 values, found 257 bytes"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_line_error(case, tmp_path):
    argv, text, env, named = BAD_INPUTS[case]
    path = tmp_path / "cfg.json"
    path.write_text(text(free_config(tmp_path / "out").to_dict()))
    (tmp_path / "u0_257.bin").write_bytes(np.zeros(32).tobytes() + b"\0")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    # critical is the first subcommand to reach the stencil stage, which checks tau;
    # verify is the one that reads a u0 file
    command = "verify" if "--u0" in argv else "critical"
    proc = subprocess.run(
        [sys.executable, "-m", "weakkam", command, "--config", str(path), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert proc.returncode in (EXIT_ERROR, EXIT_USAGE), proc.stdout
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert named in errors[0]


def _rows(lo, hi):
    return "".join(f"{i},{0.5 * i}\n" for i in range(lo, hi))


# case -> (potential table text on the 32-node free grid, line the error names, reason)
BAD_TABLES = {
    "value_not_numeric": ("node,value\n3,abc\n" + _rows(0, 32), 2, "not a finite number"),
    "value_infinite": ("node,value\n3,inf\n" + _rows(0, 32), 2, "not a finite number"),
    "row_short": ("node,value\n" + _rows(0, 32) + "7\n", 34, "integer node indices"),
    "row_long": ("node,value\n3,1.0,2.0\n", 2, "integer node indices"),
    "index_not_integer": ("node,value\n1.5,2.0\n", 2, "integer node indices"),
    "index_at_size": (_rows(0, 32) + "32,1.0\n", 33, "outside the grid"),
    # -1 wrapped round to node 31
    "index_negative": (_rows(0, 32) + "-1,3.0\n", 33, "outside the grid"),
    "node_twice": ("# potential\n" + _rows(0, 32) + "5,1.0\n", 34, "a second time"),
    # only the first row may be a header
    "header_not_first": (_rows(0, 5) + "node,value\n" + _rows(5, 32), 6, "integer node indices"),
    # the table is written as Latin-1, which spells every other case as ASCII does
    "comment_not_utf8": ("node,value\n# café\n" + _rows(0, 32), 2, "not UTF-8 text (byte 0xe9)"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_bad_potential_table_is_one_line_error(case, tmp_path):
    text, line, reason = BAD_TABLES[case]
    table = tmp_path / "pot.csv"
    table.write_text(text, encoding="latin-1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_potential({"name": "table", "path": str(table)})(
        free_config(tmp_path / "out").to_dict()))
    proc = subprocess.run([sys.executable, "-m", "weakkam", "bounds", "--config", str(cfg)],
                          capture_output=True, text=True)
    errors = [e for e in proc.stderr.splitlines() if e.startswith("error:")]
    assert proc.returncode == EXIT_ERROR, proc.stdout
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert f"potential table {table} line {line}: " in errors[0] and reason in errors[0]


def _fields(doc):
    """Paths of the free config document's blocks and their fields."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, inner) for inner in value]
    return paths


# no path separators or dots, so a fuzzed output_dir stays inside the work dir
_TEXT = st.text(st.characters(blacklist_characters="/\\."), max_size=4)
_NUMBER = st.one_of(st.integers(-3, 40), st.floats())
_VALUE = st.one_of(st.none(), st.booleans(), _NUMBER, _TEXT, st.lists(_NUMBER, max_size=3))
# an argument is absent, text that parses as a number, or text without digits;
# --grid stays at most 12, so a 2-D grid has at most 144 nodes
_NOT_A_NUMBER = st.text(st.characters(blacklist_categories=("Nd",)), max_size=3)


def _argument(numbers):
    return st.one_of(st.none(), numbers.map(str), _NOT_A_NUMBER)


_GRID = _argument(st.integers(-3, 12))
_LAMBDA = _argument(st.floats() | st.floats(1e-3, 1.0) | st.integers(-3, 40))
_THREADS = _argument(st.integers(-3, 40))


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["bounds", "critical", "peierls"]),
    path=st.sampled_from(_fields(free_config("out").to_dict())),
    value=_VALUE,
    grid=_GRID,
    lam=_LAMBDA,
    threads=_THREADS,
)
def test_fuzzed_input_exits_with_a_known_code(command, path, value, grid, lam, threads):
    raw = free_config("out").to_dict()
    block = raw if len(path) == 1 else raw[path[0]]
    block[path[-1]] = value
    argv = [command, "--config", "cfg.json"]
    for flag, text in (("--grid", grid), ("--lambda", lam), ("--threads", threads)):
        if text is not None:
            argv += [flag, text]
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("cfg.json", "w") as fh:
                json.dump(raw, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                try:
                    code = cli_dispatch(argv)
                except SystemExit as exc:  # argparse: usage errors and --help
                    code = exc.code
        finally:
            os.chdir(cwd)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_VERIFICATION, EXIT_USAGE), (argv, raw)
    assert len(errors) <= 1, stderr.getvalue()
