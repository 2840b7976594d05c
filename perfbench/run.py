"""Seeded benchmark of the weakkam command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--save FILE]
    python3 perfbench/run.py --smoke

Load model: closed loop. This process starts one ``weakkam`` run at a time
(through ``launch.py``, in a fresh interpreter, with ``--threads 2``) and
waits for it to exit; the BLAS pool stays at its default and is recorded.

A run of one workload draws the amplitude ``a`` from the seed and times the
problem at ``a`` and at its mirror ``2 - a``, in pairs, for ``--seconds``
seconds (at least one pair). Both amplitudes are uniform on [0.9, 1.1];
timing the pair keeps the amount of work almost the same for every seed, so
seed-to-seed spread reflects the machine rather than the stencil size.
Timings are the median per amplitude, averaged over the pair. Set-up time is
the median over every launch of the run, including two before each timed
one that stop right after the config is validated.

With ``--trace 1`` the run makes three launches at ``a``: untraced, traced
(see ``tracing.py``), untraced. The per-layer metrics come from the traced
one, and the tracing overhead is its wall time minus the untraced median.

Every run is checked (``workloads.gate``) and its artifacts must be
byte-identical to every other run of the same amplitude, commit and
environment, including runs made earlier in the same checkout. The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any run failed a check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench")
WORKERS = 2             # the program's worker count (--threads)
SETUP_PROBES = 2        # launches before each timed one that stop after set-up
RUN_LIMIT_S = 170.0     # a whole run must end well inside 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name == "simplex.ms_per_pivot":
        return "ms"
    if name.endswith("_s") or name == "mather.u0_target_s_max":
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if "bytes" in name:
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# environment


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas() -> dict:
    import numpy

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def environment(seed: int, a: float) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "workers": WORKERS,
        "seed": seed,
        "amplitude": a,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def check_workers(workers: int, available: int) -> None:
    if workers > available:
        raise SystemExit(
            f"error: worker count {workers} exceeds nproc {available}; refusing to run"
        )


# ---------------------------------------------------------------------------
# one launch of the program


def _file_digest(path) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def launch(workload, config, out_dir, work_dir, timeout, trace=None, setup_only=False) -> dict:
    """Run the program once, in a fresh process; returns its measurements."""
    shutil.rmtree(out_dir, ignore_errors=True)
    mark = os.path.join(work_dir, "mark")
    if os.path.exists(mark):
        os.remove(mark)
    argv = [sys.executable, os.path.join(HERE, "launch.py"), "--mark", mark]
    if trace:
        argv += ["--trace", trace]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--", workload.command, "--config", config, "--threads", str(WORKERS), "--out", out_dir]
    with open(os.path.join(work_dir, "stderr.log"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = None
    if os.path.exists(mark):
        with open(mark) as fh:
            setup = float(fh.read()) - start
    result = {
        "exit": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": setup,
    }
    if not setup_only:
        result["hashes"] = {
            name: _file_digest(os.path.join(out_dir, name)) for name in ("report.json", "barrier.bin")
        }
        if code not in (0, 2):
            with open(os.path.join(work_dir, "stderr.log")) as fh:
                lines = fh.read().strip().splitlines()
            result["stderr"] = lines[-1] if lines else ""
    return result


# ---------------------------------------------------------------------------
# byte identity across runs of one seed, commit and environment


def _identity_key(env: dict) -> str:
    return "|".join(str(x) for x in (env["source_digest"], env["numpy"], env["blas"]["threads"],
                                     env["workers"], env["python"]))


def check_identity(workload, env: dict, runs: list[dict]) -> None:
    """Mark every run whose artifacts differ from the first ones recorded."""
    path = os.path.join(WORK, "identity.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    seen = store.setdefault(_identity_key(env), {})
    for run in runs:
        if "hashes" not in run or run["exit"] not in (0, 2):
            continue
        key = f"{workload.name}|{run['amplitude']!r}"
        reference = seen.setdefault(key, run["hashes"])
        if run["hashes"] != reference:
            run["failures"].append("artifacts differ from an earlier run of the same seed and commit")
    os.makedirs(WORK, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# one benchmark run of one workload


def _balanced_median(runs: list[dict], key: str) -> float:
    """Median per amplitude, averaged over the amplitudes."""
    by_amp: dict[float, list[float]] = {}
    for run in runs:
        by_amp.setdefault(run["amplitude"], []).append(run[key])
    return statistics.fmean(statistics.median(v) for v in by_amp.values())


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    a = workloads.amplitude(seed)
    env = environment(seed, a)
    check_workers(WORKERS, env["nproc"])

    work_dir = os.path.join(WORK, workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    out_dir = os.path.join(work_dir, "out")
    amplitudes = [a, 2.0 - a]
    configs = []
    for i, amp in enumerate(amplitudes):
        path = os.path.join(work_dir, f"config_{i}.json")
        workload.write_config(amp, path, out_dir)
        configs.append(path)

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - began)

    setups: list[dict] = []
    runs: list[dict] = []
    trace_file = os.path.join(work_dir, "trace.json")
    # with tracing, one traced run sits between two untraced ones at the same
    # amplitude, so the overhead estimate does not depend on run order
    plan = [(0, False), (0, True), (0, False)]
    timed_start = time.monotonic()
    while True:
        amp_index, traced = plan[len(runs)] if trace else (len(runs) % 2, False)
        # set-up probes are spread over the run, so they see the machine as
        # the timed runs do
        setups += [
            launch(workload, configs[amp_index], out_dir, work_dir, remaining(), setup_only=True)
            for _ in range(SETUP_PROBES)
        ]
        run = launch(workload, configs[amp_index], out_dir, work_dir, remaining(),
                     trace=trace_file if traced else None)
        run["amplitude"] = amplitudes[amp_index]
        run["traced"] = traced
        outcome = workloads.read_outcome(workload, out_dir, run["exit"])
        run["failures"] = workloads.gate(workload, run["amplitude"], outcome)
        if "stderr" in run:
            run["failures"].append(run["stderr"])
        if outcome.exit_code in (0, 2):
            run["ref_err"] = workloads.ref_err(workload, run["amplitude"], outcome)
            run["plateau"] = outcome.plateau
            prim = (outcome.flags or {}).get("ineq_prim")
            run["ineq_prim_margin"] = prim and prim["measured"]
        if traced:
            run["layers"] = tracing.layer_metrics(
                tracing.load(trace_file), WORKERS, tracing.output_size(out_dir)
            )
        runs.append(run)

        if trace:
            if len(runs) == len(plan):
                break
        elif len(runs) % 2 == 0:
            # only whole pairs, so both amplitudes weigh the same; start another
            # pair only if it fits in the time left
            pair = 2 * statistics.median(r["wall_s"] for r in runs)
            if time.monotonic() - timed_start + pair > seconds or remaining() < 1.5 * pair:
                break

    check_identity(workload, env, runs)
    timed = [r for r in runs if not r["traced"]]
    completed = [r for r in runs if r["exit"] in (0, 2)]
    failed = sum(bool(r["failures"]) for r in runs)
    setup_samples = [r["setup_s"] for r in setups + runs if r["setup_s"] is not None]
    end_to_end = {
        "wall_s": _balanced_median(timed, "wall_s"),
        "setup_s": statistics.median(setup_samples) if setup_samples else float("nan"),
        "cpu_s": _balanced_median(timed, "cpu_s"),
        "peak_rss_mb": _balanced_median(timed, "peak_rss_mb"),
    }
    result = {
        "workload": workload.name,
        "environment": env,
        "amplitudes": amplitudes,
        "attempted": len(runs),
        "failed": failed,
        "fail_frac": failed / len(runs),
        "verify_fail_frac": (
            sum(r["exit"] == 2 for r in completed) / len(completed) if completed else float("nan")
        ),
        "end_to_end": end_to_end,
        "samples": {"wall_s": len(timed), "cpu_s": len(timed), "peak_rss_mb": len(timed),
                    "setup_s": len(setup_samples)},
        "runs": runs,
        "setup_probes": setups,
        "seconds": time.monotonic() - began,
    }
    for key in ("ref_err", "plateau", "ineq_prim_margin"):
        values = [r[key] for r in completed if r.get(key) is not None]
        result[key] = statistics.median(values) if values else None
    if trace:
        traced = next(r for r in runs if r["traced"])
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(r["wall_s"] for r in timed)
        result["per_layer"] = layers
    return result


def contract_line(result: dict, trace: bool) -> dict:
    values = result["per_layer"] if trace else result["end_to_end"]
    units = {} if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, _unit(name))}
            for name, value in values.items()
        },
    }


# ---------------------------------------------------------------------------
# summary over every workload, and the smoke mode


# stressed layer -> (workload that stresses it, metrics summed, least share of
# traced wall there); on the other workloads the same share should stay small
STRESS = {
    "peierls": (f"pendulum-{workloads.PENDULUM_N}-barrier", ("action_barrier.peierls_s",), 0.80),
    "simplex": ("two-well-u0", ("mather.lp_s", "mather.u0_s"), 0.60),
    "bounds": ("torus-2d", ("models.bounds_s",), 0.50),
}


def stress_shares(layers: dict) -> dict:
    wall = layers["trace.wall_s"]
    return {layer: sum(layers[m] for m in names) / wall for layer, (_, names, _) in STRESS.items()}


def _print_table(result: dict) -> None:
    print(f"== {result['workload']}  a={result['amplitudes'][0]:.6f}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["end_to_end"].items():
        print(f"   {name:<14} {value:>12.6g} {END_TO_END[name]:<4} n={result['samples'][name]}")
    for key in ("fail_frac", "verify_fail_frac", "ref_err", "plateau", "ineq_prim_margin"):
        print(f"   {key:<14} {result[key]!r}")
    for run in result["runs"]:
        if run["failures"]:
            print(f"   FAILED a={run['amplitude']:.6f}: {'; '.join(run['failures'])}")


def run_all(seed: int, seconds: float, save: str | None) -> int:
    record = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        untraced = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        _print_table(untraced)
        shares = stress_shares(traced["per_layer"])
        print("   traced share of wall: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        for layer, (name, _, least) in STRESS.items():
            if name == workload.name and shares[layer] < least:
                print(f"   {layer} share {shares[layer]:.3f} is below {least}")
        ok &= untraced["failed"] == 0 and traced["failed"] == 0
        for r in (untraced, traced):
            r.pop("runs"), r.pop("setup_probes")
        record["environment"] = untraced.pop("environment")
        traced.pop("environment")
        record["workloads"][workload.name] = {
            "why": workload.why, "untraced": untraced, "traced": traced, "stress_shares": shares,
        }
    if save:
        with open(save, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def smoke() -> int:
    """Self-test on the shipped free config: generation, gate, tracing, schema."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    free = workloads.free_workload(ROOT)
    problems = []

    for trace in (False, True):
        result = run_workload(free, seed=1, seconds=0.0, trace=trace)
        line = contract_line(result, trace)
        wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        if sorted(line["metrics"]) != sorted(wanted):
            problems.append(f"trace={trace}: metrics {sorted(line['metrics'])} != {sorted(wanted)}")
        if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
            problems.append(f"trace={trace}: bad result line {line}")
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for name, metric in line["metrics"].items():
            if units.get(name) != metric["unit"] or not isinstance(metric["value"], (int, float)):
                problems.append(f"metric {name}: {metric}")
        json.dumps(line, allow_nan=False)

    # the gate must reject a run whose reference value is 10% off
    out_dir = os.path.join(WORK, free.name, "out")
    outcome = workloads.read_outcome(free, out_dir, 0)
    if workloads.gate(free, 1.0, outcome):
        problems.append(f"gate rejected a good run: {workloads.gate(free, 1.0, outcome)}")
    perturbed = workloads.Outcome(**{**outcome.__dict__, "reference": 1.1 * outcome.reference})
    if not workloads.gate(free, 1.0, perturbed):
        problems.append("gate accepted a reference value perturbed by 10%")
    try:
        check_workers(nproc() + 1, nproc())
        problems.append("a worker count above nproc was accepted")
    except SystemExit:
        pass

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv) -> int:
    # a terminated benchmark still stops and reaps the run it started
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="with --workload all: write the record here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "weakkam", "harness.py")):
        print(f"error: no weakkam sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.save)

    trace = bool(args.trace)
    result = run_workload(workloads.BY_NAME[args.workload], args.seed, args.seconds, trace)
    _print_table(result)
    print(json.dumps(result, sort_keys=True))
    line = contract_line(result, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
