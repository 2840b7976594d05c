"""Scale benchmark: wall time and peak RSS of `weakkam converge` on inputs
large enough that start-up is a small part of the run.

    python3 tools/bench_scale.py [--workload NAME ...] [--pairs K] [--tag TAG]
                                 [--against REV]

Each run is `python -m weakkam converge` in a child made by fork and exec,
one child at a time, in a copy of the working tree's `src` and `configs`
made in a temporary directory when the script starts. Peak RSS is the
child's own `ru_maxrss` from `os.wait4`. A vfork'd child (as `subprocess`
makes it) would carry this process's high-water mark into it. Per run the
record holds the wall and CPU time, the peak RSS, the stages and
`rss_growth_mb` of `timings.json`, the counters and flags of `report.json`,
and the exit code.

Without `--against`, the working tree runs K times per workload. With
`--against REV`, REV's `src` and `configs` are unpacked by `git archive`
beside that copy, and REV and the working tree run in alternating pairs, K
pairs per workload. The record then holds each side's medians and quartiles
and the quartiles of the paired differences (tree minus REV). A gain is
only a gain when the median difference exceeds both sides' quartile
spreads. The record is written to `BENCH_scale_<TAG>.json` at the root of
the repo, and the script exits 1 when a run of the working tree does not
exit 0.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> converge arguments; ordered from the shortest run to the longest
WORKLOADS = {
    "pendulum-2000": ["--config", "configs/pendulum.json", "--grid", "2000"],
    "pendulum-drift": ["--config", "configs/pendulum_drift.json"],
    "cosine-48": ["--config", "configs/torus_2d.json", "--grid", "48"],
    "cosine-64": ["--config", "configs/torus_2d.json", "--grid", "64"],
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def _git(tree, *args) -> str:
    return subprocess.run(["git", "-C", tree, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _read_json(path):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def run_once(tree: str, args: list[str], out_dir: str) -> dict:
    """One `weakkam converge` in tree, fork-and-exec'd; its measurements."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, "-m", "weakkam", "converge", *args, "--out", out_dir]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    err_path = out_dir + ".stderr"
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:  # the child: no Python code of this script runs past exec
        try:
            os.chdir(tree)
            null = os.open(os.devnull, os.O_WRONLY)
            err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(null, 1)
            os.dup2(err, 2)
            os.execve(sys.executable, argv, env)
        finally:
            os._exit(127)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # an interrupted benchmark leaves no child running
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.monotonic() - start
    timings = _read_json(os.path.join(out_dir, "timings.json"))
    report = _read_json(os.path.join(out_dir, "report.json"))
    with open(err_path, errors="replace") as fh:
        stderr_tail = fh.read()[-2000:]
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stages": timings.get("stages", {}),
        "rss_growth_mb": timings.get("rss_growth_mb", {}),
        "counters": report.get("counters", {}),
        "flags": {f["name"]: f["status"] for f in report.get("flags", [])},
        "stderr_tail": stderr_tail,
    }


def _quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _series(runs: list[dict]) -> dict:
    """metric -> list over runs, for the end-to-end metrics and every stage."""
    out = {m: [r[m] for r in runs] for m in METRICS}
    for stage in sorted(set().union(*(r["stages"] for r in runs))):
        out[f"stage.{stage}"] = [r["stages"].get(stage, 0.0) for r in runs]
    return out


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Each side's quartiles per metric, and the paired differences tree - rev."""
    series = {side: _series(side_runs) for side, side_runs in runs.items()}
    summary = {side: {m: _quartiles(v) for m, v in s.items()} for side, s in series.items()}
    if "rev" not in series:
        return {"summary": summary}
    paired = {m: _quartiles([t - r for t, r in zip(v, series["rev"].get(m, []))])
              for m, v in series["tree"].items() if m in series["rev"]}
    return {"summary": summary, "paired_tree_minus_rev": paired}


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_scale.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable); default: all")
    parser.add_argument("--pairs", type=int, default=1, help="runs (or pairs) per workload")
    parser.add_argument("--tag", default=None, help="file tag; default: the tree's short commit")
    parser.add_argument("--against", default=None, metavar="REV",
                        help="also run REV, unpacked by git archive, in alternating pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = args.workload or list(WORKLOADS)
    commit = _git(ROOT, "rev-parse", "HEAD")
    tag = args.tag or commit[:7]
    scratch = tempfile.mkdtemp(prefix="bench_scale-")
    try:
        # the tree is copied, so edits made while the benchmark runs do not reach it
        trees = {"tree": os.path.join(scratch, "tree")}
        for part in ("src", "configs"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(trees["tree"], part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        sides = {"tree": {"commit": commit, "dirty": bool(_git(ROOT, "status", "--porcelain"))}}
        if args.against:
            rev = _git(ROOT, "rev-parse", "--verify", args.against + "^{commit}")
            archive, trees["rev"] = os.path.join(scratch, "rev.tar"), os.path.join(scratch, "base")
            os.mkdir(trees["rev"])
            subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, rev, "src", "configs"],
                           check=True)
            subprocess.run(["tar", "-xf", archive, "-C", trees["rev"]], check=True)
            sides["rev"] = {"commit": rev, "dirty": False}
        record = {
            "tag": tag,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "host": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                     "machine": platform.machine(), "python": platform.python_version()},
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "sides": sides,
            "pairs": args.pairs,
            "workloads": {},
        }
        for name in names:
            runs = {side: [] for side in trees}
            for i in range(args.pairs):
                # alternate which side runs first, so neither always runs warm
                order = list(trees) if i % 2 == 0 else list(reversed(trees))
                for side in order:
                    run = run_once(trees[side], WORKLOADS[name], os.path.join(scratch, "out"))
                    runs[side].append(run)
                    print(f"{name} {side} #{i}: exit {run['exit']}, {run['wall_s']:.2f} s, "
                          f"{run['peak_rss_mb']:.1f} MB", flush=True)
            record["workloads"][name] = {"args": WORKLOADS[name], "runs": runs, **summarize(runs)}
        path = os.path.join(ROOT, f"BENCH_scale_{tag}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(path)
        failed = [n for n, w in record["workloads"].items()
                  for r in w["runs"]["tree"] if r["exit"] != 0]
        return 1 if failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
