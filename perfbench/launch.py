"""Child process of the benchmark: one ``weakkam`` CLI run.

    python3 perfbench/launch.py --mark FILE [--trace FILE] [--setup-only] -- <weakkam args>

It does what ``python -m weakkam <weakkam args>`` does, with the package
imported from the checkout's ``src``, and two additions:

- ``--mark`` writes the monotonic clock to FILE as soon as the config has
  been loaded and validated, so the parent can time set-up from spawn to
  that point. ``--setup-only`` exits there, with code 0.
- ``--trace`` rebinds the layer entry points to span wrappers (see
  ``tracing.py``) and writes the spans to FILE when the run ends.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SetupDone(Exception):
    """Raised after the set-up mark in --setup-only mode."""


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--mark", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("weakkam_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.weakkam_args[1:] if args.weakkam_args[:1] == ["--"] else args.weakkam_args

    sys.path.insert(0, SRC)
    import weakkam.harness as harness

    load_config = harness.load_config

    def marked_load_config(path):
        config = load_config(path)
        with open(args.mark, "w") as fh:
            fh.write(repr(time.monotonic()))
        if args.setup_only:
            raise _SetupDone
        return config

    harness.load_config = marked_load_config

    if args.trace is None:
        try:
            return harness.cli_dispatch(cli_args)
        except _SetupDone:
            return 0

    import tracing  # sits beside this script, so on sys.path already

    recorder = tracing.Recorder(run_id=f"{os.getpid()}@{time.time():.6f}")
    tracing.install(recorder)
    dispatch = recorder.wrap("harness.cli_dispatch", harness.cli_dispatch)
    try:
        return dispatch(cli_args)
    finally:
        recorder.write(args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
