#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `edgetune` binary (the shard-host daemons of remote-study)
and the `perfbench` binary in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs `perfbench`. Its last stdout line is
the JSON result. If the build fails, this script exits non-zero
without printing a result. See perfbench/README.md.

The benchmark process, and the shard-host daemons it starts, run pinned
to one CPU: a thread handing work to another then switches on the same
CPU instead of waking a second one, whose wake-up latency on a shared VM
varies with load the run cannot see.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Longer than any run's own deadline; a run still going by then is hung.
RUN_TIMEOUT_S = 170


def build(target_dir: Path) -> bool:
    """Builds both binaries offline; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "edgetune", "--bin", "edgetune"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        except OSError as err:
            print(f"run.py: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main() -> int:
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    if not build(target_dir):
        return 1
    command = [
        str(target_dir / "release" / "perfbench"),
        *sys.argv[1:],
        "--edgetune", str(target_dir / "release" / "edgetune"),
        "--out", str(BENCH_DIR / "out"),
    ]
    cpu = max(os.sched_getaffinity(0))
    # Its own process group, so a hung run is stopped with the shard-host
    # daemons it started.
    bench = subprocess.Popen(command, cwd=ROOT, start_new_session=True,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
