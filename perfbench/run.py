#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Builds the `serve` binary and the `perfbench` package from source (release
profile, into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload
and passes its report through. The last line of stdout is the run's JSON
result. The exit code is the benchmark's: nonzero when a build fails, a
run fails, or an output check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pipeline", "serve_unique", "serve_shared", "serve_update")
RUN_TIMEOUT_S = 170


def build(root, env):
    """Builds both binaries; returns their paths, or None on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "infuserki-router", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
    ]
    for cmd in steps:
        if not (root / "Cargo.toml").is_file():
            print("perfbench: no workspace to build next to the benchmark", file=sys.stderr)
            return None
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target
    return target / "release" / "serve", target / "release" / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Knobs that would change what is measured come only from the benchmark.
    for knob in ("INFUSERKI_THREADS", "INFUSERKI_TRACE", "INFUSERKI_ISA", "RUSTFLAGS"):
        env.pop(knob, None)

    built = build(root, env)
    if built is None:
        return 1
    serve_bin, bench_bin = built

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cmd = [
        str(bench_bin),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", str(serve_bin),
        "--work-dir", str(work),
    ]
    # A session of its own, so a timeout takes down any server it spawned.
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
