#!/usr/bin/env python3
"""Build and run the DistWS benchmark for one workload.

    python3 perfbench/run.py --workload sim-scale --seed 1 --seconds 10 --trace 0

Run from the root of the repository. Builds `perfbench/` (a Cargo
package of its own) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload in a fresh process inside a
scratch directory under the repository root, which it removes
afterwards. The last line of standard output is the result JSON; see
perfbench/METRICS.md for every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["sim-scale", "sim-paper", "sim-chaos", "cluster-unix", "check-protocol"]

# Never used while the benchmark was tuned: confirm a claimed gain on it.
HELD_OUT_SEED = 20261017

# The run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sources():
    """Every source file the benchmark build reads, in a fixed order."""
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        base = os.path.join(ROOT, top)
        if os.path.isfile(base):
            yield base
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                yield os.path.join(d, f)


def build_hash():
    h = hashlib.sha256()
    for p in sources():
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def build():
    """Build unless the binary is newer than every source. The check
    saves a rebuild per run: without a .git directory, a build script
    of the workspace reruns on every cargo invocation."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    newest = max(os.path.getmtime(p) for p in sources())
    if os.path.exists(exe) and os.path.getmtime(exe) >= newest:
        return exe
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    os.utime(exe)
    return exe


def run(exe, args):
    """Run the benchmark binary in its own process group and scratch
    directory; return (exit code, stdout)."""
    scratch = os.path.join(ROOT, ".perfbench-run", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        out, code = "", 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    return code, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    code, out = run(exe, args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"perfbench: {args.workload} exited with code {code}", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    print(f"build {build_hash()}")
    print(f"workload {args.workload} seed {args.seed} (held-out seed {HELD_OUT_SEED})")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
