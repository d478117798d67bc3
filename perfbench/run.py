#!/usr/bin/env python3
"""Builds the benchmark from source and runs one seeded workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Run it from the repository root. The Rust benchmark (perfbench/src) is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build), then
run; its last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}. The full record of the run,
with the machine fingerprint, goes to perfbench/out/ (or --out). The exit
code is non-zero, and no result line is printed, when the build fails or
the run does not finish; a failed output check prints "correct": false and
exits with code 1.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
# Sources whose content identifies the program under test when the
# checkout is not a git repository.
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", ".cargo/config.toml", "crates/**/*.rs",
                "crates/**/Cargo.toml", "shims/**/*.rs", "shims/**/Cargo.toml",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/*.rs"]


def source_rev():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for the run record and trace (default perfbench/out)")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    binary = Path(target)
    if not binary.is_absolute():
        binary = ROOT / binary
    cmd = [str(binary / "release" / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", args.out, "--rustc", rustc_version(), "--rev", source_rev()]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {args.workload} did not finish: {e}", file=sys.stderr)
        return 1
    lines = ran.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        sys.stdout.write(ran.stdout)
        sys.stdout.flush()
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
