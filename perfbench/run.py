#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits nonzero, without a result, when the build fails or the
run does not finish in time.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("seq_scan", "rand_rw", "pagerank", "kvs_zipf")
# A run (set-up, timed region, teardown) must end within 180 s; the binary's
# own hang guard fires first, this is the backstop.
RUN_TIMEOUT_S = 170


def src_hash(root: Path) -> str:
    """Content hash of the system sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = root / "src"
    for p in sorted(src.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(src)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir: Path, env: dict) -> Path:
    bench_dir = Path(__file__).resolve().parent
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"perfbench: no system sources at {root / 'src'}", file=sys.stderr)
        return 2
    # Temporary files (the compiler's included) stay inside the checkout.
    tmp = root / ".bench_build" / "tmp"
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        binary = build(root / ".bench_build" / "perfbench", env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit(root), "--src-hash", src_hash(root)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {args.workload} seed {args.seed} did not finish in "
              f"{time.monotonic() - start:.0f} s; killed", file=sys.stderr)
        return 3
    if rc != 0:
        print(f"perfbench: benchmark exited with code {rc}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
