#!/usr/bin/env python3
"""Run one benchmark workload against a Release build of ron_served.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the repository's `ron` library and `ron_served` daemon plus the
benchmark driver (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when it is unset, then runs the driver. The driver's last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; this script passes it through as its own last line. Everything
else (build output, the report, the run's stamp) goes to stderr, and the
run's files (result.json, spans.tsv, the daemon log) stay under
<build dir>/runs/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("locate-sparse", "estimate-zipf", "churn-dense")
# One run must finish within 180 s; this leaves room for the build check.
RUN_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def source_stamp() -> str:
    """The git commit when there is one, and a digest of the sources either
    way (a driver checkout is not a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "none"
    if shutil.which("git") and (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"git {commit}, sources sha256 {digest.hexdigest()[:16]}"


def build(targets: list[str]) -> Path:
    """Configures once, then brings `targets` up to date. Serialized by a
    lock so concurrent runs in one checkout share one build."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                        *targets], check=True, stdout=sys.stderr)
    return out


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Runs `cmd` with stdout captured, forwarding SIGTERM/SIGINT to it and
    always reaping it."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.terminate()

    old_term = signal.signal(signal.SIGTERM, forward)
    old_int = signal.signal(signal.SIGINT, forward)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    return subprocess.CompletedProcess(cmd, child.returncode, stdout, None)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ron sources at {ROOT}; run from a full checkout")
        return 2

    if args.selftest:
        out = build(["ronbench_selftest"])
        return subprocess.run(
            [str(out / "ronbench_selftest"), str(ROOT / "BENCHMARK.json")],
            cwd=out, check=False).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build(["ronbench", "ron_served"])
    work = out / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(out / "ronbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--served", str(out / "ron" / "tools" / "ron_served"),
           "--work", str(work), "--commit", source_stamp()]
    try:
        result = run_child(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Snapshots are rebuilt from the seed on every run; keep the rest.
        for snap in work.glob("*.ron"):
            snap.unlink()
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"driver failed with exit code {result.returncode}")
        return result.returncode or 1
    line = lines[-1]
    parsed = json.loads(line)
    if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result line: {line}")
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
