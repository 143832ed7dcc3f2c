#!/usr/bin/env python3
"""Build and run one qnn-stream benchmark run.

    python3 perfbench/run.py --workload stream-resnet18 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call builds the repository's
libraries and the benchmark (Release) into .bench_build/ (or
$CARGO_TARGET_DIR); later calls rebuild only what changed. Each run then

  1. computes the oracle's expected outputs in a process of its own, so
     neither its time nor its memory counts toward the measured process;
  2. runs the measured process, which checks every output against them.

The last line of standard output is the run's JSON result. With --trace 1
the Chrome trace is written to .bench_results/traces/.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return out / "perfbench"


def source_id():
    """The commit when git knows it, else a hash of the program's sources."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def run_child(cmd):
    """Run one benchmark process to completion; kill it on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out: {' '.join(cmd)}")
        sys.exit(3)
    return proc.returncode, stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log(f"no qnn-stream source tree in {ROOT}; run from the repository root")
        sys.exit(2)
    binary = build()

    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    expected = runs / f"{args.workload}-{args.seed}-{os.getpid()}.expected"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        code, _ = run_child([str(binary), "oracle", *common, "--out", str(expected)])
        if code != 0:
            log("oracle failed")
            sys.exit(code or 1)
        cmd = [str(binary), "run", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--expect", str(expected),
               "--commit", source_id()]
        if args.trace:
            traces = ROOT / ".bench_results" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
        code, stdout = run_child(cmd)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        sys.exit(code)
    finally:
        expected.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
