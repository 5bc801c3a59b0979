#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --serve-workers 1 --hot-rate 16000 \
        --workload compile --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first call configures and builds
perfbench/ (and with it the library in src/) as an optimised CMake build
under $CARGO_TARGET_DIR, or .bench_build when that is unset, in a directory
of its own per checkout; later calls only rebuild what changed.  The run
itself writes into .bench_run/.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1.  The line before it is the run's fingerprint (nproc,
compiler, build type, source digest).  With --record FILE the run is also
appended to FILE as one JSON line, for perfbench/compare.py.

Exits non-zero, printing no result, when the sources cannot be built, the
build or environment is unfit for timing, or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over src/ and perfbench/, prefixed with the git commit when the
    checkout is a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    digest = "src:" + h.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        return commit + "+" + digest
    except (OSError, subprocess.SubprocessError):
        return digest


def build():
    top = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                               ".bench_build")
    # One build tree per checkout: CMake keeps building the sources it was
    # first configured with, so checkouts sharing a tree would share a binary.
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.abspath(os.path.join(top, "perfbench-" + key))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def check_metric_names(result, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = spec["per_layer" if trace else "end_to_end"]
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log(f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {[k for k in want if k in got and want[k] != got[k]]}")
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "tune", "serve-hot"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--serve-workers", type=int, required=True,
                    help="daemon scheduler width")
    ap.add_argument("--hot-rate", type=float, required=True,
                    help="serve-hot open-loop rate, req/s")
    ap.add_argument("--record", help="append this run to a JSON-lines file")
    args = ap.parse_args()

    binary = build()
    run_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    commit = source_digest()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-workers", str(args.serve_workers),
           "--hot-rate", str(args.hot_rate),
           "--golden-dir", os.path.join(HERE, "golden"),
           "--run-dir", os.path.relpath(run_dir), "--commit", commit]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run failed with exit code {proc.returncode}")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    check_metric_names(result, args.trace == 1)

    if args.record:
        fp = next((json.loads(l.split(" ", 1)[1]) for l in lines
                   if l.startswith("fingerprint ")), {})
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "fingerprint": fp,
                                "result": result}) + "\n")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
