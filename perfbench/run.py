#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

The build goes to $CARGO_TARGET_DIR (default .bench_build); stamped result
records and Chrome traces go to <build dir>/results. The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is nonzero when the build fails or any output check fails.
See perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["pipeline-rgg-1m", "service-mixed"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 90001
# A run measures --seconds plus set-up and checks; one that takes this
# long is hung (see README.md, "Known hazard"), and is killed.
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    step = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def source_hash():
    """SHA-256 over the library and benchmark sources: names the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_sizes():
    """Cache levels of CPU 0 as the kernel reports them, e.g. 'L1d 48K'."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    kinds = {"Data": "d", "Instruction": "i"}

    def read(index, name):
        with open(os.path.join(base, index, name)) as handle:
            return handle.read().strip()
    try:
        indices = sorted(i for i in os.listdir(base) if i.startswith("index"))
        return ", ".join(f"L{read(i, 'level')}{kinds.get(read(i, 'type'), '')}"
                         f" {read(i, 'size')}" for i in indices) or "unknown"
    except OSError:
        return "unknown"


def stamp():
    """Where and what was measured, beside what the program reports."""
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "caches": cache_sizes(), "commit": commit(),
            "source_hash": source_hash()}


def run_workload(binary, workload, args, out_dir):
    """Runs one workload, relaying its output and writing its stamped
    record; returns (code, result)."""
    base = os.path.join(out_dir, f"{workload}-seed{args.seed}")
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-file", base + ".trace.json"]
    try:
        process = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, None
    lines = process.stdout.rstrip("\n").split("\n")
    result = detail = None
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        lines = lines[:-2]
    except (ValueError, IndexError, KeyError, TypeError):
        pass
    if lines and lines != [""]:
        print("\n".join(lines), flush=True)
    if result is not None and detail is not None:
        record = {"workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "stamp": dict(stamp(), compiler=detail.pop("compiler"),
                                build_type=detail.pop("build_type")),
                  "correct": result["correct"],
                  "attempted": result["attempted"],
                  "failed": result["failed"], "metrics": result["metrics"]}
        record.update(detail)
        with open(f"{base}-trace{args.trace}.json", "w") as handle:
            json.dump(record, handle, indent=1)
    return process.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    results = {}
    for workload in workloads:
        status, result = run_workload(binary, workload, args, out_dir)
        if result is None:
            log(f"perfbench: {workload} printed no result (exit {status})")
            return status or 2
        code = code or status
        results[workload] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        for workload, result in results.items():
            print(f"{workload}: {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{name}": value
                        for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
