#!/usr/bin/env python3
"""Repository benchmark for the PDSLin reproduction, as one command.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--matrix-seed M]
  python3 perfbench/run.py --smoke

The first form builds the pdslin library and the benchmark program from source
(cmake, into .bench_build/perfbench), runs one workload and prints, as its
last stdout line, one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. A traced run also writes its spans as a
Chrome trace to .bench_build/traces/<workload>-seed<N>.trace.json.
--seed selects the right-hand sides; --matrix-seed (default: the baseline
matrix seed recorded in perfbench/layers.json) the generated matrix, so a
claim can be re-checked on the held-out matrix.

--smoke is the benchmark's own test: every workload at a tiny scale, untraced
twice and traced once, checking the result contract, the metric names and
units against BENCHMARK.json, the Chrome trace, and that the first solution's
hash is identical across runs and between traced and untraced runs. It takes
seconds once the build exists and exits non-zero on any failure.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pdslin_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_id():
    """git commit when the checkout is a git repository, else a digest of
    src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_bench(workload, seed, seconds, trace, smoke=False, trace_out=None,
               matrix_seed=None):
    """Run pdslin_perfbench once; returns (stdout lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_id()]
    if matrix_seed is not None:
        cmd += ["--matrix-seed", str(matrix_seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"pdslin_perfbench failed with exit code {proc.returncode}")
        sys.exit(1)
    return lines, json.loads(lines[-1])


def trace_path(workload, seed, tag=""):
    return os.path.join(ROOT, ".bench_build", "traces",
                        f"{workload}-seed{seed}{tag}.trace.json")


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    seed = 1
    for w in spec["workloads"]:
        name = w["name"]
        hashes = []
        for trace in (0, 0, 1):
            out = trace_path(name, seed, "-smoke") if trace else None
            lines, res = run_bench(name, seed, 1, trace, smoke=True,
                                    trace_out=out)
            tag = f"{name} trace={trace}"
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res["correct"] is not True or res["failed"] != 0 \
                    or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} "
                                f"failed={res['failed']}/{res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            for k, v in res["metrics"].items():
                if not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {k} is not finite")
            hashes += [l.split()[-1] for l in lines
                       if l.startswith("PERFBENCH_HASH ")]
            if out:
                with open(out) as f:
                    events = json.load(f)["traceEvents"]
                layers = {e["name"] for e in events}
                for layer in ("setup", "partition", "subdomain", "gather",
                              "lu_schur", "solve", "solve.rhs"):
                    if layer not in layers:
                        problems.append(f"{tag}: no '{layer}' span in trace")
                if not any(e["args"]["rhs"] >= 0 for e in events):
                    problems.append(f"{tag}: no span carries an RHS id")
        if len(hashes) != 3 or len(set(hashes)) != 1:
            problems.append(f"{name}: solution hashes differ {hashes}")
        log(f"smoke {name}: hashes {hashes}")
    for p in problems:
        log(f"SMOKE FAILED: {p}")
    log("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--matrix-seed", type=int)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    build()
    if args.smoke:
        return smoke()
    out = trace_path(args.workload, args.seed) if args.trace else None
    lines, _ = run_bench(args.workload, args.seed, args.seconds, args.trace,
                          trace_out=out, matrix_seed=args.matrix_seed)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
