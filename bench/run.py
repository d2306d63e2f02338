"""hardylab benchmark: one workload, checked, with every metric printed.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/hardylab`` must be there).
Set-up is timed in ``SETUP_PROBES`` fresh processes, from process start to
the moment the workload's inputs are ready, and the median is reported.
The workload itself then runs in one more fresh process (``worker.py``)
with BLAS pinned to one thread.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones; the
metric names and units are read from that file.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 7
TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to inputs ready, in one fresh process, scaled to
    nominal host speed by the reference kernels the process runs next."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=TIMEOUT_S)
    if ready.strip() != "ready" or code != 0 or len(rest) != 1:
        raise BenchError(f"set-up of {workload} failed (exit code {code})")
    return elapsed * float(rest[0])


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(BENCH_DIR / "out" / f"spans-{workload}.tsv.gz")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in {TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} worker failed (exit code {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw: dict, setup: list) -> dict:
    return {
        "wall_s": statistics.median(sum(p) for p in raw["op_nominal_s"]),
        # median over the work list of each operation's median over passes:
        # a pooled median of a mix of operation kinds would sit in the gap
        # between two kinds and jump with every outlier
        "op_p50_ms": 1e3 * statistics.median(
            statistics.median(op) for op in zip(*raw["op_nominal_s"])),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def report(args, spec: dict, raw: dict, setup: list) -> dict:
    """Print the human-readable record and return the result object."""
    env = raw["environment"]
    ops = [t for p in raw["op_nominal_s"] for t in p]
    failed = len(raw["failures"])
    attempted = raw["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']} pinned to {env['blas_threads']} thread(s), "
          f"nproc {env['nproc']} ({env['usable_cpus']} usable)")
    for kind, times in raw["kernel_s"].items():
        print(f"reference kernel {kind}: {len(times)} runs, median "
              f"{1e3 * statistics.median(times):.3f} ms, min {1e3 * min(times):.3f} ms, "
              f"max {1e3 * max(times):.3f} ms, nominal {1e3 * raw['nominal_s'][kind]:.0f} ms")
    print(f"times are scaled to nominal speed by the {raw['kernel']} kernel")
    print(f"passes {raw['passes']}: measured wall median "
          f"{statistics.median(raw['pass_s']):.4f} s; operations {len(ops)}")
    if len(ops) >= 100:
        p90 = statistics.quantiles(ops, n=10, method="inclusive")[-1]
        print(f"op_p90_ms = {1e3 * p90:.4f} ms  "
              f"(from {len(ops)} operations)")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for reason in raw["failures"][:10]:
        print(f"  failure: {reason}")
    for key, val in raw["observed"].items():
        print(f"observed {key} = {val}")
    if args.trace:
        values = raw["per_layer"]
        wanted = spec["per_layer"]
        print(f"traced passes {raw['traced_passes']}, spans {values['trace.spans']}")
    else:
        values = end_to_end(raw, setup)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        val = values[m["name"]]
        if not math.isfinite(val):
            raise BenchError(f"metric {m['name']} is {val}")
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
        print(f"{m['name']} = {val} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "hardylab" / "__init__.py").is_file():
            raise BenchError(f"no hardylab sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        setup = ([] if args.trace else
                 [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)])
        raw = run_worker(args.workload, args.seed, args.seconds, args.trace)
        result = report(args, spec, raw, setup)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
