"""Run one workload in this (fresh) process and print its raw measurements.

    python3 bench/worker.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 bench/worker.py --workload suite --seed 1 --setup-only

BLAS is pinned to one thread before numpy is imported.  Passes repeat
until ``--seconds`` have elapsed (at least one pass, or one untraced and
one traced pass with ``--trace 1``).  Two fixed reference kernels owned by
the benchmark (a dense SVD and a small-array loop) run between passes and,
in untraced passes, every ``REF_EVERY_S`` between operations, so the
host's speed regime is on record next to the workload's times.  The last
line of stdout is one JSON object; ``bench/run.py`` turns it into the
benchmark's metrics.

``--setup-only`` prints ``ready`` once the inputs are generated, then the
factor that scales the set-up time to nominal speed, and exits;
``run.py`` times the first line to measure set-up.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_DENSE_PARTS = np.random.default_rng(20050224).standard_normal((2, 192, 192))
_DENSE = _DENSE_PARTS[0] + 1j * _DENSE_PARTS[1]
_SVD = np.linalg.svd
# Nominal host speed: the kernels take this long, and normalized times
# are the seconds the work would take at that speed.
NOMINAL_S = {"dense": 0.020, "interp": 0.005}
# Untraced passes re-run the kernels between operations this often.
REF_EVERY_S = 0.25


def dense_kernel() -> float:
    """Seconds for one SVD of a fixed 192 x 192 complex matrix."""
    start = perf_counter()
    _SVD(_DENSE)
    return perf_counter() - start


def interp_kernel() -> float:
    """Seconds for a fixed loop of small-array arithmetic, the interpreter-
    bound kind of work that building and combining ``CoeffFn`` values is."""
    start = perf_counter()
    acc = np.zeros(4, dtype=complex)
    for i in range(2000):
        acc = acc + np.full(4, i, dtype=complex)
    return perf_counter() - start


class SpeedProbe:
    """Reference-kernel times, interleaved with the workload.

    The host's speed drifts by up to a factor of two within and between
    processes, more for interpreter-bound than for dense work.  Each
    operation's latency is scaled to nominal speed by the kernels timed
    just before and just after it: by the dense kernel alone for a
    workload of large LAPACK calls (``kind="dense"``), else by the
    geometric mean of both kernels' factors (``kind="mixed"``).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.times: dict[str, list] = {"dense": [], "interp": []}
        self._last = 0.0

    def run(self) -> None:
        self.times["dense"].append(dense_kernel())
        self.times["interp"].append(interp_kernel())
        self._last = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self._last >= REF_EVERY_S

    def last(self) -> int:
        return len(self.times["dense"]) - 1

    def scale(self, k: int) -> float:
        """Factor from measured to nominal speed for work done between
        kernel runs k and k + 1."""
        return speed_factor(self.kind, {
            kind: 0.5 * (times[k] + times[k + 1]) for kind, times in self.times.items()})


def speed_factor(kind: str, kernel_s: dict) -> float:
    """Factor from the speed at which the kernels took ``kernel_s`` to
    nominal speed."""
    dense = NOMINAL_S["dense"] / kernel_s["dense"]
    if kind == "dense":
        return dense
    return math.sqrt(dense * NOMINAL_S["interp"] / kernel_s["interp"])


def run_pass(work, probe=None, tracer=None, op_id=0) -> dict:
    """One pass of the workload's operations; checks run untimed.

    Each operation's latency is stored with the index of the last kernel
    run before it, so it can be scaled by the kernels around it.  Kernels
    run between operations only in untraced passes.
    """
    latencies, kernel_at, failures = [], [], []
    if tracer is not None:
        op_name = tracer.name_id("harness.op")
        tracer.active = True
        pass_span = tracer.open(tracer.name_id("harness.pass"))
    for label, call, check in work.ops():
        if probe is not None:
            if tracer is None and probe.due():
                probe.run()
            kernel_at.append(probe.last())
        if tracer is not None:
            tracer.op = op_id
            span = tracer.open(op_name)
        op_id += 1
        t0 = perf_counter()
        try:
            result, reason = call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, reason = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        if reason is None:
            try:
                reason = check(result)
            except Exception as exc:  # a check that cannot run is a failure
                reason = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = True
        if reason is not None:
            failures.append(f"{label}: {reason}")
    if tracer is not None:
        tracer.close(pass_span)
        tracer.active = False
    return {"latencies_s": latencies, "kernel_at": kernel_at,
            "failures": failures, "next_op": op_id}


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(work, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    """Repeat passes for ``seconds``; with ``trace``, alternate an untraced
    and a traced pass and keep the per-layer figures of the traced ones.

    A pass's time is the sum of its operations' latencies, so harness
    checks and kernel runs are left out of it.
    """
    probe = SpeedProbe(work.kernel)
    probe.run()
    passes, traced, layers = [], [], []
    tracer = Tracer() if trace else None
    op_id = 0
    deadline = perf_counter() + seconds
    while True:
        for traced_pass in ((False, True) if trace else (False,)):
            if traced_pass:
                tracer.install()
                first = len(tracer)
                try:
                    res = run_pass(work, probe, tracer, op_id)
                finally:
                    tracer.uninstall()
                summary = tracer.summarize(first, len(tracer))
                metrics = layer_metrics(summary)
                # self times of all layers and the harness cover the pass
                accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
                if abs(accounted - summary["roots_s"]) > 1e-6 * summary["roots_s"]:
                    raise RuntimeError(
                        f"self times add to {accounted}, traced pass took {summary['roots_s']}")
                metrics["trace.pass_s"] = summary["roots_s"]
                traced.append(res)
                layers.append(metrics)
            else:
                res = run_pass(work, probe, None, op_id)
                passes.append(res)
            probe.run()
            op_id = res["next_op"]
        if perf_counter() >= deadline:
            break
    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)
    done = passes + traced
    out = {
        "passes": len(passes),
        "pass_s": [sum(p["latencies_s"]) for p in passes],
        "op_nominal_s": [[t * probe.scale(k)
                          for t, k in zip(p["latencies_s"], p["kernel_at"])]
                         for p in passes],
        "attempted": sum(len(p["latencies_s"]) for p in done),
        "failures": [f for p in done for f in p["failures"]],
        "kernel": work.kernel,
        "kernel_s": probe.times,
        "nominal_s": NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        # median_low keeps each figure one traced pass's value
        per_layer = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        ops_traced = statistics.median(sum(p["latencies_s"]) for p in traced)
        per_layer["trace.overhead_s"] = ops_traced - statistics.median(out["pass_s"])
        per_layer["trace.spans"] = len(tracer)
        out["per_layer"] = per_layer
        out["traced_passes"] = len(traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans (gzip'd TSV)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        # factor from the speed the set-up ran at to nominal speed
        print(speed_factor("mixed", {
            "dense": statistics.median(dense_kernel() for _ in range(3)),
            "interp": statistics.median(interp_kernel() for _ in range(3))}), flush=True)
        return 0
    out = measure(work, args.seconds, bool(args.trace), args.spans)
    out["environment"] = environment(args.seed)
    out["observed"] = work.observed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
