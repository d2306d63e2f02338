"""Tests of the benchmark itself: a smoke run of every workload, and one
planted wrong result per correctness check, which must count as a failure.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hardylab as hl  # noqa: E402
from hardylab import cli  # noqa: E402

import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import LargeN, Roundtrip, Suite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# smoke: the real command, one pass per workload


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# planted wrong results


def failures(work, passes=1):
    out = []
    for _ in range(passes):
        out += worker.run_pass(work)["failures"]
    return out


def only(work, *ids):
    work.argvs = [(sid, argv) for sid, argv in work.argvs if sid in ids]
    return work


def planted_cli(monkeypatch, edit):
    """Replace cli.main by the real one with ``edit(rc, text)`` applied."""
    real = cli.main

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real(argv)
        rc, text = edit(rc, buf.getvalue())
        print(text, end="")
        return rc
    monkeypatch.setattr(cli, "main", main)


def test_suite_passes_as_shipped_and_ignores_runtime():
    # two passes: runtime_ms differs, nothing else may
    assert failures(only(Suite(0), "corollary_almost", "beurling"), passes=2) == []


def test_suite_counterexample_refusal_is_a_success():
    assert failures(only(Suite(0), "counterexample")) == []


def test_suite_exit_code(monkeypatch):
    planted_cli(monkeypatch, lambda rc, text: (1, text))
    assert failures(only(Suite(0), "corollary_almost")) == [
        "corollary_almost: exit code 1"]


def test_suite_report_passed(monkeypatch):
    planted_cli(monkeypatch,
                lambda rc, text: (rc, text.replace('"passed": true', '"passed": false')))
    assert failures(only(Suite(0), "corollary_almost")) == [
        "corollary_almost: a report did not pass"]


def test_suite_report_identical_across_passes(monkeypatch):
    work = only(Suite(0), "corollary_almost")
    assert failures(work) == []
    planted_cli(monkeypatch,
                lambda rc, text: (rc, text.replace('"closed_form_tol": 1e-10',
                                                   '"closed_form_tol": 2e-10')))
    assert failures(work) == ["corollary_almost: report differs from an earlier pass"]


def small_large_n():
    work = LargeN(0)
    work.orders = (64,)
    return work


def test_large_n_as_shipped():
    assert failures(small_large_n()) == []


def test_large_n_model_dimension(monkeypatch):
    real = hl.model_space
    monkeypatch.setattr(hl, "model_space", lambda t, n: real(t, n, headroom=1))
    assert "theta4_N64: dim K = 13, expected deg det = 9" in failures(small_large_n())


def test_large_n_defect_within_band(monkeypatch):
    real = hl.certify_nearly
    monkeypatch.setattr(hl, "certify_nearly", lambda *a, **k: dataclasses.replace(
        real(*a, **k), defect_dim=1))
    assert failures(small_large_n()) == [
        f"{sym}_N64: certified defect 1 within the band, expected 0"
        for sym in ("theta4", "theta2")]


def test_roundtrip_as_shipped():
    assert failures(Roundtrip(0)) == []


def test_roundtrip_synthesis_dimension(monkeypatch):
    real = hl.synthesize_M

    def drop_one(*args):
        m = real(*args)
        return hl.Subspace(m.dim_m, m.ambient_deg, m.basis[:-1], m.tol)
    monkeypatch.setattr(hl, "synthesize_M", drop_one)
    assert "r2p2_synthesize: dim M = 55, dim K = 56" in failures(Roundtrip(0))


def test_roundtrip_certified_defect(monkeypatch):
    real = hl.certify_nearly
    monkeypatch.setattr(hl, "certify_nearly", lambda m, p: dataclasses.replace(
        real(m, p), defect_dim=p + 1))
    assert failures(Roundtrip(0)) == ["r2p2_certify: defect 3 > p = 2",
                                      "r2p1_certify: defect 2 > p = 1"]


def test_roundtrip_extracted_space(monkeypatch):
    real = hl.extract_K

    def drop_one(m, e):
        k = real(m, e)
        return hl.Subspace(k.dim_m, k.ambient_deg, k.basis[:-1], k.tol)
    monkeypatch.setattr(hl, "extract_K", drop_one)
    assert failures(Roundtrip(0)) == ["r2p2_extract: extracted K at distance 1",
                                      "r2p1_extract: extracted K at distance 1"]


@pytest.mark.parametrize("field,value,reason", [
    ("converged", False, "decomposition did not converge"),
    ("norm_gap", 1e-6, "Parseval norm gap 1e-06 > 1e-09"),
])
def test_roundtrip_decomposition(monkeypatch, field, value, reason):
    real = hl.decompose
    calls = []

    def planted(m, e, f):
        calls.append(1)
        res = real(m, e, f)
        return dataclasses.replace(res, **{field: value}) if len(calls) == 5 else res
    monkeypatch.setattr(hl, "decompose", planted)
    assert failures(Roundtrip(0)) == [f"r2p2_decompose: {reason}"]


def test_operation_that_raises_is_a_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise hl.NotNearlyInvariantError(1, 1.0, hl.zero_fn(1))
    monkeypatch.setattr(hl, "decompose", refuse)
    assert len(failures(Roundtrip(0))) == 2 * 40


# ----------------------------------------------------------------------
# the tracer


def test_tracer_restores_every_original():
    before = (hl.model_space, hl.subspaces.complement, hl.nearly.project,
              hl.CoeffFn.__init__, hl.Subspace.__post_init__, np.linalg.svd)
    tracer = Tracer()
    tracer.install()
    assert hl.nearly.project is not before[2]  # bound by from-import
    tracer.uninstall()
    after = (hl.model_space, hl.subspaces.complement, hl.nearly.project,
             hl.CoeffFn.__init__, hl.Subspace.__post_init__, np.linalg.svd)
    assert after == before


def test_traced_pass_accounts_for_its_time():
    tracer = Tracer()
    tracer.install()
    try:
        res = worker.run_pass(only(Suite(0), "counterexample"), tracer=tracer)
    finally:
        tracer.uninstall()
    assert res["failures"] == []
    summary = tracer.summarize(0, len(tracer))
    metrics = layer_metrics(summary)
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert accounted == pytest.approx(summary["roots_s"], rel=1e-9)
    assert metrics["nearly.refusals"] == 1
    assert metrics["cli.self_s"] > 0 and metrics["linalg.svd_calls"] > 0
