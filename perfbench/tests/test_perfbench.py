"""Tests of the benchmark itself.  Run with

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import compare
import run as bench_run
import worker
import workloads
from elastica_fit import fitting, recovery, segmentation
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args,
         "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(tmp_path, workload, trace):
    proc = _run(tmp_path, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert (tmp_path / workload / f"seed3-trace{trace}-tiny.json").is_file()


def _tiny_records(workload, seed=1):
    wl = workloads.WORKLOADS[workload](tiny=True)
    records, wall_cal, wall, _ = worker.run_calibrated(wl, seed, 0.0)
    return {"records": records, "wall_cal_s": wall_cal, "wall_s": wall,
            "peak_rss_mb": 1.0}


def test_planted_wrong_fit_is_counted_as_failure(monkeypatch):
    real_fit = fitting.fit

    def shifted_fit(problem):
        res = real_fit(problem)
        p = res.params
        return dataclasses.replace(res, params=dataclasses.replace(
            p, x0=p.x0 + 0.5 * problem.target.length))

    monkeypatch.setattr(fitting, "fit", shifted_fit)
    res = _tiny_records("corpus_fit")
    assert all("r4_le_guess" in r["failed_checks"] for r in res["records"])
    summary = bench_run.summarize(res)
    assert summary["failed_unexpected"] == len(res["records"])
    metrics = bench_run.end_to_end(res, [(1.0, 1.0)])
    assert metrics["ok_frac"]["value"] == 0.0


def test_planted_wrong_guess_is_counted_as_failure(monkeypatch):
    real_guess = recovery.initial_guess

    def skewed_guess(samples):
        rep = real_guess(samples)
        return dataclasses.replace(rep, params=dataclasses.replace(
            rep.params, k=rep.params.k * 1.001))

    monkeypatch.setattr(recovery, "initial_guess", skewed_guess)
    res = _tiny_records("guess_mix")
    elastica_recs = [r for r in res["records"] if r["kind"] == "elastica"]
    assert elastica_recs
    assert all("truth.k" in r["failed_checks"] for r in elastica_recs)
    assert bench_run.summarize(res)["failed_unexpected"] >= len(
        elastica_recs)


def test_planted_broken_join_is_counted_as_failure(monkeypatch):
    real_piecewise = segmentation.fit_piecewise

    def gapped(*args, **kwargs):
        pw = real_piecewise(*args, **kwargs)
        joins = [dataclasses.replace(j, position_gap=1e-6)
                 for j in pw.join_continuity]
        return dataclasses.replace(pw, join_continuity=joins)

    monkeypatch.setattr(segmentation, "fit_piecewise", gapped)
    res = _tiny_records("piecewise_g1")
    assert all("join_position_gap" in r["failed_checks"]
               for r in res["records"])


def test_guess_mix_keeps_known_reject_inputs():
    wl = workloads.GuessMix()
    blocks = wl.blocks(7)
    fixed = [c for _ in range(wl.min_blocks) for c in next(blocks)]
    kinds = Counter(c.kind for c in fixed)
    assert len(fixed) >= 100
    assert kinds == {"bezier": 40, "noisy_polyline": 24, "elastica": 28,
                     "coincident_handle": 4, "straight_polyline": 4}
    for c in fixed:
        assert (c.known_defect is not None) == (
            c.kind in ("coincident_handle", "straight_polyline"))
    assert sum(c.in_r4_subset for c in fixed) == 64


def test_inputs_depend_only_on_seed():
    def points(seed):
        wl = workloads.GuessMix()
        return [c.curve.point(0.3) for c in next(wl.blocks(seed))]

    assert all((a == b).all() for a, b in zip(points(5), points(5)))
    assert any((a != b).any() for a, b in zip(points(5), points(6)))


def test_known_defect_failures_are_not_unexpected():
    res = _tiny_records("guess_mix")
    known = [r for r in res["records"] if r["known_defect"]]
    assert len(known) == 2
    summary = bench_run.summarize(res)
    assert summary["failed_unexpected"] == 0
    assert summary["failed_known_defect"] == sum(not r["ok"] for r in known)


def test_trace_self_times_account_for_wall_time():
    wl = workloads.CorpusFit(tiny=True)
    tracer, records, wall, per_layer, breakdown = worker.run_traced(wl, 2)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    for rec in records:
        cid = f"{rec['block']}:{rec['id']}"
        by_name, remainder = tracer.curve_breakdown(cid, rec["time_s"])
        assert sum(by_name.values()) + remainder == pytest.approx(
            rec["time_s"], abs=1e-12)
        assert 0.0 <= remainder < 0.05 * rec["time_s"]
        assert min(by_name.values()) >= -1e-9
    names = tracer.names
    fit_spans = {i for i, n in enumerate(names) if n == "fitting.fit"}
    inner = [i for i, n in enumerate(names) if n == "fitting.objective"
             and tracer.parents[i] in fit_spans]
    assert inner, "objective calls made inside fit are traced"
    assert per_layer["fitting.iterations"]["value"] == sum(
        r["iterations"] for r in records)


def test_tracer_patches_every_namespace_and_restores():
    original = fitting.fit
    tr = Tracer().install()
    try:
        assert segmentation.fit is fitting.fit is not original
        assert recovery.segment_eval_many.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert fitting.fit is original and segmentation.fit is original


def _fake_result(directory, backend, seed):
    path = directory / "corpus_fit" / f"seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": "corpus_fit", "seed": seed, "trace": 0, "tiny": False,
        "env": {"backend": backend},
        "metrics": {"curves_per_s": {"value": 1.0 + seed, "unit": "1/s"}}}))


def test_compare_refuses_results_of_different_backends(tmp_path, capsys):
    _fake_result(tmp_path / "a", "numpy", 1)
    _fake_result(tmp_path / "b", "numba", 1)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "refused" in capsys.readouterr().err
    _fake_result(tmp_path / "a", "numba", 2)
    assert compare.main([str(tmp_path / "a")]) == 2
    assert compare.main([str(tmp_path / "b")]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", "--workload", "corpus_fit", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
