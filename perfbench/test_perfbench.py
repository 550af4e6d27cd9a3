"""Tests of the benchmark itself: checkers, self-time arithmetic, tracing.

The workloads here are scaled-down copies of the benchmark's, so the whole
file runs in a few seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import covband.cli  # noqa: E402  (before numpy, as in the workers)
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from spans import Span, Tracer, layer_summary, self_times  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    ForecastWorkload,
    SelectWorkload,
    SimulationWorkload,
    op_seed,
)

SMALL = {
    "select": SelectWorkload("select", n=40, p=30, N=4),
    "select-operator": SelectWorkload("select-operator", n=40, p=20, N=3, norm="operator", k_max=6),
    "forecast": ForecastWorkload("forecast", n=60, p=20, n_train=48, split=10, N=3),
    "sim": SimulationWorkload("sim", ps=(10, 20), n=30, reps=3, N=4, n1=10),
}


def _run(workload, tmp_path, seed=5):
    inputs = workload.make_inputs(3, str(tmp_path))
    out_dir = tmp_path / "op"
    out_dir.mkdir()
    code, stdout, stderr = run_op(workload.argv(inputs, seed, str(out_dir)))
    assert code == 0, stderr
    return inputs, out_dir, stdout


def _scale_value(path, row, col, factor):
    """Multiply one numeric field of a covband CSV, rewriting it with repr."""
    lines = path.read_text().splitlines()
    data_rows = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    fields = lines[data_rows[row]].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[data_rows[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


# (file to perturb, data row, column) per workload; the row is one the checker recomputes.
PERTURB = {
    "select": ("curve.csv", -1, 1),
    "select-operator": ("curve.csv", -1, 1),
    "forecast": ("errors.csv", 3, 1),
    "sim": ("report_banded_ma1_rho0.5_p20_n30.csv", 1, 6),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_accepts_output_and_flags_relative_perturbation(name, tmp_path):
    workload = SMALL[name]
    inputs, out_dir, stdout = _run(workload, tmp_path)
    workload.check(inputs, 5, str(out_dir), stdout)
    fname, row, col = PERTURB[name]
    _scale_value(out_dir / fname, row, col, 1.0 + 1e-6)
    with pytest.raises(CheckFailed):
        workload.check(inputs, 5, str(out_dir), stdout)


def test_checker_flags_wrong_k_hat(tmp_path):
    workload = SMALL["select"]
    inputs, out_dir, stdout = _run(workload, tmp_path)
    curve = out_dir / "curve.csv"
    text = curve.read_text()
    k_hat = int(text.rsplit("k_hat=", 1)[1])
    curve.write_text(text.replace(f"k_hat={k_hat}", f"k_hat={k_hat + 1}"))
    with pytest.raises(CheckFailed):
        workload.check(inputs, 5, str(out_dir), stdout)


def test_self_times_exact_on_synthetic_tree():
    spans = [
        Span(0, None, 0, "cli.main", "cli", 0.0, 16.0),
        Span(1, 0, 0, "cli.estimate_risk", "selection", 1.0, 9.0),
        Span(2, 1, 0, "selection.sample_covariance", "estimators", 2.0, 4.0),
        Span(3, 1, 0, "selection.band", "matcore", 5.0, 6.0),
        Span(4, 0, 0, "cli.save_matrix_csv", "matcore", 10.0, 12.0),
        Span(5, 2, 0, "estimators.symmetrize", "matcore", 2.5, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == {"cli": 6.0, "selection": 5.0, "estimators": 1.5, "matcore": 3.5}
    assert sum(selfs.values()) == 16.0


def test_tracer_links_parents_and_counts_errors():
    tracer = Tracer(clock=itertools.count().__next__)

    def inner(fail):
        if fail:
            raise ValueError("boom")

    def mid(fail):
        try:
            traced_inner(fail)
        except ValueError:
            pass

    def outer():
        traced_mid(False)
        traced_mid(True)

    inner.__module__, mid.__module__, outer.__module__ = (
        "covband.estimators", "covband.selection", "covband.cli")
    traced_inner, traced_mid = tracer.wrap(inner, "selection.inner"), tracer.wrap(mid, "cli.mid")
    tracer.wrap(outer, "cli.main")()
    # ticks: outer 0..9, mid 1..4 and 5..8, inner 2..3 and 6..7
    assert [(s.parent, s.start, s.end) for s in tracer.spans] == [
        (None, 0, 9), (0, 1, 4), (1, 2, 3), (0, 5, 8), (3, 6, 7)]
    layers = layer_summary(tracer.spans)
    assert layers["cli"] == {"calls": 1, "self_s": 3, "errors": 0}
    assert layers["selection"] == {"calls": 2, "self_s": 4, "errors": 0}
    assert layers["estimators"] == {"calls": 2, "self_s": 2, "errors": 1}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_op_output_byte_identical(name, tmp_path):
    workload = SMALL[name]
    inputs = workload.make_inputs(3, str(tmp_path))
    out_dir = tmp_path / "op"
    argv = workload.argv(inputs, op_seed(3, 0), str(out_dir))

    def run_once():
        out_dir.mkdir()
        code, stdout, stderr = run_op(argv)
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        for p in out_dir.iterdir():
            p.unlink()
        out_dir.rmdir()
        return code, stdout, stderr, files

    plain = run_once()
    original_main = covband.cli.main
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_once()
    finally:
        tracer.uninstall()
    assert covband.cli.main is original_main
    assert traced == plain
    layers = layer_summary(tracer.spans)
    assert layers["cli"]["calls"] >= 1 and layers["matcore"]["calls"] >= 1
    assert all(stats["errors"] == 0 for stats in layers.values())
    assert np.isclose(sum(v["self_s"] for v in layers.values()),
                      tracer.spans[0].end - tracer.spans[0].start)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
