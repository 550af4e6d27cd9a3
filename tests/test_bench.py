import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covband.bench import (
    ExperimentSpec,
    parse_spec,
    read_experiment_report,
    run_simulation_experiment,
    write_experiment_report,
    write_ratio_table,
)
from covband.errors import DataFormatError
from covband.estimators import ESTIMATORS, sample_covariance
from covband.forecast import ForecastOutcome, forecast_workflow, ingest_counts
from covband.matcore import TaperSpec, matrix_norm
from covband.selection import estimate_risk, oracle_k0, oracle_k1, select_k
from covband.simgen import (
    CovarianceModel,
    build_covariance,
    parse_model,
    sample_gaussian,
    substream_seed,
)


def small_spec(**overrides):
    fields = dict(
        model=CovarianceModel("ma1", 0.5),
        n=30,
        p=8,
        reps=4,
        N=6,
        seed=21,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


# ---------------------------------------------------------------------------
# spec round trip and validation
# ---------------------------------------------------------------------------


def test_spec_text_round_trip_defaults():
    spec = small_spec()
    assert parse_spec(spec.to_text()) == spec


def test_spec_text_round_trip_explicit_fields():
    spec = small_spec(
        model=parse_model("fgn:H=0.7"),
        n1=12,
        k_grid=(0, 1, 2, 5),
        estimator_kind="cholesky",
        norm="operator",
    )
    assert parse_spec(spec.to_text()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(reps=0)
    with pytest.raises(ValueError):
        small_spec(n=3)
    with pytest.raises(ValueError):
        small_spec(N=0)
    with pytest.raises(ValueError):
        small_spec(estimator_kind="ridge")
    with pytest.raises(ValueError):
        small_spec(seed=-1)
    for n, n1 in ((30, 1), (30, 29), (5, None)):  # n = 5 splits 1 + 4 by default
        with pytest.raises(ValueError, match="both split groups need >= 2 rows"):
            small_spec(n=n, n1=n1)
    assert small_spec(n=30, n1=28).n1 == 28


# ---------------------------------------------------------------------------
# simulation experiments
# ---------------------------------------------------------------------------


def test_experiment_is_deterministic():
    spec = small_spec()
    a = run_simulation_experiment(spec)
    b = run_simulation_experiment(spec)
    assert a.records == b.records
    assert a.k0 == b.k0
    assert_array_equal(a.true_risk, b.true_risk)
    assert_array_equal(a.est_risk_single.risk, b.est_risk_single.risk)


def test_per_replication_loss_ordering():
    # the per-sample oracle loss is the grid minimum, so it never exceeds
    # the losses at the selected or expected-loss-optimal bandwidths
    report = run_simulation_experiment(small_spec(reps=10))
    for rec in report.records:
        assert rec.loss_k1 <= rec.loss_k0
        assert rec.loss_k1 <= rec.loss_k_hat


def test_k0_minimizes_the_mean_loss_curve():
    report = run_simulation_experiment(small_spec())
    i0 = int(np.where(report.k_grid == report.k0)[0][0])
    assert report.true_risk[i0] == report.true_risk.min()


def test_aggregates_match_records():
    report = run_simulation_experiment(small_spec(reps=6))
    agg = report.aggregates()
    k_hats = [r.k_hat for r in report.records]
    assert agg["k_hat"][0] == pytest.approx(np.mean(k_hats))
    assert agg["k_hat"][1] == pytest.approx(np.std(k_hats, ddof=1))
    losses = [r.loss_sample for r in report.records]
    assert agg["loss_sample"][0] == pytest.approx(np.mean(losses))


def test_single_replication_aggregates_degenerate():
    report = run_simulation_experiment(small_spec(reps=1))
    agg = report.aggregates()
    rec = report.records[0]
    assert agg["k_hat"] == (float(rec.k_hat), 0.0)
    assert agg["loss_k_hat"] == (rec.loss_k_hat, 0.0)


def test_tridiagonal_model_selects_one_band():
    report = run_simulation_experiment(small_spec(n=100, p=10, reps=5, N=20))
    assert report.k0 == 1
    assert [r.k_hat for r in report.records] == [1, 1, 1, 1, 1]


def test_cholesky_kind_experiment_runs():
    spec = small_spec(
        model=CovarianceModel("ar1", 0.6), estimator_kind="cholesky", reps=2
    )
    report = run_simulation_experiment(spec)
    assert report.k_grid[-1] <= spec.n // 3 - 2
    assert all(np.isfinite(r.loss_k_hat) for r in report.records)


@pytest.mark.parametrize("kind", ["banded", "cholesky"])
def test_experiment_is_built_on_the_public_selection_api(kind):
    # replication r: data from substream (seed, r, 0), resampling seed from
    # (seed, r, 1); k1 and the true-risk curve come from oracle_k1
    spec = small_spec(model=CovarianceModel("ar1", 0.6), estimator_kind=kind)
    report = run_simulation_experiment(spec)
    Sigma = build_covariance(spec.model, spec.p)
    oracle_curves = []
    for r, rec in enumerate(report.records):
        X = sample_gaussian(Sigma, spec.n, np.random.SeedSequence([spec.seed, r, 0]))
        curve = estimate_risk(X, estimator_kind=kind, N=spec.N, norm=spec.norm,
                              seed=substream_seed(spec.seed, r, 1))
        if r == 0:
            assert_array_equal(report.est_risk_single.risk, curve.risk)
        assert rec.k_hat == select_k(curve).k_hat
        oracle = oracle_k1(X, Sigma, curve.k_grid, kind, spec.norm)
        assert rec.k1 == oracle.k_hat
        assert rec.loss_k1 == oracle.curve.risk.min()
        assert rec.loss_sample == matrix_norm(sample_covariance(X) - Sigma, spec.norm)
        oracle_curves.append(oracle.curve.risk)
    assert_array_equal(report.true_risk, np.mean(oracle_curves, axis=0))

    # oracle_k0 averages the same oracle_k1 curves over datasets (seed, r)
    k0, mean_loss = oracle_k0(spec.model, spec.n, spec.p, report.k_grid, spec.reps,
                              kind, spec.norm, seed=spec.seed)
    expected = np.mean([
        oracle_k1(sample_gaussian(Sigma, spec.n, np.random.SeedSequence([spec.seed, r])),
                  Sigma, report.k_grid, kind, spec.norm).curve.risk
        for r in range(spec.reps)
    ], axis=0)
    assert_array_equal(mean_loss, expected)
    assert k0 == report.k_grid[np.argmin(expected)]


def test_explicit_k_grid_is_respected():
    spec = small_spec(k_grid=(0, 2, 4))
    report = run_simulation_experiment(spec)
    assert_array_equal(report.k_grid, [0, 2, 4])
    assert report.k0 in (0, 2, 4)
    assert all(r.k_hat in (0, 2, 4) for r in report.records)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    report = run_simulation_experiment(small_spec())
    path = tmp_path / "report.csv"
    write_experiment_report(path, report)
    spec_text, k0, aggregates, records = read_experiment_report(path)
    assert parse_spec(spec_text) == report.spec
    assert k0 == report.k0
    assert records == report.records
    emitted = report.aggregates()
    for name, (m, s) in aggregates.items():
        assert m == pytest.approx(emitted[name][0], abs=1e-15)
        assert s == pytest.approx(emitted[name][1], abs=1e-15)


def test_report_reader_strips_a_byte_order_mark(tmp_path):
    report = run_simulation_experiment(small_spec())
    path = tmp_path / "report.csv"
    write_experiment_report(path, report)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    spec_text, k0, _, records = read_experiment_report(path)
    assert parse_spec(spec_text) == report.spec
    assert k0 == report.k0
    assert records == report.records


def test_report_emission_is_byte_identical(tmp_path):
    spec = small_spec()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_experiment_report(p1, run_simulation_experiment(spec))
    write_experiment_report(p2, run_simulation_experiment(spec))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("cut", ["last_field", "last_record_half"])
def test_report_parser_names_line_of_truncated_record(tmp_path, cut):
    path = tmp_path / "report.csv"
    write_experiment_report(path, run_simulation_experiment(small_spec()))
    lines = path.read_text().splitlines()
    last = lines[-1]
    lines[-1] = last.rsplit(",", 1)[0] if cut == "last_field" else last[: len(last) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=f"report.csv:{len(lines)}: malformed line"):
        read_experiment_report(path)


def test_report_parser_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("k,risk\n0,1.0\n")
    with pytest.raises(Exception):
        read_experiment_report(path)


def test_ratio_table(tmp_path):
    reports = [
        run_simulation_experiment(small_spec(p=8)),
        run_simulation_experiment(small_spec(p=12)),
    ]
    path = tmp_path / "ratio.csv"
    write_ratio_table(path, reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "model,parameter,p,n,k0,k0_over_p,k_hat_mean,k_hat_mean_over_p"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "ma1"
    assert int(first[2]) == 8
    assert float(first[5]) == pytest.approx(reports[0].k0 / 8.0)


# ---------------------------------------------------------------------------
# forecasting workflow
# ---------------------------------------------------------------------------


def test_sample_estimator_equals_its_own_baseline():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 10))
    out = forecast_workflow(X, 30, 5, estimator_kind="sample")
    assert_array_equal(out.errors, out.baseline_errors)
    assert out.selected_k is None
    assert out.n_test == 10


def test_fixed_bandwidth_workflow():
    Sigma = build_covariance(CovarianceModel("ar1", 0.7), 12)
    X = sample_gaussian(Sigma, 80, 3)
    out = forecast_workflow(X, 60, 6, estimator_kind="cholesky", k=2)
    assert out.selected_k == 2
    assert out.errors.shape == (6,)
    assert out.mean_error > 0


def test_banded_block_that_loses_definiteness_is_reported():
    # banding does not preserve positive definiteness; a too-narrow band on
    # strongly correlated data must surface as SingularBlock, not silently
    # regularize
    from covband.errors import SingularBlock

    Sigma = build_covariance(CovarianceModel("ar1", 0.7), 12)
    X = sample_gaussian(Sigma, 80, 3)
    with pytest.raises(SingularBlock):
        forecast_workflow(X, 60, 6, estimator_kind="banded", k=2)


def test_auto_bandwidth_requires_seed():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 8))
    with pytest.raises(ValueError):
        forecast_workflow(X, 20, 4, estimator_kind="cholesky", k="auto")
    out = forecast_workflow(X, 20, 4, estimator_kind="cholesky", k="auto", seed=2)
    assert out.selected_k is not None


def test_tapered_workflow_requires_taper():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 8))
    with pytest.raises(ValueError):
        forecast_workflow(X, 20, 4, estimator_kind="tapered")
    out = forecast_workflow(
        X, 20, 4, estimator_kind="tapered", taper=TaperSpec("triangular", 3.0)
    )
    assert out.errors.shape == (4,)


def test_workflow_validates_sizes():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 6))
    with pytest.raises(ValueError):
        forecast_workflow(X, 20, 3)  # no test rows left
    with pytest.raises(ValueError):
        forecast_workflow(X, 10, 6)  # nothing to predict
    with pytest.raises(ValueError):
        forecast_workflow(X, 10, 0)


@pytest.mark.parametrize("shape", [(5,), (4, 5, 6)])
def test_workflow_rejects_data_that_is_not_a_matrix(shape):
    with pytest.raises(ValueError, match="2-D"):
        forecast_workflow(np.ones(shape), 3, 2, k=1)


def test_workflow_rejects_an_unknown_estimator():
    X = np.random.default_rng(3).standard_normal((20, 6))
    with pytest.raises(ValueError, match=re.escape(str(ESTIMATORS))):
        forecast_workflow(X, 10, 3, estimator_kind="bogus")


def test_independent_coordinates_leave_nothing_to_exploit():
    # identity covariance: the regularized predictor and the baseline both
    # converge to predicting the training mean, so their errors agree
    # within Monte Carlo noise
    X = sample_gaussian(np.eye(10), 400, 4)
    out = forecast_workflow(X, 300, 5, estimator_kind="cholesky", k="auto", seed=5)
    assert out.mean_error == pytest.approx(out.mean_baseline_error, rel=0.1)


def test_correlated_halves_reward_regularization():
    Sigma = build_covariance(CovarianceModel("fgn", 0.9), 40)
    X = sample_gaussian(Sigma, 100, 6)
    out = forecast_workflow(X, 80, 20, estimator_kind="cholesky", k="auto", seed=7)
    # prediction must beat the no-information error level (marginal SD = 1)
    assert out.mean_error < 1.0


def test_forecast_workflow_from_counts_file(tmp_path):
    rng = np.random.default_rng(8)
    counts = rng.poisson(9.0, size=(50, 12))
    path = tmp_path / "counts.csv"
    with open(path, "w") as fh:
        for row in counts:
            fh.write(",".join(str(int(v)) for v in row) + "\n")
    X = ingest_counts(path, "sqrt_quarter")
    out = forecast_workflow(X, 40, 6, estimator_kind="banded", k=1)
    assert isinstance(out, ForecastOutcome)
    assert out.errors.shape == (6,)
    assert np.all(out.errors > 0)
