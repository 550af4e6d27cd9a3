import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covband.errors import DataFormatError, SingularBlock
from covband.forecast import (
    conditional_coefficients,
    forecast_error,
    ingest_counts,
    partition_moments,
    predict_second_half,
    write_forecast_report,
)
from covband.simgen import CovarianceModel, build_covariance, sample_gaussian


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def test_partition_blocks_2x2():
    Sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    pm = partition_moments(np.array([5.0, -1.0]), Sigma, 1)
    assert_array_equal(pm.S11, [[1.0]])
    assert_array_equal(pm.S12, [[0.3]])
    assert_array_equal(pm.S21, [[0.3]])
    assert_array_equal(pm.S22, [[2.0]])
    assert_array_equal(pm.mu1, [5.0])
    assert_array_equal(pm.mu2, [-1.0])


def test_partition_block_shapes():
    Sigma = build_covariance(CovarianceModel("ar1", 0.5), 102)
    pm = partition_moments(np.zeros(102), Sigma, 51)
    assert pm.S11.shape == (51, 51)
    assert pm.S22.shape == (51, 51)
    assert_array_equal(pm.S21, pm.S12.T)
    pm_edge = partition_moments(np.zeros(102), Sigma, 101)
    assert pm_edge.S22.shape == (1, 1)


def test_partition_validates_split_and_mean_length():
    Sigma = np.eye(4)
    with pytest.raises(ValueError):
        partition_moments(np.zeros(4), Sigma, 0)
    with pytest.raises(ValueError):
        partition_moments(np.zeros(4), Sigma, 4)
    with pytest.raises(ValueError):
        partition_moments(np.zeros(3), Sigma, 2)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_identity_covariance_predicts_the_mean():
    pm = partition_moments(np.array([1.0, 2.0, 3.0, 4.0]), np.eye(4), 2)
    for x1 in (np.array([0.0, 0.0]), np.array([10.0, -7.0])):
        assert_array_equal(predict_second_half(pm, x1), [3.0, 4.0])


def test_bivariate_regression_slope():
    rho = 0.8
    Sigma = np.array([[1.0, rho], [rho, 1.0]])
    pm = partition_moments(np.zeros(2), Sigma, 1)
    assert predict_second_half(pm, np.array([2.0]))[0] == pytest.approx(2.0 * rho)


def test_prediction_via_explicit_solve():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((12, 8))
    W = G.T @ G / 12.0
    Sigma = (W + W.T) / 2.0 + 2.0 * np.eye(8)
    mu = rng.standard_normal(8)
    pm = partition_moments(mu, Sigma, 3)
    x1 = rng.standard_normal(3)
    expected = mu[3:] + pm.S21 @ np.linalg.solve(pm.S11, x1 - mu[:3])
    assert_allclose(predict_second_half(pm, x1), expected, rtol=1e-10)


def test_conditional_coefficients_satisfy_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = int(rng.integers(3, 12))
        split = int(rng.integers(1, p))
        G = rng.standard_normal((p + 4, p))
        Sigma = G.T @ G / (p + 4) + 0.5 * np.eye(p)
        Sigma = (Sigma + Sigma.T) / 2.0
        pm = partition_moments(np.zeros(p), Sigma, split)
        B = conditional_coefficients(pm)
        assert np.max(np.abs(B @ pm.S11 - pm.S21)) <= 1e-10


def test_singular_leading_block_is_reported_with_hint():
    Sigma = np.ones((4, 4)) + np.diag([0.0, 0.0, 1.0, 1.0])
    pm = partition_moments(np.zeros(4), Sigma, 2)
    with pytest.raises(SingularBlock, match="banded"):
        predict_second_half(pm, np.zeros(2))


def test_prediction_with_true_covariance_is_unbiased_and_decorrelated():
    Sigma = build_covariance(CovarianceModel("ar1", 0.6), 6)
    pm = partition_moments(np.zeros(6), Sigma, 3)
    B = conditional_coefficients(pm)
    X = sample_gaussian(Sigma, 10_000, 7)
    X1, X2 = X[:, :3], X[:, 3:]
    preds = X1 @ B.T
    resid = X2 - preds
    sd = resid.std(axis=0, ddof=1)
    assert np.all(np.abs(resid.mean(axis=0)) <= 3.0 * sd / 100.0)
    cross = X1.T @ resid / X.shape[0]
    assert np.max(np.abs(cross)) <= 0.05


# ---------------------------------------------------------------------------
# forecast error
# ---------------------------------------------------------------------------


def test_perfect_predictions_have_zero_error():
    A = np.arange(12.0).reshape(3, 4)
    assert_array_equal(forecast_error(A, A), np.zeros(4))


def test_single_row_absolute_errors():
    preds = np.array([[1.0, -1.0]])
    actual = np.array([[0.0, 0.0]])
    assert_array_equal(forecast_error(preds, actual), [1.0, 1.0])


def test_forecast_error_mean_over_rows():
    preds = np.array([[1.0], [3.0]])
    actual = np.array([[0.0], [0.0]])
    assert_array_equal(forecast_error(preds, actual), [2.0])


def test_forecast_error_translation_invariant_and_row_permutable():
    rng = np.random.default_rng(2)
    preds = rng.standard_normal((10, 4))
    actual = rng.standard_normal((10, 4))
    base = forecast_error(preds, actual)
    assert_allclose(forecast_error(preds + 3.5, actual + 3.5), base, rtol=1e-14)
    perm = rng.permutation(10)
    assert_allclose(forecast_error(preds[perm], actual[perm]), base, rtol=1e-14)


def test_forecast_error_shape_mismatch():
    with pytest.raises(ValueError):
        forecast_error(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        forecast_error(np.zeros((0, 3)), np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# counts ingestion
# ---------------------------------------------------------------------------


def test_ingest_transform_values(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("0,2\n6,12\n")
    X = ingest_counts(path, "sqrt_quarter")
    assert_allclose(X, np.sqrt(np.array([[0.25, 2.25], [6.25, 12.25]])))
    assert X[0, 0] == 0.5
    assert X[0, 1] == 1.5


def test_ingest_header_auto_detection(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("interval_1,interval_2\n1,2\n3,4\n")
    X = ingest_counts(path, "none")
    assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_ingest_without_header(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("1,2\n3,4\n")
    assert_array_equal(ingest_counts(path, "none"), [[1.0, 2.0], [3.0, 4.0]])


def test_ingest_strips_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a BOM; it must not hide day 1
    path = tmp_path / "counts.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n")
    assert_array_equal(ingest_counts(path, "none"), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    path.write_bytes(b"\xef\xbb\xbfa,b,c\n4,5,6\n7,8,9\n")
    assert_array_equal(ingest_counts(path, "none"), [[4, 5, 6], [7, 8, 9]])


def test_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("\nday,night\n1,2\n\n3,4\n")
    assert_array_equal(ingest_counts(path, "none"), [[1.0, 2.0], [3.0, 4.0]])


def test_ingest_rejects_ragged_rows(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataFormatError):
        ingest_counts(path, "none")


def test_ingest_rejects_second_non_numeric_row(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("h1,h2\n1,2\noops,4\n")
    with pytest.raises(DataFormatError):
        ingest_counts(path, "none")


def test_ingest_rejects_negative_counts_for_sqrt_transform(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("1,2\n-3,4\n")
    with pytest.raises(DataFormatError, match="negative"):
        ingest_counts(path, "sqrt_quarter")
    # pass-through mode accepts any finite reals
    X = ingest_counts(path, "none")
    assert X[1, 0] == -3.0


def test_ingest_rejects_unknown_transform_and_missing_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError):
        ingest_counts(path, "log")
    with pytest.raises(OSError):
        ingest_counts(tmp_path / "nope.csv", "none")


def test_ingest_rejects_empty_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        ingest_counts(path, "none")


def test_ingest_rejects_a_field_beyond_the_csv_limit(tmp_path):
    # the csv module raises its own csv.Error here, not a ValueError
    path = tmp_path / "counts.csv"
    path.write_text("1" * 200_000 + "\n")
    with pytest.raises(DataFormatError, match="field limit"):
        ingest_counts(path, "none")


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def test_forecast_report_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_forecast_report(path, np.array([0.5, 0.25]), start_index=52)
    assert path.read_text() == "j,E_j\n52,0.5\n53,0.25\n"
