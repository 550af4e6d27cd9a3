import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covband.errors import NotPositiveDefinite
from covband.estimators import sample_covariance
from covband.matcore import cholesky_factor, matrix_norm
from covband.simgen import (
    CovarianceModel,
    build_covariance,
    parse_model,
    sample_gaussian,
    substream,
    substream_seed,
)


# ---------------------------------------------------------------------------
# model construction and the model-string form
# ---------------------------------------------------------------------------


def test_model_parameter_ranges():
    CovarianceModel("ma1", 0.99)
    CovarianceModel("ar1", -0.5)
    CovarianceModel("fgn", 0.5)
    CovarianceModel("fgn", 1.0)
    with pytest.raises(ValueError):
        CovarianceModel("ma1", 1.0)
    with pytest.raises(ValueError):
        CovarianceModel("ar1", -1.0)
    with pytest.raises(ValueError):
        CovarianceModel("fgn", 0.49)
    with pytest.raises(ValueError):
        CovarianceModel("fgn", 1.01)
    with pytest.raises(ValueError):
        CovarianceModel("wishart", 0.5)


def test_parse_model_round_trip():
    for text in ("ma1:rho=0.5", "ar1:rho=-0.25", "fgn:H=0.7"):
        model = parse_model(text)
        assert model.spec_string() == text
        assert parse_model(model.spec_string()) == model


def test_parse_model_rejects_malformed_input():
    for bad in ("ma1", "ma1:0.5", "ma1:H=0.5", "fgn:rho=0.7", "nope:rho=0.5"):
        with pytest.raises(ValueError):
            parse_model(bad)


# ---------------------------------------------------------------------------
# covariance construction
# ---------------------------------------------------------------------------


def test_ma1_matrix():
    S = build_covariance(CovarianceModel("ma1", 0.5), 3)
    expected = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    assert_array_equal(S, expected)


def test_ar1_matrix():
    S = build_covariance(CovarianceModel("ar1", 0.5), 3)
    expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert_allclose(S, expected, rtol=0, atol=1e-15)
    S9 = build_covariance(CovarianceModel("ar1", 0.9), 4)
    assert S9[0, 2] == pytest.approx(0.81)
    assert S9[0, 3] == pytest.approx(0.729)


def test_fgn_white_noise_is_identity():
    S = build_covariance(CovarianceModel("fgn", 0.5), 8)
    assert_allclose(S, np.eye(8), rtol=0, atol=1e-15)


def test_fgn_hurst_one_is_all_ones():
    S = build_covariance(CovarianceModel("fgn", 1.0), 5)
    assert_allclose(S, np.ones((5, 5)), rtol=0, atol=1e-15)


def test_fgn_matches_second_difference_formula():
    h = 0.8
    S = build_covariance(CovarianceModel("fgn", h), 6)
    for i in range(6):
        for j in range(6):
            d = abs(i - j)
            expected = 0.5 * ((d + 1) ** (2 * h) - 2 * d ** (2 * h) + abs(d - 1) ** (2 * h))
            assert S[i, j] == pytest.approx(expected, rel=1e-13)


def test_covariances_symmetric_unit_diagonal():
    for model in (
        CovarianceModel("ma1", 0.5),
        CovarianceModel("ar1", -0.7),
        CovarianceModel("fgn", 0.9),
    ):
        S = build_covariance(model, 20)
        assert np.array_equal(S, S.T)
        assert_array_equal(np.diag(S), np.ones(20))


def test_covariances_positive_definite_at_p200():
    # ma1 is a valid (PD) covariance only for |rho| <= 0.5: the tridiagonal
    # Toeplitz spectrum is 1 + 2*rho*cos(theta), which dips below zero for
    # larger |rho| as p grows.  The benchmarks only ever use rho = 0.5.
    for model in (
        CovarianceModel("ma1", 0.5),
        CovarianceModel("ma1", -0.5),
        CovarianceModel("ma1", 0.3),
        CovarianceModel("ar1", 0.9),
        CovarianceModel("ar1", -0.99),
        CovarianceModel("fgn", 0.7),
        CovarianceModel("fgn", 0.9),
    ):
        cholesky_factor(build_covariance(model, 200))


def test_ma1_beyond_half_is_constructed_but_not_sampleable():
    S = build_covariance(CovarianceModel("ma1", 0.9), 50)
    assert S[0, 1] == 0.9
    with pytest.raises(NotPositiveDefinite):
        sample_gaussian(S, 10, 0)


def test_fgn_long_range_entries_positive_and_nonincreasing():
    for h in (0.7, 0.9):
        S = build_covariance(CovarianceModel("fgn", h), 200)
        first_row = S[0]
        assert np.all(first_row > 0)
        assert np.all(np.diff(first_row) <= 1e-15)


def test_build_covariance_p1():
    S = build_covariance(CovarianceModel("ar1", 0.5), 1)
    assert_array_equal(S, np.array([[1.0]]))


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


def test_substream_is_deterministic_and_path_sensitive():
    a = substream(7, 1, 2).standard_normal(5)
    b = substream(7, 1, 2).standard_normal(5)
    c = substream(7, 1, 3).standard_normal(5)
    d = substream(8, 1, 2).standard_normal(5)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_rejects_negative_seed():
    with pytest.raises(ValueError):
        substream(-1)


def test_substream_seed_is_deterministic_64_bit():
    s1 = substream_seed(3, 0, 1)
    s2 = substream_seed(3, 0, 1)
    s3 = substream_seed(3, 0, 2)
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2**64
    # pinned: the first 64-bit word of substream(seed, *path)'s seed state
    assert s1 == 9708532199024898782
    assert substream_seed(2**64 - 1, 5) == 3086742927110360948


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------


def test_sample_gaussian_shape_and_determinism():
    S = build_covariance(CovarianceModel("ar1", 0.6), 5)
    X1 = sample_gaussian(S, 13, 42)
    X2 = sample_gaussian(S, 13, 42)
    X3 = sample_gaussian(S, 13, 43)
    assert X1.shape == (13, 5)
    assert_array_equal(X1, X2)
    assert not np.array_equal(X1, X3)


def test_sample_gaussian_identity_large_n():
    X = sample_gaussian(np.eye(2), 100_000, 0)
    S = sample_covariance(X)
    assert np.max(np.abs(S - np.eye(2))) < 0.02
    assert np.max(np.abs(X.mean(axis=0))) < 0.02


def test_sample_gaussian_scalar_variance():
    X = sample_gaussian(np.array([[4.0]]), 100_000, 1)
    S = sample_covariance(X)
    assert S[0, 0] == pytest.approx(4.0, rel=0.05)


def test_sample_covariance_converges_to_model():
    S = build_covariance(CovarianceModel("ar1", 0.6), 5)
    X = sample_gaussian(S, 100_000, 2)
    assert matrix_norm(sample_covariance(X) - S, "one_one") < 0.05


def test_sample_gaussian_rejects_rank_deficient_target():
    ones = build_covariance(CovarianceModel("fgn", 1.0), 4)
    with pytest.raises(NotPositiveDefinite):
        sample_gaussian(ones, 10, 0)


def test_sample_gaussian_accepts_seed_sequence_and_generator():
    S = np.eye(3)
    a = sample_gaussian(S, 4, np.random.SeedSequence([5, 0]))
    b = sample_gaussian(S, 4, np.random.SeedSequence([5, 0]))
    assert_array_equal(a, b)
    g = np.random.default_rng(9)
    c = sample_gaussian(S, 4, g)
    assert c.shape == (4, 3)
    # an integer seed draws the stream of substream(seed) = SeedSequence([seed])
    for seed in (0, 5, 2**63):
        assert_array_equal(sample_gaussian(S, 4, seed),
                           sample_gaussian(S, 4, np.random.SeedSequence([seed])))
    with pytest.raises(TypeError):
        sample_gaussian(S, 4, 5.0)
