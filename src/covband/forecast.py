"""Partitioned best linear prediction of the back half of a vector.

Given first- and second-moment estimates of a p-vector split at index s,
the best linear predictor of the trailing p - s coordinates from the
leading s is ``mu2 + S21 inv(S11) (x1 - mu1)``; any covariance estimate
(sample, banded, tapered, Cholesky-banded) can supply the blocks.  The
module also ingests count data with the variance-stabilizing
``sqrt(count + 1/4)`` transform and reports per-coordinate mean absolute
forecast errors over a test set.

:func:`forecast_workflow` runs the whole pipeline: fit a covariance
estimator (by name, through :func:`covband.estimators.fit_covariance`) on
the leading training rows, predict the back half of each test row from its
front half, and report per-coordinate mean absolute errors next to the
sample-covariance baseline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NotPositiveDefinite, SingularBlock
from .estimators import as_data_matrix, fit_covariance
from .matcore import TaperSpec, cholesky_factor, require_symmetric, single_blas_thread, write_table
from .selection import ESTIMATOR_KINDS, estimate_risk, select_k

TRANSFORMS = ("sqrt_quarter", "none")


@dataclass(frozen=True)
class PartitionedMoments:
    """Mean vector and covariance split into leading/trailing blocks at ``split``."""

    split: int
    mu1: np.ndarray
    mu2: np.ndarray
    S11: np.ndarray
    S12: np.ndarray
    S21: np.ndarray
    S22: np.ndarray


def partition_moments(mu, Sigma, split: int) -> PartitionedMoments:
    """Split moments at a contiguous index: coordinates 1..split vs split+1..p."""
    S = require_symmetric(Sigma, "Sigma")
    mu = np.asarray(mu, dtype=float)
    p = S.shape[0]
    if mu.shape != (p,):
        raise ValueError(f"mu must have length {p}, got shape {mu.shape}")
    s = int(split)
    if not 1 <= s < p:
        raise ValueError(f"split must be in 1..{p - 1}, got {s}")
    S12 = S[:s, s:].copy()
    return PartitionedMoments(
        split=s,
        mu1=mu[:s].copy(),
        mu2=mu[s:].copy(),
        S11=S[:s, :s].copy(),
        S12=S12,
        S21=S12.T.copy(),
        S22=S[s:, s:].copy(),
    )


def predict_second_half(pm: PartitionedMoments, x1) -> np.ndarray:
    """Best linear prediction ``mu2 + S21 inv(S11) (x1 - mu1)``.

    inv(S11) is applied through the Cholesky factor of S11 (two triangular
    solves), never formed explicitly.  A conditioning block that fails the
    positive-definiteness test raises :class:`SingularBlock`.
    """
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != pm.mu1.shape:
        raise ValueError(f"x1 must have length {pm.mu1.size}, got shape {x1.shape}")
    return pm.mu2 + pm.S21 @ _solve_block(pm.S11, x1 - pm.mu1)


def conditional_coefficients(pm: PartitionedMoments) -> np.ndarray:
    """The (p - s, s) coefficient matrix B = S21 inv(S11) of the predictor.

    Computed by Cholesky solves against S12; useful for predicting many
    vectors with one factorization.  Satisfies B @ S11 = S21.
    """
    return _solve_block(pm.S11, pm.S12).T


def forecast_error(predictions, actuals) -> np.ndarray:
    """Per-coordinate mean absolute error over test rows.

    ``predictions`` and ``actuals`` are (tests, q) arrays; returns the
    length-q vector of mean |prediction - actual| down each column.
    """
    P = np.asarray(predictions, dtype=float)
    A = np.asarray(actuals, dtype=float)
    if P.ndim != 2 or P.shape != A.shape:
        raise ValueError(f"shape mismatch: predictions {P.shape} vs actuals {A.shape}")
    if P.shape[0] < 1:
        raise ValueError("need at least one test row")
    return np.mean(np.abs(P - A), axis=0)


def ingest_counts(path, transform: str = "sqrt_quarter") -> np.ndarray:
    """Read a counts CSV (rows = days, columns = intervals) into a data matrix.

    A leading header row is auto-detected (first row with any non-numeric
    field is skipped); after that every field must parse as a number and
    all rows must have equal length.  ``sqrt_quarter`` maps each count N
    to sqrt(N + 1/4) and rejects negative values; ``none`` passes values
    through as reals.
    """
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    rows: list[list[float]] = []
    header_skipped = False
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
            for lineno, fields in enumerate(csv.reader(fh), start=1):
                if not fields or all(f.strip() == "" for f in fields):
                    continue
                try:
                    values = [float(f) for f in fields]
                except ValueError:
                    if not rows and not header_skipped:
                        header_skipped = True  # leading header row
                        continue
                    raise DataFormatError(f"{path}:{lineno}: non-numeric field") from None
                if rows and len(values) != len(rows[0]):
                    raise DataFormatError(f"{path}:{lineno}: ragged row ({len(values)} "
                                          f"fields, expected {len(rows[0])})")
                rows.append(values)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: unreadable CSV ({exc})") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    X = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataFormatError(f"{path}: non-finite entries")
    if transform == "none":
        return X
    if np.any(X < 0):
        i, j = np.argwhere(X < 0)[0]
        raise DataFormatError(
            f"{path}: negative count {X[i, j]} at row {i + 1}, column {j + 1}"
        )
    return np.sqrt(X + 0.25)


def write_forecast_report(path, errors, start_index: int = 1) -> None:
    """Write per-coordinate errors with header ``j,E_j``.

    ``start_index`` sets the coordinate label of the first error (e.g.
    split + 1 when reporting on the predicted half of a vector).
    """
    write_table(path, "j,E_j", enumerate(np.asarray(errors, dtype=float), start=start_index))


def _solve_block(S11, B) -> np.ndarray:
    """inv(S11) B through the Cholesky factor L of S11: solve L Y = B, then L' X = Y."""
    try:
        L = cholesky_factor(S11)
    except NotPositiveDefinite as exc:
        raise SingularBlock(
            "conditioning block S11 is not positive definite; "
            "plug in a regularized covariance estimate (banded, tapered, or "
            "Cholesky-banded) instead of the raw sample covariance"
        ) from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, B))


# ---------------------------------------------------------------------------
# Forecasting workflow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForecastOutcome:
    """Per-coordinate forecast errors of a chosen estimator and the baseline."""

    estimator_kind: str
    selected_k: int | None
    split: int
    n_train: int
    n_test: int
    errors: np.ndarray
    baseline_errors: np.ndarray

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    @property
    def mean_baseline_error(self) -> float:
        return float(np.mean(self.baseline_errors))


def forecast_workflow(
    X,
    n_train: int,
    split: int,
    estimator_kind: str = "cholesky",
    k="auto",
    taper: TaperSpec | None = None,
    N: int = 50,
    n1: int | None = None,
    norm: str = "one_one",
    seed: int | None = None,
) -> ForecastOutcome:
    """Train on the leading rows, predict the back half of each test row.

    The chosen covariance estimator is fit on rows 0..n_train-1 (means =
    training column means); ``k="auto"`` selects the bandwidth for the
    banded/cholesky kinds by resampling on the training rows, which
    requires ``seed``.  Every test row's trailing p - split coordinates
    are predicted from its leading ones; per-coordinate mean absolute
    errors are returned for the chosen estimator and for the
    sample-covariance baseline.
    """
    X = as_data_matrix(X)
    n, p = X.shape
    if not 1 <= n_train < n:
        raise ValueError(f"n_train must be in 1..{n - 1}, got {n_train}")
    if not 1 <= split < p:
        raise ValueError(f"split must be in 1..{p - 1}, got {split}")
    with single_blas_thread():  # as in estimate_risk
        train = X[:n_train]
        test = X[n_train:]
        mu = train.mean(axis=0)

        selected_k: int | None = None
        if estimator_kind in ESTIMATOR_KINDS:
            if k == "auto":
                if seed is None:
                    raise ValueError("k='auto' requires a seed for the resampling splits")
                curve = estimate_risk(
                    train, estimator_kind=estimator_kind, N=N, n1=n1, norm=norm, seed=seed
                )
                selected_k = select_k(curve).k_hat
            else:
                selected_k = int(k)
        S_est = fit_covariance(train, estimator_kind, k=selected_k, taper=taper)

        errors = _prediction_errors(S_est, mu, split, test)
        baseline = _prediction_errors(fit_covariance(train, "sample"), mu, split, test)
    return ForecastOutcome(
        estimator_kind=estimator_kind,
        selected_k=selected_k,
        split=split,
        n_train=n_train,
        n_test=test.shape[0],
        errors=errors,
        baseline_errors=baseline,
    )


def _prediction_errors(S_est, mu, split, test):
    pm = partition_moments(mu, S_est, split)
    B = conditional_coefficients(pm)
    preds = pm.mu2[None, :] + (test[:, :split] - pm.mu1[None, :]) @ B.T
    return forecast_error(preds, test[:, split:])
