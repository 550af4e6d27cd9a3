"""Regularized covariance estimators.

Three estimators of a p x p covariance from an (n, p) data matrix; these and
``sample`` are the :data:`ESTIMATORS` that :func:`fit_covariance` fits by name:

* ``banded_covariance`` -- zero the sample covariance beyond bandwidth k;
* ``tapered_covariance`` -- Schur-multiply the sample covariance by a
  positive-definite taper weight matrix;
* ``fit_banded_cholesky`` -- regress each coordinate on its k nearest
  predecessors and reassemble covariance/precision from the modified
  Cholesky identity ``inv(Sigma) = (I - A)' D^-1 (I - A)``.

The sample covariance uses divisor n (not n - 1) and always centers by the
column means; the banded Cholesky residual variances use the same divisor
so that the full-bandwidth fit reproduces the sample covariance exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooLarge, NotPositiveDefinite, SingularDesign
from .matcore import (
    TaperSpec,
    band,
    cholesky_factor,
    load_data_csv,  # noqa: F401  (data CSV I/O lives here with save_data_csv)
    require_symmetric,
    schur_product,
    symmetrize,
    taper_weights,
)

ESTIMATORS = ("sample", "banded", "tapered", "cholesky")


def as_data_matrix(X, name: str = "data") -> np.ndarray:
    """Validate an (n, p) data matrix: 2-D, nonempty, finite."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D (rows = observations), got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have n >= 1 and p >= 1, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def sample_covariance(X) -> np.ndarray:
    """Sample covariance with divisor n, columns centered by their means;
    exactly symmetric, as numpy runs ``Xc.T @ Xc`` as one BLAS ``syrk``."""
    A = as_data_matrix(X)
    n = A.shape[0]
    Xc = A - A.mean(axis=0)
    return Xc.T @ Xc / n


def banded_covariance(X, k: int) -> np.ndarray:
    """Sample covariance with all entries beyond bandwidth k zeroed.

    Not guaranteed positive definite; use a smooth taper when positive
    definiteness matters.
    """
    return band(sample_covariance(X), k)


def tapered_covariance(X, t: TaperSpec) -> np.ndarray:
    """Sample covariance Schur-multiplied by the taper weight matrix of ``t``."""
    S = sample_covariance(X)
    return schur_product(S, taper_weights(t, S.shape[0]))


@dataclass(frozen=True)
class BandedCholeskyFactors:
    """Fitted factors of the bandwidth-k modified Cholesky decomposition.

    ``A`` is p x p strictly lower triangular holding the regression
    coefficients of each coordinate on its (up to) k nearest predecessors;
    entries outside that band are zero.  ``D`` is the length-p vector of
    positive residual variances (the diagonal of the D matrix).
    """

    k: int
    A: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        D = np.asarray(self.D, dtype=float)
        p = A.shape[0]
        if A.shape != (p, p):
            raise ValueError("A must be square")
        if D.shape != (p,):
            raise ValueError("D must be a length-p vector of residual variances")
        i, j = np.nonzero(A)
        if np.any(j >= i) or np.any(j < i - self.k):
            raise ValueError(f"A has entries outside the strict lower band of width {self.k}")
        if not np.all(D > 0):
            raise ValueError("all residual variances must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def fit_banded_cholesky(X, k: int) -> BandedCholeskyFactors:
    """Least-squares fit of the bandwidth-k Cholesky factors.

    For each coordinate j = 1..p, ordinary least squares of the (centered)
    column j on its min(k, j - 1) nearest predecessor columns; row j of A
    holds the coefficients and D[j] the residual variance with divisor n.
    Coordinate 1 gets the empty regression: zero coefficients and the
    sample variance of column 1.

    Solved through the sample covariance: the coefficients are the
    normal-equation solution on the corresponding covariance block, and
    the residual variance is the Schur complement.  Requires k <= n - 2 so
    the largest regression stays nondegenerate.
    """
    X, k = _cholesky_input(X, k)
    coef, D = _band_regressions(sample_covariance(X), [k])
    rows, i = np.nonzero(coef[0])
    A = np.zeros((X.shape[1], X.shape[1]))
    A[rows, rows - 1 - i] = coef[0, rows, i]
    return BandedCholeskyFactors(k=k, A=A, D=D[0])


def cholesky_covariance_path(S, ks) -> np.ndarray:
    """Covariance estimates of the bandwidth-k Cholesky fit, for every k in ks.

    ``S`` is the sample covariance the regressions are solved from (as in
    :func:`fit_banded_cholesky`); returns the (len(ks), p, p) stack of the
    implied covariances.  Raises SingularDesign like the single fit.
    """
    return _covariance_from_band(*_band_regressions(require_symmetric(S, "S"), ks))


def factors_to_matrices(f: BandedCholeskyFactors) -> tuple[np.ndarray, np.ndarray]:
    """(precision, covariance) implied by fitted factors.

    precision = (I - A)' diag(1/D) (I - A), which is k-banded and positive
    definite; covariance is its inverse, built row by row from the band
    (never an explicit matrix inverse).
    """
    p = f.dim
    W = np.eye(p) - f.A
    precision = symmetrize(W.T @ (W / f.D[:, None]))
    j = np.arange(p)[:, None]
    pred = j - 1 - np.arange(min(f.k, p - 1))[None, :]  # nearest first
    coef = np.where(pred >= 0, f.A[j, pred], 0.0)
    return precision, _covariance_from_band(coef[None], f.D[None])[0]


def cholesky_banded_covariance(X, k: int) -> np.ndarray:
    """Covariance of the bandwidth-k Cholesky fit, built without A or the precision."""
    X, k = _cholesky_input(X, k)
    return cholesky_covariance_path(sample_covariance(X), [k])[0]


def fit_covariance(X, kind, k: int | None = None, taper: TaperSpec | None = None) -> np.ndarray:
    """Covariance estimate of the estimator named ``kind`` in :data:`ESTIMATORS`;
    ``banded`` and ``cholesky`` need ``k``, ``tapered`` needs ``taper``."""
    if kind not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {kind!r}")
    if kind == "sample":
        return sample_covariance(X)
    if kind == "tapered":
        if taper is None:
            raise ValueError("--estimator tapered requires --taper FAMILY:SCALE")
        return tapered_covariance(X, taper)
    if k is None:
        raise ValueError(f"--estimator {kind} requires --k")
    if kind == "banded":
        return banded_covariance(X, k)
    return cholesky_banded_covariance(X, k)


def save_data_csv(path, X) -> None:
    """Write an (n, p) data matrix as CSV (no header)."""
    np.savetxt(path, as_data_matrix(X), delimiter=",", fmt="%.17g")


# ---------------------------------------------------------------------------
# Cholesky-banding machinery.
#
# Band coefficients are stored nearest first: coef[..., j, i] is the
# coefficient of coordinate j on its predecessor j - 1 - i, so a
# bandwidth-m regression fills the leading m entries of its row.
# ---------------------------------------------------------------------------


def _cholesky_input(X, k) -> tuple[np.ndarray, int]:
    """Validated data matrix and bandwidth of a Cholesky fit, 0 <= k <= n - 2."""
    X = as_data_matrix(X)
    k, n = int(k), X.shape[0]
    if k < 0:
        raise ValueError("bandwidth k must be >= 0")
    if k > n - 2:
        raise BandwidthTooLarge(f"bandwidth k={k} needs n >= k + 2 observations, got n={n}")
    return X, k


def _band_regressions(S, ks) -> tuple[np.ndarray, np.ndarray]:
    """Band coefficients (len(ks), p, K) and residual variances (len(ks), p)
    of the bandwidth-k regressions implied by covariance S, for k in ks.

    Each column's Gram block G of its K = max(ks) nearest predecessors,
    nearest first, is factored once as G = L L'.  The leading m x m block
    of L is the factor of the m-nearest Gram block, so with y = inv(L) c
    (c the covariances of the column with those predecessors) the size-m
    residual variance is S_jj - sum(y[:m]**2) and the coefficients are
    inv(L[:m, :m])' y[:m]: one factorization per column serves every
    bandwidth.  Columns with fewer than K predecessors are padded with a
    scaled identity, which changes neither their regressions nor their
    pivot tolerance.  Raises SingularDesign when a Gram block fails the
    Cholesky test or a residual variance is not positive.
    """
    p = S.shape[0]
    ks = np.asarray(ks, dtype=int)
    if ks.min() < 0:
        raise ValueError("bandwidths must be >= 0")
    K = min(int(ks.max()), p - 1)
    s_diag = np.diag(S)
    if K == 0:
        return np.zeros((ks.size, p, 0)), np.tile(s_diag, (ks.size, 1))
    j = np.arange(p)[:, None]
    pred = j - np.arange(1, K + 1)[None, :]
    real = pred >= 0
    pred = np.where(real, pred, 0)
    G = np.where(real[:, :, None] & real[:, None, :], S[pred[:, :, None], pred[:, None, :]], 0.0)
    pad = np.max(np.where(real, s_diag[pred], 0.0), axis=1, initial=0.0)
    pad[0] = 1.0  # the first column has no predecessors at all
    G[:, np.arange(K), np.arange(K)] += np.where(real, 0.0, pad[:, None])
    c = np.where(real, S[pred, j], 0.0)
    try:
        L = cholesky_factor(G)
    except NotPositiveDefinite as exc:
        raise SingularDesign(f"regressor Gram block failed the Cholesky test: {exc}") from None
    Linv = np.tril(np.linalg.inv(L))
    y = np.where(real, np.einsum("jlm,jm->jl", Linv, c), 0.0)  # padding stays exactly 0
    # row m of resid and of coef holds the size-m regressions, m = 0..K
    resid = s_diag[:, None] - np.cumsum(np.pad(y * y, ((0, 0), (1, 0))), axis=1)
    coef = np.cumsum(np.pad(Linv * y[:, :, None], ((0, 0), (1, 0), (0, 0))), axis=1)
    if not np.all(resid[:, K] > 0):  # resid is nonincreasing in m
        bad = int(np.argmin(resid[:, K]))
        raise SingularDesign(
            f"residual variance of coordinate {bad + 1} is not positive "
            "(exactly collinear columns)"
        )
    m = np.minimum(ks, K)
    return coef[:, m, :].transpose(1, 0, 2), resid[:, m].T


def _covariance_from_band(coef, D) -> np.ndarray:
    """inv(I - A) diag(D) inv(I - A)' for stacks of band coefficients
    (..., p, K) and residual variances (..., p).

    Built row by row from x_j = sum_l A[j, l] x_l + e_j: for i < j,
    Sigma[j, i] = sum_l A[j, l] Sigma[l, i], and Sigma[j, j] adds D[j].
    That costs O(p^2 K) per matrix, against O(p^3) for a triangular inverse.
    """
    *batch, p, K = coef.shape
    Sigma = np.zeros((*batch, p, p))
    farthest_first = np.ascontiguousarray(coef[..., ::-1])
    for j in range(p):
        m = min(j, K)
        a = farthest_first[..., j, K - m :]
        row = np.einsum("...i,...ij->...j", a, Sigma[..., j - m : j, :j])
        Sigma[..., j, :j] = row
        Sigma[..., :j, j] = row
        Sigma[..., j, j] = D[..., j] + np.einsum("...i,...i->...", a, row[..., j - m : j])
    return Sigma
