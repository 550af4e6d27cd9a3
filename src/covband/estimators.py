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
from numpy.lib.stride_tricks import as_strided

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


def cholesky_covariance_path(S, ks):
    """Iterator over the covariance estimates of the bandwidth-k Cholesky fit,
    one p x p array per k in ks, from the sample covariance ``S`` (as in
    :func:`fit_banded_cholesky`).

    Every regression is solved, and SingularDesign raised like the single
    fit, before this returns; the estimates are then built in chunks of at
    most 1 MiB (or one estimate), so memory is O(p^2), not O(len(ks) p^2).
    """
    coef, D = _band_regressions(require_symmetric(S, "S"), ks)
    step = max(1, _PATH_BYTES // (8 * D.shape[1] ** 2))
    return (
        Sigma
        for i in range(0, len(D), step)
        for Sigma in _covariance_from_band(coef[i : i + step], D[i : i + step])
    )


def factors_to_matrices(f: BandedCholeskyFactors) -> tuple[np.ndarray, np.ndarray]:
    """(precision, covariance) implied by fitted factors.

    precision = (I - A)' diag(1/D) (I - A), which is k-banded and positive
    definite; covariance is its inverse, built block by block from the
    band (never an explicit matrix inverse).
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
    return next(cholesky_covariance_path(sample_covariance(X), [k]))


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
    pivot tolerance.  The Gram blocks are copied from one strided view of
    S reversed and zero-padded; O(p K^3) flops, O(p K^2) memory.  Raises
    SingularDesign when a Gram block fails the Cholesky test or a residual
    variance is not positive.
    """
    p = S.shape[0]
    ks = np.asarray(ks, dtype=int)
    if ks.min() < 0:
        raise ValueError("bandwidths must be >= 0")
    K = min(int(ks.max()), p - 1)
    s_diag = np.diag(S)
    if K == 0:
        return np.zeros((ks.size, p, 0)), np.tile(s_diag, (ks.size, 1))
    # R[a, b] = S[p-1-a, p-1-b] with K zero rows and columns appended: the
    # Gram block of column j is R[p-j:p-j+K, p-j:p-j+K], and its covariances
    # with column j are R[p-j:p-j+K, p-j-1]
    R = np.zeros((p + K, p + K))
    R[:p, :p] = S[::-1, ::-1]
    row, step = R.strides
    G = as_strided(R[1:, 1:], (p, K, K), (row + step, row, step))[::-1].copy()
    c = as_strided(R[1:], (p, K), (row + step, row))[::-1]
    j, i = np.triu_indices(K)  # column j < K lacks its predecessors i >= j
    G[j, i, i] = np.where(j > 0, np.maximum.accumulate(s_diag[:K])[j - 1], 1.0)
    try:
        L = cholesky_factor(G)
    except NotPositiveDefinite as exc:
        raise SingularDesign(f"regressor Gram block failed the Cholesky test: {exc}") from None
    del G
    Linv = _tril_inverse(L)
    del L
    y = (Linv @ c[:, :, None])[:, :, 0]  # 0 on the padding: L is block diagonal there
    # row m of resid holds the size-m residual variances, m = 0..K, and
    # row m - 1 of the cumulated Linv rows the size-m coefficients
    resid = s_diag[:, None] - np.cumsum(np.pad(y * y, ((0, 0), (1, 0))), axis=1)
    if not np.all(resid[:, K] > 0):  # resid is nonincreasing in m
        bad = int(np.argmin(resid[:, K]))
        raise SingularDesign(
            f"residual variance of coordinate {bad + 1} is not positive "
            "(exactly collinear columns)"
        )
    Linv *= y[:, :, None]
    m = np.minimum(ks, K)
    coef = np.take(np.cumsum(Linv, axis=1, out=Linv), m - 1, axis=1, mode="clip")
    coef[:, m == 0] = 0.0
    return coef.transpose(1, 0, 2), resid[:, m].T


def _tril_inverse(L, out=None) -> np.ndarray:
    """Inverse of a stack (..., n, n) of lower-triangular matrices, written
    into ``out`` if given (it must start as zeros), by recursive 2 x 2 blocks
    on stacked matmuls only: inv([[A, 0], [C, B]]) = [[inv(A), 0],
    [-inv(B) C inv(A), inv(B)]], O(n^3 / 3) flops per matrix.  Entries above
    the diagonal are exactly 0.
    """
    if out is None:
        out = np.zeros(L.shape)
    n, h = L.shape[-1], L.shape[-1] // 2
    if n == 1:
        return np.divide(1.0, L, out=out)
    _tril_inverse(L[..., :h, :h], out[..., :h, :h])
    _tril_inverse(L[..., h:, h:], out[..., h:, h:])
    out[..., h:, :h] = -(out[..., h:, h:] @ (L[..., h:, :h] @ out[..., :h, :h]))
    return out


# rows per Sigma block; Sigma bytes per path chunk (of 0.25..16 MiB, 1 MiB
# was fastest at p = 102, K = 66: a chunk's work stacks stay in cache)
_BLOCK_ROWS = 32
_PATH_BYTES = 2**20


def _covariance_from_band(coef, D) -> np.ndarray:
    """inv(I - A) diag(D) inv(I - A)' for stacks of band coefficients
    (..., p, K) and residual variances (..., p).

    Built in blocks J of 32 rows from x_j = sum_l A[j, l] x_l + e_j.  With
    W = I - A and P the K rows before J, Y = inv(W_JJ) A_JP gives
    Sigma[J, :j0] = Y Sigma[P, :j0], and the diagonal block is
    Sigma[J, P] Y' + inv(W_JJ) D_J inv(W_JJ)'; its lower triangle is kept
    and every block is mirrored, so Sigma is exactly symmetric.  Every
    inv(W_JJ) and Y is one stacked call; the recursion is a matmul per
    block, O(p^2 K) flops per matrix, against O(p^3) for a full inverse.
    """
    *batch, p, K = coef.shape
    b = min(_BLOCK_ROWS, p)
    # window[..., J, t, t + u] = A[j0 + t, j0 + t - K + u] with j0 = J b:
    # block J's rows of A on columns j0 - K .. j0 + b, zero past row p
    window = np.zeros((*batch, -(-p // b), b, K + b))
    *outer, row, step = window.strides
    shifted = as_strided(window, window.shape[:-1] + (K,), (*outer, row + step, step))
    for J, j0 in enumerate(range(0, p, b)):
        shifted[..., J, : p - j0, :] = coef[..., j0 : j0 + b, ::-1]
    U = _tril_inverse(np.eye(b) - window[..., K:])
    Y = U @ window[..., :K]
    Sigma = np.empty((*batch, p, p))
    for J, j0 in enumerate(range(0, p, b)):
        j1, m = min(j0 + b, p), min(j0, K)
        UJ, YJ = U[..., J, : j1 - j0, : j1 - j0], Y[..., J, : j1 - j0, K - m :]
        lower = np.matmul(YJ, Sigma[..., j0 - m : j0, :j0], out=Sigma[..., j0:j1, :j0])
        Sigma[..., :j0, j0:j1] = np.swapaxes(lower, -1, -2)
        diag = Sigma[..., j0:j1, j0:j1]
        np.matmul(lower[..., j0 - m :], np.swapaxes(YJ, -1, -2), out=diag)
        diag += (UJ * D[..., None, j0:j1]) @ np.swapaxes(UJ, -1, -2)
        np.copyto(diag, np.swapaxes(diag, -1, -2), where=~np.tri(j1 - j0, dtype=bool))
    return Sigma
