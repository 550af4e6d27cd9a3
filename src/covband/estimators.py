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

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import BandwidthTooLarge, SingularDesign
from .matcore import (
    PD_PIVOT_RTOL,
    TaperSpec,
    band,
    load_data_csv,  # noqa: F401  (data CSV I/O lives here with save_data_csv)
    row_dots,
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


def fit_banded_cholesky(X, k: int) -> BandedCholeskyFactors:
    """Least-squares fit of the bandwidth-k Cholesky factors.

    For each coordinate j = 1..p, ordinary least squares of the (centered)
    column j on its min(k, j - 1) nearest predecessor columns; row j of A
    holds the coefficients and D[j] the residual variance with divisor n.
    Coordinate 1 gets the empty regression: zero coefficients and the
    sample variance of column 1.

    Solved on the rows by one order-recursive sweep over the bandwidths
    (:func:`_band_regressions`), with no normal equations.  Requires k <= n
    - 2 so the largest regression stays nondegenerate; SingularDesign when a
    regressor Gram block fails the package's Cholesky pivot rule or a
    residual variance is not positive.
    """
    coef, D = _band_regressions(X, [k])
    rows, i = np.nonzero(coef[0])
    A = np.zeros((D.shape[1], D.shape[1]))
    A[rows, rows - 1 - i] = coef[0, rows, i]
    return BandedCholeskyFactors(k=int(k), A=A, D=D[0])


def cholesky_covariance_path(X, ks):
    """Iterator over the covariance estimates of the bandwidth-k Cholesky fit,
    one p x p array per k in ks, from the (n, p) data matrix ``X`` (as in
    :func:`fit_banded_cholesky`).

    Every regression is solved, and SingularDesign raised like the single
    fit, before this returns; the estimates are then built in chunks of at
    most 1 MiB (or one estimate), so memory is O(p^2), not O(len(ks) p^2).
    A finished chunk is not kept: dropped estimates are freed at once.
    """
    coef, D = _band_regressions(X, ks)
    step = max(1, _PATH_BYTES // (8 * D.shape[1] ** 2))
    return itertools.chain.from_iterable(
        _covariance_from_band(coef[i : i + step], D[i : i + step])
        for i in range(0, len(D), step)
    )


def factors_to_matrices(f: BandedCholeskyFactors) -> tuple[np.ndarray, np.ndarray]:
    """(precision, covariance) implied by fitted factors.

    precision = (I - A)' diag(1/D) (I - A), which is k-banded and positive
    definite; covariance is its inverse, built block by block from the
    band (never an explicit matrix inverse).
    """
    p = f.D.size
    W = np.eye(p) - f.A
    precision = symmetrize(W.T @ (W / f.D[:, None]))
    j = np.arange(p)[:, None]
    pred = j - 1 - np.arange(min(f.k, p - 1))[None, :]  # nearest first
    coef = np.where(pred >= 0, f.A[j, pred], 0.0)
    return precision, _covariance_from_band(coef[None], f.D[None])[0]


def cholesky_banded_covariance(X, k: int) -> np.ndarray:
    """Covariance of the bandwidth-k Cholesky fit, built without A or the precision."""
    return next(cholesky_covariance_path(X, [k]))


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


def _band_regressions(X, ks) -> tuple[np.ndarray, np.ndarray]:
    """Band coefficients (len(ks), p, K) and residual variances (len(ks), p)
    of the bandwidth-k regressions on the centred columns of the data matrix
    X, for k in ks; X is validated and centred once, and 0 <= k <= n - 2.

    Order-recursive least squares on the rows, a sliding-window Gram-Schmidt
    (Levinson 1947; the lattice of Lee, Morf & Friedlander 1981).  After
    stage m, f_j is column j's residual on its m nearest predecessors and
    g_t column t's on its m successors.  Stage m takes every j >= m at once:
    with Delta = <f_j, g_(j-m)>, f_j -= Delta / |g|^2 g_(j-m) and g_(j-m) -=
    Delta / |f|^2 f_j (old f_j); the forward and backward coefficients
    (nearest first) update against each other reversed and take the two
    ratios as new last entries.  Columns j < m keep order j.  Squared norms
    are sums of squares, never differences.  K = min(max ks, p - 1) stages,
    O(n p K + p K^2) flops and O(p (n + K)) work memory.  |g_(j-m)|^2 / n is
    the m-th pivot of the Gram block of column j's predecessors, nearest
    first, so the package rule of :func:`~covband.matcore.cholesky_factor`
    holds: SingularDesign, before any division, when it is below
    PD_PIVOT_RTOL times the largest variance of those K predecessors, or a
    residual variance is not positive.
    """
    X, ks = as_data_matrix(X), np.asarray(ks, dtype=int)
    (n, p), K = X.shape, min(int(ks.max()), X.shape[1] - 1)
    if ks.min() < 0:
        raise ValueError("bandwidths must be >= 0")
    if ks.max() > n - 2:
        raise BandwidthTooLarge(f"bandwidth k={ks.max()} needs n >= k + 2 observations, got n={n}")
    rows = [[] for _ in range(K + 1)]  # the output rows of each bandwidth
    for i, k in enumerate(ks):
        rows[min(k, K)].append(i)
    # R[0, j] = f_j and R[1, t] = g_t, Q their squared norms, C their coefficients;
    # f_j and g_(j-m) sit m rows apart, paired by one view (_pairs)
    R = np.empty((2, p, n))
    np.subtract(X.T, X.mean(axis=0)[:, None], out=R[0])
    R[1] = R[0]
    Q = row_dots(R, R)
    tol = PD_PIVOT_RTOL * sliding_window_view(np.pad(Q[0], (K, 0)), K + 1)[:, :K].max(
        axis=1, initial=0.0)  # of column j, from its predecessors j - K .. j - 1
    coef, D, C = np.zeros((ks.size, p, K)), np.empty((ks.size, p)), np.zeros((2, p, K))
    for m in range(K + 1):
        if m:
            r, q, c = (_pairs(M, m) for M in (R, Q, C))
            if not (q[1] >= tol[m:]).all():
                j = m + int(np.argmin(q[1] >= tol[m:]))
                raise SingularDesign(f"coordinate {j + 1}: pivot {m} below tolerance")
            kappa = row_dots(r[0], r[1]) / q[::-1]  # Delta / |g|^2, Delta / |f|^2
            r -= r[::-1] * kappa[..., None]
            q[...] = row_dots(r, r)
            c[..., : m - 1] -= c[::-1, :, : m - 1][..., ::-1] * kappa[..., None]
            c[..., m - 1] = kappa
        if K and not (Q[0] > 0).all():
            j = int(np.argmin(Q[0] > 0))
            raise SingularDesign(f"coordinate {j + 1}: residual variance {Q[0, j] / n} <= 0")
        for i in rows[m]:
            coef[i], D[i] = C[0], Q[0]
    return coef, np.divide(D, n, out=D)


def _pairs(M, m) -> np.ndarray:
    """The view of a C-contiguous (2, p, ...) M whose row i pairs M[0, m + i] with M[1, i]."""
    shape = (2, M.shape[1] - m, *M.shape[2:])
    strides = (M.strides[0] - m * M.strides[1], *M.strides[1:])
    return np.ndarray(shape, M.dtype, M, m * M.strides[1], strides)


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
