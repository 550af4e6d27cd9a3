"""Bandwidth selection by resampling, plus oracle and rate diagnostics.

The data-driven bandwidth is picked by splitting the sample N times at
random into groups of size n1 and n2, fitting the regularized estimator on
group 1, measuring its distance to the plain sample covariance of group 2,
averaging over splits, and minimizing over the bandwidth grid
(:func:`estimate_risk` / :func:`select_k`).  In the operator norm each
loss is a three-term Lanczos iteration from the same fixed start vector.
Narrow bands (2k + 1 <= p / 2) advance together, 16 consecutive bandwidths
at a time, and never form a p x p matrix: S1 is held in one band storage
built from the split rows, S2 applied as a low-rank product, and each band
carries two Lanczos vectors.  Wider bands and the Cholesky estimates each
take a dense difference, one at a time.
``numpy.linalg.eigvalsh`` is the answer for small matrices and for an
iteration that does not converge.

Two oracle quantities calibrate that choice: :func:`oracle_k1` minimizes
the realized loss of one sample against the true covariance, and
:func:`oracle_k0` minimizes the Monte Carlo expected loss over fresh
datasets from a known model.  :func:`theoretical_bandwidth` evaluates the
asymptotic bandwidth rate as a diagnostic; nothing consumes it
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import BandwidthTooLarge, DataFormatError, InsufficientData
from .estimators import as_data_matrix, cholesky_covariance_path
from .matcore import (
    band_path,
    matrix_norm,
    read_table,
    require_symmetric,
    row_dots,
    single_blas_thread,
    write_table,
)
from .simgen import CovarianceModel, build_covariance, sample_gaussian, substream

ESTIMATOR_KINDS = ("banded", "cholesky")
_INT64_MAX = np.iinfo(np.int64).max
SELECTION_NORMS = ("one_one", "operator")


@dataclass(frozen=True)
class RiskCurve:
    """Estimated risk per bandwidth, with the resampling metadata.

    For resampling curves ``N``, ``n1``, ``n2`` and ``seed`` record the
    split scheme; oracle loss curves carry ``None`` there, since no split
    is involved.
    """

    k_grid: np.ndarray
    risk: np.ndarray
    estimator_kind: str
    N: int | None
    n1: int | None
    n2: int | None
    norm: str
    seed: int | None

    def __post_init__(self):
        k = np.asarray(self.k_grid, dtype=int)
        r = np.asarray(self.risk, dtype=float)
        if k.ndim != 1 or r.shape != k.shape or k.size == 0:
            raise ValueError("k_grid and risk must be 1-D arrays of equal positive length")
        if np.any(np.diff(k) <= 0) or k[0] < 0:
            raise ValueError("k_grid must be strictly ascending nonnegative integers")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError("risk values must be finite and >= 0")
        check_kind_norm(self.estimator_kind, self.norm)
        if self.N is not None:
            if self.N < 1:
                raise ValueError("N must be >= 1")
            if self.n1 is None or self.n2 is None or self.n1 < 2 or self.n2 < 2:
                raise ValueError("split sizes n1, n2 must both be >= 2")
        k.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "risk", r)


@dataclass(frozen=True)
class SelectionResult:
    """A selected bandwidth together with the curve it minimizes."""

    k_hat: int
    curve: RiskCurve

    def __post_init__(self):
        ks = self.curve.k_grid
        if self.k_hat not in ks:
            raise ValueError("k_hat must lie on the curve's grid")
        if self.curve.risk[np.searchsorted(ks, self.k_hat)] != self.curve.risk.min():
            raise ValueError("k_hat must attain the minimum risk")


def check_kind_norm(kind, norm) -> None:
    """Raise ValueError unless ``kind`` is in ESTIMATOR_KINDS and ``norm`` in SELECTION_NORMS."""
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"estimator_kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    if norm not in SELECTION_NORMS:
        raise ValueError(f"norm must be one of {SELECTION_NORMS}, got {norm!r}")


def default_k_grid(p: int, estimator_kind: str, n_fit: int) -> np.ndarray:
    """0..p-1 for the banded estimator; capped at n_fit - 2 for cholesky."""
    hi = p - 1 if estimator_kind == "banded" else min(p - 1, n_fit - 2)
    return np.arange(0, max(hi, 0) + 1)


def log_split_size(n: int) -> int:
    """The alternative first-split size floor(n (1 - 1/log n)) for large n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return int(np.floor(n * (1.0 - 1.0 / np.log(n))))


def estimate_risk(
    X,
    k_grid=None,
    estimator_kind: str = "banded",
    N: int = 50,
    n1: int | None = None,
    norm: str = "one_one",
    seed: int = 0,
) -> RiskCurve:
    """Resampling estimate of the bandwidth risk.

    For each of N independent splits, the rows of X are partitioned
    uniformly at random into groups of sizes n1 and n - n1; the estimator
    of the given kind is fit at every bandwidth on group 1 and its
    distance to the sample covariance of group 2 is recorded in the chosen
    norm.  Risks are averaged over splits.

    Split nu draws from the RNG substream (seed, nu), so the curve is a
    deterministic function of (X, parameters, seed).  n1 defaults to
    floor(n / 3); for the cholesky kind every bandwidth must satisfy
    k <= n1 - 2 (regressions on group 1 stay nondegenerate).
    """
    X = as_data_matrix(X)
    n, p = X.shape
    if n1 is None:
        n1 = n // 3
    n1 = int(n1)
    n2 = n - n1
    if n1 < 2 or n2 < 2:
        raise InsufficientData(f"both split groups need >= 2 rows, got n1={n1}, n2={n2}")
    if N < 1:
        raise ValueError("N must be >= 1")
    check_kind_norm(estimator_kind, norm)
    ks = _check_k_grid(k_grid, p, estimator_kind, n1, "n1")

    total = np.zeros(ks.size)
    split_loss_curve = _split_loss_curve(p, ks, estimator_kind, norm)
    # Every curve runs on one BLAS thread, each Gram product of the split
    # data included (all rows at once, row blocks, band storage, or the
    # low-rank products of the operator-norm curve):
    # a second thread does not speed up those products, and after each
    # threaded one an idle OpenBLAS thread spins for about 0.1 s, which
    # doubled the CPU time of the banded (1,1) and operator-norm curves.
    with single_blas_thread():
        for nu in range(N):
            perm = substream(seed, nu).permutation(n)
            total += split_loss_curve(_Gram(X[perm[:n1]]), _Gram(X[perm[n1:]]))
    return RiskCurve(
        k_grid=ks,
        risk=total / N,
        estimator_kind=estimator_kind,
        N=int(N),
        n1=n1,
        n2=n2,
        norm=norm,
        seed=int(seed),
    )


def select_k(curve: RiskCurve) -> SelectionResult:
    """Smallest bandwidth attaining the minimum of the curve."""
    idx = int(np.argmin(curve.risk))  # argmin returns the first minimum; grid ascends
    return SelectionResult(k_hat=int(curve.k_grid[idx]), curve=curve)


def oracle_k1(X, truth, k_grid=None, estimator_kind: str = "banded",
              norm: str = "one_one") -> SelectionResult:
    """Best bandwidth for this sample, judged against the true covariance.

    Returns the argmin (smallest-k tie-break) of the realized loss curve
    k -> ||estimate_k(X) - truth||.
    """
    X = as_data_matrix(X)
    n, p = X.shape
    truth = require_symmetric(truth, "truth")
    if truth.shape != (p, p):
        raise ValueError(f"truth must be {p} x {p}, got {truth.shape}")
    check_kind_norm(estimator_kind, norm)
    ks = _check_k_grid(k_grid, p, estimator_kind, n, "n")
    with single_blas_thread():  # see estimate_risk
        losses = _split_loss_curve(p, ks, estimator_kind, norm)(_Gram(X), _Dense(truth))
    curve = RiskCurve(
        k_grid=ks, risk=losses, estimator_kind=estimator_kind,
        N=None, n1=None, n2=None, norm=norm, seed=None,
    )
    return select_k(curve)


def oracle_k0(
    model: CovarianceModel,
    n: int,
    p: int,
    k_grid=None,
    reps: int = 100,
    estimator_kind: str = "banded",
    norm: str = "one_one",
    seed: int = 0,
) -> tuple[int, np.ndarray]:
    """Monte Carlo oracle bandwidth for a known model.

    Averages the realized loss curve over ``reps`` independent datasets of
    n rows drawn from the model (dataset r uses substream (seed, r)) and
    returns the argmin bandwidth together with the mean loss per grid
    point.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    Sigma = build_covariance(model, p)
    curves = [
        oracle_k1(
            sample_gaussian(Sigma, n, np.random.SeedSequence([int(seed), r])),
            Sigma, k_grid, estimator_kind, norm,
        ).curve
        for r in range(reps)
    ]
    mean_loss = np.mean([c.risk for c in curves], axis=0)
    return int(curves[0].k_grid[int(np.argmin(mean_loss))]), mean_loss


def theoretical_bandwidth(n: int, p: int, alpha: float) -> int:
    """The asymptotic bandwidth rate (log p / n)^(-1/(2 (alpha + 1))).

    Evaluated with proportionality constant 1, rounded half away from
    zero, floored at 1.  alpha is the off-diagonal decay exponent of the
    covariance class.  Diagnostic only.
    """
    if n < 2 or p < 2:
        raise ValueError("need n >= 2 and p >= 2")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    value = (np.log(p) / n) ** (-1.0 / (2.0 * (alpha + 1.0)))
    return max(1, int(np.floor(value + 0.5)))


def write_risk_curve(path, curve: RiskCurve, k_hat: int | None = None) -> None:
    """Write a curve as CSV with header ``k,risk``; append ``# k_hat=...``
    as a trailing comment when a selection is supplied."""
    trailer = () if k_hat is None else (f"k_hat={int(k_hat)}",)
    write_table(path, "k,risk", zip(curve.k_grid, curve.risk), trailer=trailer)


def read_risk_curve(path) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Parse a risk-curve CSV back into (k_grid, risk, k_hat or None).

    A malformed line, or a row that :class:`RiskCurve` would refuse (a k
    that does not ascend or does not fit int64, a risk that is not finite
    and >= 0), raises :class:`DataFormatError` naming the file and line.
    """
    ks, rs, k_hat = [], [], None
    for lineno, line, comment in read_table(path, "k,risk"):
        try:
            if comment and "k_hat=" in line:
                k_hat = int(line.split("k_hat=")[1])
            elif not comment:
                k, r = line.split(",")
                k, r = int(k), float(r)
                if not (ks[-1] if ks else -1) < k <= _INT64_MAX or not 0.0 <= r < np.inf:
                    raise DataFormatError(f"{path}:{lineno}: {line!r} needs a 64-bit k above "
                                          "the previous k (or >= 0) and a finite risk >= 0")
                ks.append(k)
                rs.append(r)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed line {line!r}") from None
    return np.asarray(ks, dtype=int), np.asarray(rs, dtype=float), k_hat


# ---------------------------------------------------------------------------
# Loss curves over a bandwidth grid.
# ---------------------------------------------------------------------------


def _split_loss_curve(p, ks, estimator_kind, norm):
    """The function (fit, target) -> ||estimate_k - T|| for every k in ks,
    the estimator fit on the symmetric p x p matrix S.

    ``fit`` and ``target`` are sources of S and T: :class:`_Gram` of a split
    part, or :class:`_Dense` of the truth that ``oracle_k1`` has checked.
    Banded (1,1) curves take both in row blocks along diagonals.  Banded
    operator-norm curves with p >= ``_LANCZOS_MIN_P`` take the bandwidths
    with 2k + 1 <= p / 2 matrix free (:func:`_operator_band_curve`, T as a
    product), in lockstep groups.  Every other bandwidth and curve takes all
    rows of T and one estimate per bandwidth, from ``band_path`` of all rows
    of S or from ``cholesky_covariance_path`` of the centred rows, its loss
    taken alone (:func:`_dense_curve`).  Callers run it on one BLAS thread,
    every Gram product included.
    """
    if estimator_kind == "banded" and norm == "one_one":
        return _one_one_band_curve(p, ks)
    if estimator_kind == "banded" and p >= _LANCZOS_MIN_P:
        # wider bands are faster as dense differences, whose products are BLAS
        narrow = int(np.searchsorted(ks, (p // 2 - 1) // 2, side="right"))
        parts = [_operator_band_curve(p, ks[:narrow])] if narrow else []
        if narrow < ks.size:
            parts.append(_dense_curve(p, ks[narrow:], estimator_kind, norm))
        return lambda fit, target: np.concatenate([part(fit, target) for part in parts])
    return _dense_curve(p, ks, estimator_kind, norm)


def _dense_curve(p, ks, estimator_kind, norm):
    """The function (fit, target) -> ||E_k - T|| over the estimates E_k of
    the given kind, from all rows of T, one estimate at a time: banded from
    all rows of S, Cholesky from the centred rows of ``fit``."""

    def curve(fit, target):  # all rows, each into one new array (out=None would make two)
        T = target(slice(None), np.empty((p, p)))
        estimates = (band_path(fit(slice(None), np.empty((p, p))), ks)
                     if estimator_kind == "banded" else cholesky_covariance_path(fit.A, ks))

        def loss(E):  # E is a fresh array, so it can hold its own difference
            D = np.subtract(E, T, out=E)
            if norm == "one_one":
                return float(np.max(np.sum(np.abs(D, out=D), axis=0)))
            return _lanczos_norms(D[None], _dense_products, lambda op: op, p)[0]
        # map holds no estimate past its loss, so each is freed before the next is built
        return np.fromiter(map(loss, estimates), float, ks.size)
    return curve


class _Gram:
    """The sample covariance S = A'A / n of the data X, A centred, never
    formed whole.  Called as ``(J, out)`` it writes rows J of S into ``out``
    as A[:, J].T @ A / n (for all rows numpy runs one ``syrk``, the bytes of
    ``sample_covariance(X)``); ``band(K)`` is S in band storage;
    ``apply(V)`` is the stack of products S v for the rows v of V, (V A') A
    / n; the rows of A feed the Cholesky fit."""

    def __init__(self, X):
        self.A = X - X.mean(axis=0)

    def __call__(self, J, out):
        return np.divide(np.matmul(self.A[:, J].T, self.A, out=out), len(self.A), out=out)

    def band(self, K):
        """The p x (2K + 1) array whose row j is S[j, j - K .. j + K], zero
        past the matrix edge (band storage: Golub & Van Loan, *Matrix
        Computations*, 4.3): one batched product of each column of A with
        the window of 2K + 1 columns around it, A' zero-padded by K rows."""
        n, p = self.A.shape
        padded = np.zeros((p + 2 * K, n))
        padded[K: K + p] = self.A.T
        out = np.matmul(padded[K: K + p, None], sliding_window_view(padded, 2 * K + 1, axis=0))
        return np.divide(out[:, 0], n, out=out[:, 0])

    def apply(self, V):
        out = (V @ self.A.T) @ self.A
        return np.divide(out, len(self.A), out=out)


class _Dense:
    """A symmetric p x p array M as a source: rows J as a view, and ``apply(V)`` = V M."""

    def __init__(self, M):
        self.M = M

    def __call__(self, J, out):
        return self.M[J]

    def apply(self, V):
        return V @ self.M


def _dense_products(V, D):
    """Row i is D[i] @ V[i], for a stack D of symmetric matrices."""
    return np.matmul(D, V[:, :, None])[:, :, 0]


# Lanczos operator norm: eigvalsh below _LANCZOS_MIN_P and after
# _LANCZOS_MAX_STEPS steps without convergence (those splits took 48..56
# steps at p = 400 and at p = 1000).  The threshold is where lockstep groups
# of narrow bands pulled ahead (AR(1) splits, n = 100, one thread, 2 vCPUs):
# at p = 128 / 144, k <= 29 took 30 / 32 ms per split against 36 / 45 ms for
# eigvalsh.  A dense difference alone gains only from p ~ 192: at p = 144 all
# k took 175 ms against 131, cholesky k <= 31 51 ms against 36 to 44.
_LANCZOS_MIN_P = 144
_LANCZOS_MAX_STEPS = 160
# each convergence test is a dense eigh of T, so test sparsely
_LANCZOS_FIRST_TEST = 24
_LANCZOS_TEST_EVERY = 8
_RITZ_RTOL = 1e-13
_BREAKDOWN_RTOL = 1e-13
# Consecutive narrow bandwidths that advance through one Lanczos iteration
_LANCZOS_GROUP = 16


def _lanczos_norms(ops, apply, dense, p):
    """max |eigenvalue| of each symmetric p x p operator of a group, by
    Lanczos iterations that advance in lockstep.

    ``ops`` labels the operators along its first axis (a group's
    bandwidths, or a stack of dense differences), ``apply(V, ops)`` is a
    new array whose row i is operator ``ops[i]`` applied to V[i], and
    ``dense(op)`` the p x p array of one operator.  Each step is one
    call of ``apply`` and a few batched numpy calls for the whole group.
    Its own arithmetic is row by row, so with an ``apply`` that is too (one
    product per operator, as for dense differences) an operator's value
    does not depend on its group, bit for bit.

    The three-term Lanczos recurrence (Lanczos 1950) beta_j q_{j+1} = A q_j
    - alpha_j q_j - beta_{j-1} q_{j-1}, from one fixed pseudo-random start
    vector per dimension, so each value is a function of its operator alone;
    an operator carries only q_j and q_{j-1}.  Nothing is reorthogonalized:
    in floating point the q_j lose orthogonality only as Ritz values
    converge, which adds copies of those values and leaves each within its
    residual of an eigenvalue (Paige, *Lin. Alg. Appl.* 34, 1980).  The
    start is never ``ones``: the Toeplitz truths have skew-symmetric
    eigenvectors, which are orthogonal to it.  Convergence is tested on both
    extreme Ritz values theta_min and theta_max of the tridiagonal T, with
    top = max |theta|.  Each lies within its residual r = beta_m |s_m| of an
    eigenvalue of the operator (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 13).  The end that gives top must have r <= ``_RITZ_RTOL`` * top.
    The other end only needs r <= top - |theta|, so that its eigenvalue
    cannot exceed top; a test of the top end alone could stop at lambda_max
    = 10 when lambda_min is -10.5.  The quadratic bound r**2 / gap is not
    used: the gap to the neighbouring Ritz value overstates the true gap
    while a close pair of extreme eigenvalues is still unresolved.  A beta
    below ``_BREAKDOWN_RTOL`` times the largest |alpha| or beta seen means
    the Krylov space is invariant, and its Ritz values are exact.  Finished
    operators leave the group at the tests (the only copies of ``ops``, so a
    lone operator is never copied); small operators and those that reach
    the step cap get the ``eigvalsh`` value of ``dense(op)`` instead.
    Its callers run it on one BLAS thread, which at p=400 does these
    products as fast as two.
    """
    if p < _LANCZOS_MIN_P:
        return np.array([matrix_norm(dense(op), "operator") for op in ops])
    m_max = min(p, _LANCZOS_MAX_STEPS)
    norms = np.empty(len(ops))
    live = np.arange(len(ops))  # group positions of the unfinished operators
    start = np.random.default_rng(p).standard_normal(p)
    q = np.tile(start / np.sqrt(start @ start), (len(ops), 1))
    alpha, beta = np.empty((2, len(ops), m_max))
    scale = np.zeros(len(ops))  # largest |alpha| or beta so far, a lower bound on the norm
    for j in range(m_max):
        w = apply(q, ops)
        a = alpha[:, j] = row_dots(q, w)
        w -= a[:, None] * q
        if j:
            w -= beta[:, j - 1, None] * q_prev
        b = beta[:, j] = np.sqrt(row_dots(w, w))
        np.maximum(scale, np.maximum(np.abs(a), b), out=scale)
        m = j + 1
        invariant = b <= _BREAKDOWN_RTOL * scale
        test = m >= _LANCZOS_FIRST_TEST and (m - _LANCZOS_FIRST_TEST) % _LANCZOS_TEST_EVERY == 0
        if test or np.count_nonzero(invariant):
            at = slice(None) if test else invariant
            off = beta[at, : m - 1]
            T = np.zeros((len(off), m, m))
            i = np.arange(m)
            T[:, i, i] = alpha[at, :m]
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = off
            theta, s = np.linalg.eigh(T)
            ends = np.abs(theta[:, [0, -1]])
            top = ends.max(axis=1)
            r = b[at, None] * np.abs(s[:, -1, [0, -1]])
            done = np.zeros(len(live), dtype=bool)
            done[at] = invariant[at] | np.all(
                r <= np.maximum(_RITZ_RTOL * top[:, None], top[:, None] - ends), axis=1)
            norms[live[done]] = top[done[at]]
            if done.all():
                return norms
            if done.any():
                live, q, w, alpha, beta, scale, ops = (
                    x[~done] for x in (live, q, w, alpha, beta, scale, ops))
        q_prev, q = q, np.divide(w, beta[:, j, None], out=w)
    for i, op in zip(live, ops):
        norms[i] = matrix_norm(dense(op), "operator")
    return norms


def _operator_band_curve(p, ks):
    """The function (fit, target) -> ||B_k(S) - T||_2 for every k in ks
    (all below p - 1), by :func:`_lanczos_norms` on the maps v -> B_k(S) v
    - T v.

    S is taken once per split as ``fit.band(K)``, K = max k, straight from
    the split rows, so S is never formed whole.  B_k(S) v is the row-wise
    product of the middle 2k + 1 columns of that storage with a strided
    window of v zero-padded by K, one ``row_dots`` call per operator, and T
    v comes from ``target.apply`` (low rank for a split part), one batched
    product per group of ``_LANCZOS_GROUP`` consecutive bandwidths, so a
    value can move in the last bits with its group.  ``eigvalsh`` needs the
    dense B_k(S) - T, which is built from all rows of S for that operator
    alone.
    """
    K = int(ks[-1])

    def curve(fit, target):
        S = fit.band(K)
        padded = np.zeros((_LANCZOS_GROUP, p + 2 * K))  # row i holds V[i] after K zeros
        windows = sliding_window_view(padded, 2 * K + 1, axis=1)  # [i, t] = V[i, t - K .. t + K]

        def dense(k):  # B_k(S) - T for one operator that reached the step cap
            E = next(band_path(fit(slice(None), np.empty((p, p))), [k]))
            return E - target(slice(None), np.empty((p, p)))

        def products(V, kg):
            padded[: len(V), K: K + p] = V
            out = np.empty_like(V)
            for i, k in enumerate(kg):
                out[i] = row_dots(windows[i, :, K - k: K + k + 1], S[:, K - k: K + k + 1])
            out -= target.apply(V)
            return out

        return np.concatenate([_lanczos_norms(ks[g: g + _LANCZOS_GROUP], products, dense, p)
                               for g in range(0, ks.size, _LANCZOS_GROUP)])
    return curve


def _diagonal_windows(M, rows, width):
    """The view whose row t is M[t, t : t + width]."""
    r, c = M.strides
    return as_strided(M, (rows, width), (r + c, c), writeable=False)


# Bytes of the (1,1) curve's Delta buffer, which set its row block: b = 65
# rows at p = 1000, one block up to p = 256.  A p = 1000 split took 21.8,
# 18.7, 18.6, 18.6 and 19.5 ms at 0.25, 0.5, 1, 2 and 4 MiB (one thread, 2 vCPUs).
_ONE_ONE_BLOCK_BYTES = 2**20


def _one_one_band_curve(p, ks):
    """The function (fit, target) -> ||B_k(S) - T||_(1,1) for every k in ks,
    accumulated along diagonals, one block of rows at a time.

    ``fit(J, out)`` gives rows J of the symmetric S, in ``out`` or as a
    view, and ``target`` those of the symmetric T.  With Delta = |S - T| -
    |T|, column j's sum at bandwidth k is colsum|T|_j + sum over |d| <= k
    of Delta[j, j + d], as S and T are symmetric: inside the band |S - T|
    replaces |T|.  Each row of a block's Delta is stored after K zeros,
    which makes the entries within distance K of the diagonal one strided
    window per row of one buffer (zero where j - d < 0 or j + d >= p).
    One cumulative sum over d then gives every bandwidth up to K = min(max
    k, p - 1), bandwidths past p - 1 repeat the value at p - 1, and the
    curve is the running max over blocks.  A block has as many rows as fit
    in ``_ONE_ONE_BLOCK_BYTES`` of the buffer, so no p x p array is built;
    the workspace serves every call: only G, the rows and Delta are written.
    """
    kc = np.minimum(ks, p - 1)
    K = int(kc[-1])
    r = p + K
    b = min(p, max(1, _ONE_ONE_BLOCK_BYTES // (8 * r)))
    buf, G, rows = np.zeros((b + 1, r)), np.empty((b, K + 1)), np.empty((2, b, p))

    def curve(fit, target):
        best = np.full(K + 1, -np.inf)
        for j0 in range(0, p, b):
            J, bt = slice(j0, j0 + b), min(b, p - j0)
            S, T = fit(J, rows[0, :bt]), target(J, rows[1, :bt])
            delta = buf[:bt, K:]
            np.abs(np.subtract(S, T, out=delta), out=delta)
            delta -= np.abs(T, out=rows[0, :bt])  # S is spent
            # W[t] = Delta[t, j - K .. j + K] for row j = j0 + t, zero off the matrix: the
            # last row reads up to K entries into buf[bt], whose first K are never written
            W = _diagonal_windows(buf[:, j0:], bt, 2 * K + 1)
            g = G[:bt]
            np.add(rows[0, :bt].sum(axis=1), W[:, K], out=g[:, 0])
            np.add(W[:, :K][:, ::-1], W[:, K + 1:], out=g[:, 1:])
            np.cumsum(g, axis=1, out=g)
            np.maximum(best, g.max(axis=0), out=best)
        return best[kc]
    return curve


def _check_k_grid(k_grid, p, kind, n_fit, fit_name) -> np.ndarray:
    """``k_grid`` checked, or the default grid; cholesky needs k <= n_fit - 2."""
    ks = default_k_grid(p, kind, n_fit) if k_grid is None else np.asarray(k_grid, dtype=int)
    if k_grid is not None and not np.array_equal(ks, k_grid):
        raise ValueError(f"k_grid must hold integers, got {k_grid!r}")
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("k_grid must be a nonempty 1-D integer sequence")
    if ks[0] < 0 or np.any(np.diff(ks) <= 0):
        raise ValueError("k_grid must be strictly ascending nonnegative integers")
    if kind == "cholesky" and ks[-1] > n_fit - 2:
        raise BandwidthTooLarge(f"cholesky bandwidths must satisfy k <= {fit_name} - 2 = "
                                f"{n_fit - 2}, grid goes to {ks[-1]}")
    return ks
