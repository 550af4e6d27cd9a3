"""Bandwidth selection by resampling, plus oracle and rate diagnostics.

The data-driven bandwidth is picked by splitting the sample N times at
random into groups of size n1 and n2, fitting the regularized estimator on
group 1, measuring its distance to the plain sample covariance of group 2,
averaging over splits, and minimizing over the bandwidth grid
(:func:`estimate_risk` / :func:`select_k`).

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
from numpy.lib.stride_tricks import as_strided

from .errors import BandwidthTooLarge, DataFormatError, InsufficientData
from .estimators import (
    as_data_matrix,
    cholesky_covariance_path,
    sample_covariance,
)
from .matcore import band_path, require_symmetric, single_blas_thread, unchecked_norm
from .simgen import CovarianceModel, build_covariance, sample_gaussian, substream

ESTIMATOR_KINDS = ("banded", "cholesky")
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
        _check_kind_norm(self.estimator_kind, self.norm)
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
    if n < 4:
        raise InsufficientData(f"risk estimation needs n >= 4 observations, got {n}")
    if n1 is None:
        n1 = n // 3
    n1 = int(n1)
    n2 = n - n1
    if n1 < 2 or n2 < 2:
        raise InsufficientData(f"both split groups need >= 2 rows, got n1={n1}, n2={n2}")
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_kind_norm(estimator_kind, norm)
    ks = _check_k_grid(k_grid, p, estimator_kind, n1, "n1")

    total = np.zeros(ks.size)
    # the Cholesky path is many small products: one BLAS thread keeps it steady
    with single_blas_thread(estimator_kind == "cholesky"):
        for nu in range(N):
            perm = substream(seed, nu).permutation(n)
            S1 = sample_covariance(X[perm[:n1]])
            S2 = sample_covariance(X[perm[n1:]])
            total += _split_loss_curve(S1, S2, ks, estimator_kind, norm)
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
    _check_kind_norm(estimator_kind, norm)
    ks = _check_k_grid(k_grid, p, estimator_kind, n, "n")
    losses = _split_loss_curve(sample_covariance(X), truth, ks, estimator_kind, norm)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,risk\n")
        for k, r in zip(curve.k_grid, curve.risk):
            fh.write(f"{int(k)},{float(r)!r}\n")
        if k_hat is not None:
            fh.write(f"# k_hat={int(k_hat)}\n")


def read_risk_curve(path) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Parse a risk-curve CSV back into (k_grid, risk, k_hat or None).

    A malformed line raises :class:`DataFormatError` naming the file and line.
    """
    ks, rs, k_hat = [], [], None
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "k,risk":
                raise DataFormatError(f"{path}: expected header 'k,risk', got {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                try:
                    if line.startswith("#") and "k_hat=" in line:
                        k_hat = int(line.split("k_hat=")[1])
                    elif line and not line.startswith("#"):
                        k, r = line.split(",")
                        ks.append(int(k))
                        rs.append(float(r))
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: malformed line {line!r}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    return np.asarray(ks, dtype=int), np.asarray(rs, dtype=float), k_hat


# ---------------------------------------------------------------------------
# Loss curves over a bandwidth grid.
# ---------------------------------------------------------------------------


def _split_loss_curve(S_fit, target, ks, estimator_kind, norm) -> np.ndarray:
    """||estimate_k - target|| for every k, with the estimator built from
    the sample covariance ``S_fit``.

    Both matrices are exactly symmetric float arrays: sample covariances,
    or a truth ``oracle_k1`` has checked.  Banded (1,1) curves take the
    diagonal fast path; every other case runs one unchecked norm per
    bandwidth, on ``band_path`` or ``cholesky_covariance_path`` estimates.
    """
    if estimator_kind == "banded" and norm == "one_one":
        return _one_one_band_curve(S_fit, target, ks)
    if estimator_kind == "banded":
        estimates = band_path(S_fit, ks)
    else:
        estimates = cholesky_covariance_path(S_fit, ks)
    # every estimate is a fresh array, so it can hold its own difference
    return np.array([unchecked_norm(np.subtract(E, target, out=E), norm) for E in estimates])


def _one_one_band_curve(S, T, ks) -> np.ndarray:
    """||B_k(S) - T||_(1,1) for every k in ks, accumulated along diagonals.

    With Delta = |S - T| - |T|, column j's sum at bandwidth k is
    colsum|T|_j + sum over |d| <= k of Delta[j + d, j]: inside the band
    |S - T| replaces |T|.  S and T are symmetric, so column j of Delta is
    its row j.  Each row is stored after K zeros, which makes the entries
    at distance d left and right of the diagonal two strided views of one
    buffer (zero where j - d < 0 or j + d >= p).  One cumulative sum over d
    then gives every bandwidth up to K = min(max k, p - 1) in O(p^2 + K p);
    bandwidths past p - 1 repeat the value at p - 1.
    """
    p = S.shape[0]
    kc = np.minimum(ks, p - 1)
    K = int(kc[-1])
    r = p + K
    abs_T = np.abs(T)
    buf = np.zeros(p * r + K)  # the trailing K zeros pad the last row
    delta = buf[: p * r].reshape(p, r)[:, K:]
    np.subtract(S, T, out=delta)
    np.abs(delta, out=delta)
    delta -= abs_T
    # G[j, d] = colsum|T|_j + Delta[j, j] at d = 0, Delta[j, j - d] + Delta[j, j + d] after
    G = np.empty((p, K + 1))
    np.add(abs_T.sum(axis=0), np.diagonal(delta), out=G[:, 0])
    step = buf.itemsize
    right = as_strided(buf[K + 1:], (p, K), ((r + 1) * step, step), writeable=False)
    left = as_strided(buf[K - 1:], (p, K), ((r + 1) * step, -step), writeable=False)
    np.add(left, right, out=G[:, 1:])
    np.cumsum(G, axis=1, out=G)
    return G.max(axis=0)[kc]


def _check_kind_norm(kind, norm):
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"estimator_kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    if norm not in SELECTION_NORMS:
        raise ValueError(f"norm must be one of {SELECTION_NORMS}, got {norm!r}")


def _check_k_grid(k_grid, p, kind, n_fit, fit_name) -> np.ndarray:
    """``k_grid`` checked, or the default grid; cholesky needs k <= n_fit - 2."""
    ks = default_k_grid(p, kind, n_fit) if k_grid is None else np.asarray(k_grid, dtype=int)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("k_grid must be a nonempty 1-D integer sequence")
    if ks[0] < 0 or np.any(np.diff(ks) <= 0):
        raise ValueError("k_grid must be strictly ascending nonnegative integers")
    if kind == "cholesky" and ks[-1] > n_fit - 2:
        raise BandwidthTooLarge(f"cholesky bandwidths must satisfy k <= {fit_name} - 2 = "
                                f"{n_fit - 2}, grid goes to {ks[-1]}")
    return ks
