"""Eigenstructure proximity diagnostics.

Quantifies how well a regularized covariance estimate reproduces the top
of the true spectrum: per-eigenvalue errors, operator-norm distances
between the rank-one spectral projectors, and the fraction of total
variance the leading eigenvalues capture.  For unit vectors the projector
distance is the sine of the angle between them, so ``projection_errors[j]``
is sin angle(v_hat_j, v_j) (Davis & Kahan 1970).  Projector comparison
requires the compared true eigenvalues to be simple (consecutively
separated); near-degenerate spectra are rejected rather than clustered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpectralDegeneracy, ZeroTrace
from .matcore import require_symmetric, sym_eigen, write_table

# True consecutive gaps below this are treated as degenerate: projector
# pairing is meaningless below eigensolver resolution.
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class EigenComparison:
    """Per-eigenvalue comparison of an estimate against the truth.

    ``eigenvalue_errors[j]`` is |lambda_j(estimate) - lambda_j(truth)| and
    ``projection_errors[j]`` is sin angle(v_hat_j, v_j), the operator norm
    of the difference of the rank-one projectors onto the j-th
    eigenvectors, for the m leading (descending) eigenvalues.  ``gap`` is
    the smallest consecutive gap among the top m + 1 true eigenvalues.
    """

    m: int
    eigenvalue_errors: np.ndarray
    projection_errors: np.ndarray
    gap: float
    lambda_true: np.ndarray
    lambda_est: np.ndarray


def eigen_compare(estimate, truth, m: int) -> EigenComparison:
    """Compare the top m eigenvalues/eigenvectors of estimate and truth.

    The projector errors are ||w - (v'w) v|| for each true eigenvector v and
    estimated w; they do not depend on eigenvector signs, because a projector
    does not.  Raises :class:`SpectralDegeneracy` if any consecutive gap
    among the top m + 1 true eigenvalues falls below ``DEGENERACY_GAP``.
    """
    E = require_symmetric(estimate, "estimate")
    T = require_symmetric(truth, "truth")
    if E.shape != T.shape:
        raise ValueError("estimate and truth must have the same dimension")
    p = T.shape[0]
    m = int(m)
    if not 1 <= m <= p:
        raise ValueError(f"m must be in 1..{p}, got {m}")

    dec_t = sym_eigen(T)
    dec_e = sym_eigen(E)
    lam_t = dec_t.eigenvalues
    lam_e = dec_e.eigenvalues

    n_top = min(m + 1, p)
    gaps = lam_t[: n_top - 1] - lam_t[1:n_top]
    gap = float(np.min(gaps)) if gaps.size else float("inf")
    if gaps.size and gap < DEGENERACY_GAP:
        j = int(np.argmin(gaps))
        raise SpectralDegeneracy(
            f"true eigenvalues {j + 1} and {j + 2} are separated by {gap:.3e} "
            f"(< {DEGENERACY_GAP}); projector comparison is not meaningful"
        )

    V = dec_t.eigenvectors[:, :m]
    W = dec_e.eigenvectors[:, :m]
    return EigenComparison(
        m=m,
        eigenvalue_errors=np.abs(lam_e[:m] - lam_t[:m]),
        projection_errors=np.linalg.norm(W - V * np.sum(V * W, axis=0), axis=0),
        gap=gap,
        lambda_true=lam_t[:m].copy(),
        lambda_est=lam_e[:m].copy(),
    )


def variance_captured(truth, m: int) -> float:
    """Fraction of total variance carried by the m leading eigenvalues.

    Returns 1 - (sum of the p - m trailing eigenvalues) / (sum of all),
    in [0, 1] for positive semidefinite input.
    """
    T = require_symmetric(truth, "truth")
    p = T.shape[0]
    m = int(m)
    if not 1 <= m <= p:
        raise ValueError(f"m must be in 1..{p}, got {m}")
    lam = np.linalg.eigvalsh(T)[::-1]
    total = float(np.sum(lam))
    if total <= 0:
        raise ZeroTrace("variance fraction undefined: trace <= 0")
    return 1.0 - float(np.sum(lam[m:])) / total


def write_comparison_csv(path, cmp: EigenComparison) -> None:
    """Write the per-eigenvalue comparison report.

    Header ``j,lambda_true,lambda_est,abs_err,proj_err``; j is 1-based.
    """
    columns = (cmp.lambda_true, cmp.lambda_est, cmp.eigenvalue_errors, cmp.projection_errors)
    rows = ((j + 1, *(float(c[j]) for c in columns)) for j in range(cmp.m))
    write_table(path, "j,lambda_true,lambda_est,abs_err,proj_err", rows)
