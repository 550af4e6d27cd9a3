"""Dense symmetric-matrix primitives.

Everything downstream (estimators, bandwidth selection, simulation,
spectral diagnostics, forecasting) is built on the operations in this
module: banding, Schur products, taper weight matrices, matrix norms,
symmetric eigendecomposition and Cholesky factorization.  File I/O lives
here too: data and matrix CSVs, and the one table format of every report
(:func:`write_table` / :func:`read_table`).

Matrices are plain ``numpy.ndarray`` objects.  A "symmetric matrix" here
means a square 2-D float array with ``M[i, j] == M[j, i]`` exactly.  The
package's constructors produce it by how they compute; a matrix from outside
is checked once, where it enters (``require_symmetric``), and ``symmetrize``
serves only CSV input and a Cholesky fit's precision ``W' diag(1/D) W``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NotPositiveDefinite

# Relative pivot tolerance of the positive-definiteness test: a Cholesky
# pivot below PD_PIVOT_RTOL * max(diag) fails the factorization.
PD_PIVOT_RTOL = 1e-12

# Absolute tolerance for the symmetry check when reading matrices from CSV.
CSV_SYMMETRY_ATOL = 1e-9

TAPER_FAMILIES = ("banding-indicator", "triangular", "exponential")

NORMS = ("operator", "one_one", "max_abs", "frobenius")


def require_symmetric(M, name: str = "matrix") -> np.ndarray:
    """Validate that ``M`` is a finite, exactly symmetric square 2-D array.

    Returns the validated array as float64 without copying when possible.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError(f"{name} is not symmetric")
    return A


def symmetrize(M) -> np.ndarray:
    """Return ``(M + M.T) / 2``, which is exactly symmetric in IEEE arithmetic."""
    A = np.asarray(M, dtype=float)
    return (A + A.T) / 2.0


def band(M, k: int) -> np.ndarray:
    """Zero out all entries farther than ``k`` from the diagonal.

    ``k >= p - 1`` is legal and returns a copy of ``M`` unchanged;
    ``k = 0`` keeps only the diagonal.  An integral float such as 2.0 is
    accepted; a fractional one raises ValueError.
    """
    if not float(k).is_integer() or k < 0:
        raise ValueError(f"bandwidth k must be a nonnegative integer, got {k!r}")
    return next(band_path(require_symmetric(M), [k]))


def band_path(A, ks):
    """Yield ``band(A, k)`` for each k of the ascending nonnegative ``ks``.

    The caller has checked ``A``; the distance mask is built once, not per bandwidth.
    """
    distance = _distance_grid(A.shape[0])
    for k in ks:
        yield np.where(distance <= k, A, 0.0)


def row_dots(a, b) -> np.ndarray:
    """The dot products of matching last-axis rows of a and b, one BLAS dot
    each (``np.vecdot``, which needs numpy 2, gives the same bits)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def schur_product(A, B) -> np.ndarray:
    """Entry-wise (Schur) product of two symmetric matrices of equal dimension."""
    A = require_symmetric(A, "A")
    B = require_symmetric(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape[0]} vs {B.shape[0]}")
    return A * B


@dataclass(frozen=True)
class TaperSpec:
    """Taper family plus scale.

    ``family`` is one of ``"banding-indicator"``, ``"triangular"``,
    ``"exponential"``.  For the smooth families ``scale`` is the positive
    real decay scale; for the banding indicator it is the integer
    bandwidth ``k >= 0``.
    """

    family: str
    scale: float

    def __post_init__(self):
        if self.family not in TAPER_FAMILIES:
            raise ValueError(
                f"unknown taper family {self.family!r}; expected one of {TAPER_FAMILIES}"
            )
        if self.family == "banding-indicator":
            if not (self.scale >= 0 and float(self.scale).is_integer()):
                raise ValueError("banding-indicator scale must be a nonnegative integer")
        elif not self.scale > 0:
            raise ValueError(f"{self.family} taper requires scale > 0")

    def weight_at(self, distance) -> np.ndarray:
        """Taper weight g at the given index distance(s)."""
        d = np.asarray(distance, dtype=float)
        if self.family == "banding-indicator":
            return (d <= self.scale).astype(float)
        if self.family == "triangular":
            return np.maximum(1.0 - d / self.scale, 0.0)
        return np.exp(-d / self.scale)


def taper_weights(t: TaperSpec, p: int) -> np.ndarray:
    """The p x p weight matrix with entry g(|i - j|) for taper ``t``.

    Unit diagonal, entries in [0, 1], nonincreasing in |i - j|.  The
    banding-indicator family yields the 0/1 band mask of its bandwidth.
    """
    p = int(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    return t.weight_at(_distance_grid(p))


def effective_bandwidth(t: TaperSpec, p: int) -> float:
    """Sum of taper weights over the distinct positive distances 1..p-1.

    This scalar plays the role the bandwidth k plays for plain banding:
    for the banding indicator it equals min(k, p - 1) exactly, and for the
    smooth families it measures how much off-diagonal mass the taper keeps.
    """
    p = int(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(t.weight_at(np.arange(1, p))))


def matrix_norm(M, which: str = "operator") -> float:
    """Matrix norm of a symmetric matrix.

    ``operator``
        Largest absolute eigenvalue (spectral norm), from the full
        spectrum (``numpy.linalg.eigvalsh``).  This is the reference the
        selection loss's Lanczos norm is tested against.
    ``one_one``
        Maximum absolute column sum (the l1 -> l1 induced norm; for
        symmetric input this coincides with the max row sum).
    ``max_abs``
        Largest absolute entry.
    ``frobenius``
        Square root of the sum of squared entries.
    """
    A = require_symmetric(M)
    if which == "operator":
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
    if which == "one_one":
        return float(np.max(np.sum(np.abs(A), axis=0)))
    if which == "max_abs":
        return float(np.max(np.abs(A)))
    if which == "frobenius":
        return float(np.sqrt(np.sum(A * A)))
    raise ValueError(f"unknown norm {which!r}; expected one of {NORMS}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectral decomposition of a symmetric matrix.

    ``eigenvalues`` are sorted descending; column j of ``eigenvectors``
    is the unit eigenvector paired with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(M) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Delegates to LAPACK's dense symmetric solver, which is deterministic
    for a fixed input.
    """
    A = require_symmetric(M)
    w, V = np.linalg.eigh(A)  # ascending
    w, V = w[::-1].copy(), V[:, ::-1].copy()
    w.setflags(write=False)
    V.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=V)


def cholesky_factor(M) -> np.ndarray:
    """Lower-triangular L with ``M = L @ L.T`` and strictly positive diagonal.

    Raises :class:`NotPositiveDefinite` when LAPACK breaks down or any pivot
    ``L[j, j]**2`` drops below ``PD_PIVOT_RTOL * max(diag(M))``; Cholesky
    success is this package's positive-definiteness test.
    """
    A = require_symmetric(M)
    max_diag = A.diagonal().max()
    if max_diag <= 0.0:
        raise NotPositiveDefinite("matrix has no positive diagonal entry")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite (Cholesky breakdown)") from None
    tol = PD_PIVOT_RTOL * max_diag
    pivots = L.diagonal() ** 2
    low = np.flatnonzero(pivots < tol)
    if low.size:
        j = low[0]
        raise NotPositiveDefinite(f"pivot {pivots[j]:.3e} at column {j} below tolerance {tol:.3e}")
    return L


@contextlib.contextmanager
def single_blas_thread():
    """Cap numpy's OpenBLAS at one thread inside the block.

    Every risk curve, oracle curve, forecast and ``bench`` replication loop
    runs under it.  On their products a second thread gains little, but it
    spins after each threaded call: CPU time doubles and the run slows
    whenever the other core is busy.  The cap is process-wide and restored
    on exit; without OpenBLAS it does nothing.
    """
    get_set = _openblas_threads()
    if get_set is None:
        yield
        return
    before = get_set[0]()
    get_set[1](1)
    try:
        yield
    finally:
        get_set[1](before)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)  # its symbol lookup covers the BLAS it links
    for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if get is not None:
            return get, getattr(lib, f"{prefix}_set_num_threads{suffix}")
    return None


def is_positive_definite(M) -> bool:
    """True iff ``cholesky_factor`` succeeds on ``M``."""
    try:
        cholesky_factor(M)
    except NotPositiveDefinite:
        return False
    return True


def load_data_csv(path) -> np.ndarray:
    """Read a nonempty, finite 2-D array, such as an (n, p) data matrix,
    from a headerless UTF-8 CSV (a leading byte-order mark is skipped).

    Anything else (an empty file, a non-numeric field, ragged rows,
    non-finite values) raises :class:`DataFormatError` naming the file.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input; reported below
        try:
            A = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float, encoding="utf-8-sig")
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    if A.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    if not np.all(np.isfinite(A)):
        raise DataFormatError(f"{path}: non-finite entries")
    return A


def load_matrix_csv(path) -> np.ndarray:
    """Read a symmetric matrix from CSV (p rows of p fields, no header).

    Symmetry is validated to ``CSV_SYMMETRY_ATOL`` absolute tolerance and
    the result is then symmetrized by averaging, so downstream code sees
    exact symmetry.
    """
    A = load_data_csv(path)
    if A.shape[0] != A.shape[1]:
        raise DataFormatError(
            f"{path}: expected a square matrix, got shape {A.shape}"
        )
    if np.max(np.abs(A - A.T)) > CSV_SYMMETRY_ATOL:
        raise DataFormatError(
            f"{path}: matrix is asymmetric beyond tolerance {CSV_SYMMETRY_ATOL}"
        )
    return symmetrize(A)


def save_matrix_csv(path, M) -> None:
    """Write a symmetric matrix as CSV (p rows of p fields, no header)."""
    A = require_symmetric(M)
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def write_table(path, header, rows, comments=(), trailer=()) -> None:
    """Write ``# `` comment lines, the header, one comma-joined line per row
    and ``# `` trailer lines as UTF-8.  Each float, numpy floats included,
    is written as ``repr(float(v))``, which reads back bit-exactly; every
    other value as ``str(v)``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")
        fh.writelines(f"# {c}\n" for c in trailer)


def read_table(path, header) -> list[tuple[int, str, bool]]:
    """(line number, stripped text, is_comment) of every nonblank line of a
    UTF-8 table CSV but its header, the first line that is not a ``#``
    comment.  A leading byte-order mark is skipped; text that is not UTF-8,
    or a missing header, raises :class:`DataFormatError` naming the file."""
    lines, seen_header = [], False
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if text and (seen_header or text.startswith("#")):
                    lines.append((lineno, text, text.startswith("#")))
                elif text and text != header:
                    raise DataFormatError(f"{path}:{lineno}: expected {header!r}, got {text!r}")
                elif text:
                    seen_header = True
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    if not seen_header:
        raise DataFormatError(f"{path}: no header {header!r}")
    return lines


def _distance_grid(p: int) -> np.ndarray:
    # the smallest signed type that holds +-p: band_path keeps one grid for a whole path
    idx = np.arange(p, dtype=np.min_scalar_type(-p))
    return np.abs(idx[:, None] - idx[None, :])
