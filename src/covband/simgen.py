"""True-covariance constructors for the benchmark models and a seeded sampler.

Three stationary models are supported:

``ma1``
    First-order moving average, sigma_ij = rho^|i-j| for |i - j| <= 1,
    zero beyond the first off-diagonal.
``ar1``
    First-order autoregression, sigma_ij = rho^|i-j|.
``fgn``
    Fractional Gaussian noise with Hurst parameter H in [0.5, 1],
    sigma_ij = ((d+1)^2H - 2 d^2H + |d-1|^2H) / 2 at distance d = |i-j|.

Reproducibility contract
------------------------
All randomness in this package flows through numpy's PCG64 generator.
``substream(seed, *path)`` builds the generator for a named substream from
``numpy.random.SeedSequence([seed, *path])``, so a master seed plus an
integer path (replication index, split index, ...) identifies a stream
bit-reproducibly, independent of execution order.  ``sample_gaussian``
draws a standard normal (n, p) matrix from that stream row-major and maps
it through the lower Cholesky factor of the target covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import cholesky_factor

MODEL_KINDS = ("ma1", "ar1", "fgn")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic PCG64 stream for (seed, *path).

    ``seed`` must be a nonnegative integer (up to 64 bits); distinct paths
    give statistically independent streams.
    """
    if int(seed) < 0:
        raise ValueError("seed must be a nonnegative integer")
    entropy = [int(seed)] + [int(x) for x in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def substream_seed(seed: int, *path: int) -> int:
    """A derived 64-bit integer seed for handing to APIs that take one."""
    if int(seed) < 0:
        raise ValueError("seed must be a nonnegative integer")
    entropy = [int(seed)] + [int(x) for x in path]
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


@dataclass(frozen=True)
class CovarianceModel:
    """A named covariance model: ``kind`` in {ma1, ar1, fgn} plus its parameter.

    The parameter is rho for ma1/ar1 (|rho| < 1) and the Hurst exponent H
    for fgn (H in [0.5, 1]).
    """

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        object.__setattr__(self, "parameter", float(self.parameter))
        if self.kind in ("ma1", "ar1"):
            if not abs(self.parameter) < 1:
                raise ValueError(f"{self.kind} requires |rho| < 1, got {self.parameter}")
        else:
            if not 0.5 <= self.parameter <= 1.0:
                raise ValueError(f"fgn requires H in [0.5, 1], got {self.parameter}")

    def spec_string(self) -> str:
        """Textual form, e.g. ``ma1:rho=0.5`` or ``fgn:H=0.7``."""
        name = "H" if self.kind == "fgn" else "rho"
        return f"{self.kind}:{name}={self.parameter!r}"


def parse_model(text: str) -> CovarianceModel:
    """Parse a model spec string like ``ar1:rho=0.9`` or ``fgn:H=0.7``."""
    try:
        kind, param = text.split(":", 1)
        name, value = param.split("=", 1)
    except ValueError:
        raise ValueError(
            f"cannot parse model spec {text!r}; expected e.g. 'ma1:rho=0.5'"
        ) from None
    kind = kind.strip().lower()
    expected = "H" if kind == "fgn" else "rho"
    if name.strip() != expected:
        raise ValueError(f"model {kind!r} takes parameter {expected!r}, got {name.strip()!r}")
    return CovarianceModel(kind=kind, parameter=float(value))


def build_covariance(model: CovarianceModel, p: int) -> np.ndarray:
    """The exact p x p covariance matrix of the model.

    All three models are Toeplitz with unit diagonal.
    """
    p = int(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    idx = np.arange(p)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    if model.kind == "ma1":
        S = np.where(d <= 1, model.parameter ** d, 0.0)
    elif model.kind == "ar1":
        S = model.parameter ** d
    else:
        h2 = 2.0 * model.parameter
        S = 0.5 * ((d + 1.0) ** h2 - 2.0 * d ** h2 + np.abs(d - 1.0) ** h2)
    return S


def sample_gaussian(Sigma, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. mean-zero Gaussian rows with covariance ``Sigma``.

    ``seed`` may be an integer or a ``numpy.random.SeedSequence``.  Rows are
    ``L @ z`` with L the lower Cholesky factor of Sigma and z standard
    normal; a covariance failing the Cholesky test (e.g. the rank-one fgn
    matrix at H = 1) raises :class:`~covband.errors.NotPositiveDefinite`.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    L = cholesky_factor(Sigma)
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        rng = np.random.default_rng(seed)
    else:
        rng = substream(seed)
    Z = rng.standard_normal((n, L.shape[0]))
    return Z @ L.T
