"""Simulation benchmarks.

:func:`run_simulation_experiment` reproduces the full bandwidth-selection
benchmark for one model configuration: per replication it draws a fresh
dataset, picks the bandwidth by resampling, records the realized losses
of the data-driven, oracle and unregularized estimators against the true
covariance, and aggregates across replications.  The per-bandwidth Monte
Carlo true risk and one single-realization estimated-risk curve are kept
for curve reports.

Seed discipline: replication r of an experiment with master seed s draws
its dataset from RNG substream (s, r, 0) and passes the derived integer
seed of substream (s, r, 1) to the risk estimator, so reports are
byte-reproducible from (spec, seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError
from .estimators import sample_covariance
from .matcore import matrix_norm, read_table, single_blas_thread, write_table
from .selection import (
    RiskCurve,
    check_kind_norm,
    estimate_risk,
    oracle_k1,
    select_k,
)
from .simgen import (
    CovarianceModel,
    build_covariance,
    parse_model,
    sample_gaussian,
    substream_seed,
)

AGGREGATE_FIELDS = (
    "k_hat",
    "k1",
    "k1_minus_k_hat",
    "loss_k_hat",
    "loss_k0",
    "loss_k1",
    "loss_sample",
)

RECORD_HEADER = "rep,k_hat,k1,loss_k_hat,loss_k0,loss_k1,loss_sample"


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation configuration: model, sizes, resampling scheme, seed.

    ``n1 = None`` means the default floor(n / 3) split; ``k_grid = None``
    means the default grid for the estimator kind.  Configurations round-trip
    losslessly through :meth:`to_text` / :func:`parse_spec`.
    """

    model: CovarianceModel
    n: int
    p: int
    reps: int
    N: int = 50
    n1: int | None = None
    k_grid: tuple[int, ...] | None = None
    estimator_kind: str = "banded"
    norm: str = "one_one"
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.p < 1:
            raise ValueError("need n >= 4 and p >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        n1 = self.n // 3 if self.n1 is None else self.n1
        if n1 < 2 or self.n - n1 < 2:
            raise ValueError(f"both split groups need >= 2 rows, got n1={n1}, n2={self.n - n1}")
        check_kind_norm(self.estimator_kind, self.norm)
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def to_text(self) -> str:
        n1 = "default" if self.n1 is None else str(self.n1)
        kg = "default" if self.k_grid is None else ":".join(str(k) for k in self.k_grid)
        return (
            f"model={self.model.spec_string()} n={self.n} p={self.p} reps={self.reps} "
            f"N={self.N} n1={n1} k_grid={kg} kind={self.estimator_kind} "
            f"norm={self.norm} seed={self.seed}"
        )

    def slug(self) -> str:
        """Filesystem-safe tag, e.g. ``banded_ar1_rho0.9_p100_n100``."""
        param = self.model.spec_string().split("=", 1)[1]
        return f"{self.estimator_kind}_{self.model.kind}_" \
               f"{'H' if self.model.kind == 'fgn' else 'rho'}{param}_p{self.p}_n{self.n}"


def parse_spec(text: str) -> ExperimentSpec:
    """Inverse of :meth:`ExperimentSpec.to_text`."""
    fields = dict(token.split("=", 1) for token in text.split())
    n1 = None if fields["n1"] == "default" else int(fields["n1"])
    kg = (
        None
        if fields["k_grid"] == "default"
        else tuple(int(k) for k in fields["k_grid"].split(":"))
    )
    return ExperimentSpec(
        model=parse_model(fields["model"]),
        n=int(fields["n"]),
        p=int(fields["p"]),
        reps=int(fields["reps"]),
        N=int(fields["N"]),
        n1=n1,
        k_grid=kg,
        estimator_kind=fields["kind"],
        norm=fields["norm"],
        seed=int(fields["seed"]),
    )


@dataclass(frozen=True)
class ReplicationRecord:
    rep: int
    k_hat: int
    k1: int
    loss_k_hat: float
    loss_k0: float
    loss_k1: float
    loss_sample: float

    @property
    def k1_minus_k_hat(self) -> float:
        return float(self.k1 - self.k_hat)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a table row or risk-curve figure needs for one spec."""

    spec: ExperimentSpec
    k_grid: np.ndarray
    k0: int
    true_risk: np.ndarray  # Monte Carlo mean loss per bandwidth
    est_risk_single: RiskCurve  # estimated risk of replication 0
    records: list[ReplicationRecord] = field(default_factory=list)

    def aggregates(self) -> dict[str, tuple[float, float]]:
        """Mean and SD (ddof=1; 0 when reps=1) per aggregate field."""
        out = {}
        for name in AGGREGATE_FIELDS:
            values = np.array([float(getattr(r, name)) for r in self.records])
            sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
            out[name] = (float(np.mean(values)), sd)
        return out


def run_simulation_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run one simulation benchmark configuration.

    Per replication: draw n rows from the model covariance, select k_hat
    by resampling, find the per-sample oracle k1 against the truth, and
    record the losses of the selected, oracle and unregularized
    estimators.  k0 is the argmin of the mean per-bandwidth loss over the
    same replication set, so its per-replication losses are filled in a
    second pass.  Deterministic for a fixed spec.
    """
    Sigma = build_covariance(spec.model, spec.p)
    curves, oracles, loss_samples = [], [], []
    with single_blas_thread():  # for the sample loss; the calls before it cap themselves
        for r in range(spec.reps):
            X = sample_gaussian(Sigma, spec.n, np.random.SeedSequence([spec.seed, r, 0]))
            curves.append(estimate_risk(
                X,
                k_grid=spec.k_grid,
                estimator_kind=spec.estimator_kind,
                N=spec.N,
                n1=spec.n1,
                norm=spec.norm,
                seed=substream_seed(spec.seed, r, 1),
            ))
            oracles.append(oracle_k1(X, Sigma, curves[-1].k_grid, spec.estimator_kind, spec.norm))
            loss_samples.append(matrix_norm(sample_covariance(X) - Sigma, spec.norm))

    ks = curves[0].k_grid
    losses = np.array([o.curve.risk for o in oracles])
    true_risk = losses.mean(axis=0)
    i0 = int(np.argmin(true_risk))
    records = []
    for r, (curve, oracle) in enumerate(zip(curves, oracles)):
        k_hat = select_k(curve).k_hat
        records.append(ReplicationRecord(
            rep=r,
            k_hat=k_hat,
            k1=oracle.k_hat,
            loss_k_hat=float(losses[r, np.searchsorted(ks, k_hat)]),
            loss_k0=float(losses[r, i0]),
            loss_k1=float(oracle.curve.risk.min()),
            loss_sample=float(loss_samples[r]),
        ))
    return ExperimentReport(
        spec=spec,
        k_grid=ks,
        k0=int(ks[i0]),
        true_risk=true_risk,
        est_risk_single=curves[0],
        records=records,
    )


def write_experiment_report(path, report: ExperimentReport) -> None:
    """Emit the per-replication records plus aggregate lines as CSV.

    Aggregates are recomputed from the records at emission time; comment
    lines carry the configuration text, k0 and the ``name mean sd`` rows
    in full float precision, followed by the record table.
    """
    agg = report.aggregates()
    comments = [
        "covband simulation report",
        f"spec {report.spec.to_text()}",
        f"k0 {report.k0}",
        "k0 is computed from the same replication set as the records",
        *(f"agg {name} mean={agg[name][0]!r} sd={agg[name][1]!r}" for name in AGGREGATE_FIELDS),
    ]
    rows = ((r.rep, r.k_hat, r.k1, float(r.loss_k_hat), float(r.loss_k0), float(r.loss_k1),
             float(r.loss_sample)) for r in report.records)
    write_table(path, RECORD_HEADER, rows, comments)


def read_experiment_report(path):
    """Parse an emitted report: (spec_text, k0, aggregates, records).

    ``records`` is a list of :class:`ReplicationRecord`; ``aggregates``
    maps field name to (mean, sd) as read from the comment lines.
    """
    spec_text = None
    k0 = None
    aggregates: dict[str, tuple[float, float]] = {}
    records: list[ReplicationRecord] = []
    for lineno, line, comment in read_table(path, RECORD_HEADER):
        try:
            if comment:
                body = line[1:].strip()
                if body.startswith("spec "):
                    spec_text = body[5:]
                elif body.startswith("agg "):
                    name, mean_part, sd_part = body[4:].split()
                    aggregates[name] = (
                        float(mean_part.split("=", 1)[1]),
                        float(sd_part.split("=", 1)[1]),
                    )
                elif body.startswith("k0 ") and k0 is None:
                    k0 = int(body[3:])
                continue
            f = line.split(",")
            if len(f) != 7:
                raise ValueError(f"expected 7 fields, got {len(f)}")
            records.append(ReplicationRecord(int(f[0]), int(f[1]), int(f[2]), *map(float, f[3:])))
        except (ValueError, IndexError) as exc:
            raise DataFormatError(f"{path}:{lineno}: malformed line {line!r} ({exc})") from None
    if spec_text is None or k0 is None:
        raise DataFormatError(f"{path}: not a covband simulation report")
    return spec_text, k0, aggregates, records


def write_ratio_table(path, reports: list[ExperimentReport]) -> None:
    """Bandwidth-to-dimension ratio table across configurations.

    One row per report: oracle k0 / p and mean selected k_hat / p, the
    quantities the dimension-scaling figures plot.
    """
    rows = []
    for rep in reports:
        k_hat_mean, m, p = rep.aggregates()["k_hat"][0], rep.spec.model, rep.spec.p
        rows.append((m.kind, m.parameter, p, rep.spec.n, rep.k0, rep.k0 / p,
                     k_hat_mean, k_hat_mean / p))
    write_table(path, "model,parameter,p,n,k0,k0_over_p,k_hat_mean,k_hat_mean_over_p", rows)
