"""Command-line harness.

Subcommands
-----------
simulate
    Emit a model covariance matrix, or Gaussian data sampled from it.
estimate
    Fit one covariance estimator to a data CSV and write the matrix.
select
    Compute the resampling risk curve for a dataset and report k_hat.
bench
    Run the simulation benchmark grid and write report/curve/ratio CSVs.
predict
    Run the partitioned forecasting workflow on a counts CSV.

Exit codes: 0 on success, 1 on usage errors (bad flags/combinations),
2 on data or estimation errors (unreadable files, non-PD matrices, ...).
Every subcommand that consumes randomness takes an explicit ``--seed``;
given identical flags and seed, output files are byte-identical on the same
machine.  Every subcommand runs its numerical work on one BLAS thread, so it
writes the same bytes under ``OPENBLAS_NUM_THREADS=1`` and ``=2``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .bench import (
    ExperimentSpec,
    run_simulation_experiment,
    write_experiment_report,
    write_ratio_table,
)
from .errors import CovbandError
from .estimators import (
    ESTIMATORS,
    factors_to_matrices,
    fit_banded_cholesky,
    fit_covariance,
    load_data_csv,
    save_data_csv,
)
from .forecast import TRANSFORMS, forecast_workflow, ingest_counts, write_forecast_report
from .matcore import TAPER_FAMILIES, TaperSpec, save_matrix_csv, single_blas_thread
from .selection import (
    ESTIMATOR_KINDS,
    SELECTION_NORMS,
    estimate_risk,
    select_k,
    write_risk_curve,
)
from .simgen import build_covariance, parse_model, sample_gaussian


def parse_taper(text: str) -> TaperSpec:
    """Parse ``FAMILY:SCALE``, e.g. ``triangular:4.0``."""
    family, sep, scale = text.partition(":")
    if not sep:
        raise ValueError(f"taper must look like FAMILY:SCALE, got {text!r}")
    return TaperSpec(family, float(scale))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covband",
        description="Banded, tapered, and Cholesky-banded covariance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    resample = argparse.ArgumentParser(add_help=False)  # select, bench and predict
    resample.add_argument("--N", type=int, default=50, help="number of random splits")
    resample.add_argument("--n1", type=int, help="split size (default floor(n/3))")
    resample.add_argument("--norm", default="one_one", choices=SELECTION_NORMS)

    p_sim = sub.add_parser("simulate", help="emit a model covariance or sampled data")
    p_sim.add_argument("--model", required=True, help="e.g. ma1:rho=0.5, ar1:rho=0.9, fgn:H=0.7")
    p_sim.add_argument("--p", type=int, required=True, help="dimension")
    p_sim.add_argument("--n", type=int, help="if given, sample n rows instead of the matrix")
    p_sim.add_argument("--seed", type=int, help="RNG seed (required with --n)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit one estimator to a data CSV")
    p_est.add_argument("--data", required=True, help="data CSV, rows = observations")
    p_est.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p_est.add_argument("--k", type=int, help="bandwidth (banded/cholesky)")
    p_est.add_argument("--taper", help=f"FAMILY:SCALE with family in {TAPER_FAMILIES}")
    p_est.add_argument("--out", required=True, help="covariance estimate CSV path")
    p_est.add_argument(
        "--precision-out", help="also write the precision matrix (cholesky only)"
    )
    p_est.set_defaults(func=_cmd_estimate)

    p_sel = sub.add_parser("select", parents=[resample], help="risk curve and selected bandwidth")
    p_sel.add_argument("--data", required=True, help="data CSV, rows = observations")
    p_sel.add_argument("--estimator", default="banded", choices=ESTIMATOR_KINDS)
    p_sel.add_argument("--k-max", type=int, help="restrict the grid to 0..k_max")
    p_sel.add_argument("--seed", type=int, required=True)
    p_sel.add_argument("--out", required=True, help="risk curve CSV path")
    p_sel.set_defaults(func=_cmd_select)

    p_ben = sub.add_parser("bench", parents=[resample], help="simulation benchmark grid")
    p_ben.add_argument(
        "--model", action="append", required=True,
        help="model spec, repeatable (e.g. --model ma1:rho=0.5 --model ar1:rho=0.9)",
    )
    p_ben.add_argument(
        "--p", action="append", type=int, required=True, help="dimension, repeatable"
    )
    p_ben.add_argument("--n", type=int, default=100)
    p_ben.add_argument("--reps", type=int, default=100)
    p_ben.add_argument("--estimator", default="banded", choices=ESTIMATOR_KINDS)
    p_ben.add_argument("--seed", type=int, required=True)
    p_ben.add_argument("--out-dir", required=True)
    p_ben.set_defaults(func=_cmd_bench)

    p_pre = sub.add_parser("predict", parents=[resample], help="partitioned forecasting workflow")
    p_pre.add_argument("--counts", required=True, help="counts CSV, rows = days")
    p_pre.add_argument("--n-train", type=int, required=True)
    p_pre.add_argument("--split", type=int, required=True)
    p_pre.add_argument("--estimator", default="cholesky", choices=ESTIMATORS)
    p_pre.add_argument("--k", default="auto", help="bandwidth, or 'auto' to select")
    p_pre.add_argument("--taper", help=f"FAMILY:SCALE with family in {TAPER_FAMILIES}")
    p_pre.add_argument("--transform", default="sqrt_quarter", choices=TRANSFORMS)
    p_pre.add_argument("--seed", type=int, help="required when --k auto")
    p_pre.add_argument("--out", required=True, help="forecast error CSV path")
    p_pre.add_argument(
        "--baseline-out",
        help="sample-covariance baseline CSV (default: <out stem>_baseline<ext>)",
    )
    p_pre.set_defaults(func=_cmd_predict)

    return parser


def _cmd_simulate(args) -> int:
    model = parse_model(args.model)
    Sigma = build_covariance(model, args.p)
    if args.n is None:
        save_matrix_csv(args.out, Sigma)
        print(f"wrote {args.p}x{args.p} covariance for {model.spec_string()} to {args.out}")
    else:
        if args.seed is None:
            raise ValueError("--seed is required when sampling with --n")
        X = sample_gaussian(Sigma, args.n, args.seed)
        save_data_csv(args.out, X)
        print(f"wrote {args.n}x{args.p} sample from {model.spec_string()} to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    X = load_data_csv(args.data)
    if args.precision_out and args.estimator != "cholesky":
        raise ValueError("--precision-out is only available with --estimator cholesky")
    taper = None if args.taper is None else parse_taper(args.taper)
    with single_blas_thread():  # so the written bytes do not depend on the thread setting
        if args.precision_out:  # one fit gives both; its covariance is fit_covariance's
            if args.k is None:
                raise ValueError("--estimator cholesky requires --k")
            precision, S = factors_to_matrices(fit_banded_cholesky(X, args.k))
            save_matrix_csv(args.precision_out, precision)
        else:
            S = fit_covariance(X, args.estimator, k=args.k, taper=taper)
    save_matrix_csv(args.out, S)
    print(f"wrote {args.estimator} covariance estimate to {args.out}")
    return 0


def _cmd_select(args) -> int:
    X = load_data_csv(args.data)
    k_grid = None if args.k_max is None else np.arange(0, args.k_max + 1)
    curve = estimate_risk(
        X,
        k_grid=k_grid,
        estimator_kind=args.estimator,
        N=args.N,
        n1=args.n1,
        norm=args.norm,
        seed=args.seed,
    )
    result = select_k(curve)
    write_risk_curve(args.out, curve, k_hat=result.k_hat)
    print(f"k_hat={result.k_hat} (grid 0..{int(curve.k_grid[-1])}, {args.estimator}, "
          f"N={args.N}, norm={args.norm}); curve written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    specs = [  # every spec is checked before a file is written
        ExperimentSpec(
            model=model,
            n=args.n,
            p=p,
            reps=args.reps,
            N=args.N,
            n1=args.n1,
            estimator_kind=args.estimator,
            norm=args.norm,
            seed=args.seed,
        )
        for model in map(parse_model, args.model) for p in args.p
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    reports = []
    for spec in specs:
        report = run_simulation_experiment(spec)
        reports.append(report)
        slug = spec.slug()
        write_experiment_report(os.path.join(args.out_dir, f"report_{slug}.csv"), report)
        single = report.est_risk_single
        true_curve = dataclasses.replace(
            single, risk=report.true_risk, N=None, n1=None, n2=None, seed=None
        )
        for name, curve, k_hat in (("true_risk", true_curve, report.k0),
                                   ("est_risk", single, select_k(single).k_hat)):
            write_risk_curve(os.path.join(args.out_dir, f"{name}_{slug}.csv"), curve, k_hat)
        agg = report.aggregates()
        print(
            f"{slug}: k0={report.k0} k_hat_mean={agg['k_hat'][0]:.2f} "
            f"loss_k_hat_mean={agg['loss_k_hat'][0]:.3f} "
            f"loss_sample_mean={agg['loss_sample'][0]:.3f}"
        )
    write_ratio_table(os.path.join(args.out_dir, "ratio_table.csv"), reports)
    print(f"wrote {len(reports)} reports and ratio_table.csv to {args.out_dir}")
    return 0


def _cmd_predict(args) -> int:
    baseline_out = args.baseline_out
    if baseline_out is None:
        stem, ext = os.path.splitext(args.out)
        baseline_out = f"{stem}_baseline{ext or '.csv'}"
    elif os.path.realpath(baseline_out) == os.path.realpath(args.out):
        raise ValueError(f"--baseline-out and --out name the same file {args.out}")
    if args.k == "auto":
        k = "auto"
    else:
        try:
            k = int(args.k)
        except ValueError:
            raise ValueError(f"--k must be an integer or 'auto', got {args.k!r}") from None
    taper = None if args.taper is None else parse_taper(args.taper)
    outcome = forecast_workflow(
        ingest_counts(args.counts, args.transform),
        args.n_train,
        args.split,
        estimator_kind=args.estimator,
        k=k,
        taper=taper,
        N=args.N,
        n1=args.n1,
        norm=args.norm,
        seed=args.seed,
    )
    write_forecast_report(args.out, outcome.errors, start_index=args.split + 1)
    write_forecast_report(baseline_out, outcome.baseline_errors, start_index=args.split + 1)
    k_note = "" if outcome.selected_k is None else f" (k={outcome.selected_k})"
    print(
        f"{args.estimator}{k_note}: mean error {outcome.mean_error:.6g} "
        f"vs baseline {outcome.mean_baseline_error:.6g}; "
        f"wrote {args.out} and {baseline_out}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # before any file is written
            raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but an estimation failure
        print(f"covband: linear algebra failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"covband: {exc}", file=sys.stderr)
        return 1
    except (CovbandError, OSError) as exc:
        print(f"covband: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
