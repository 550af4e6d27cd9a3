"""Acceptance gate: the full benchmark-reproduction and invariant checklist.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (bypassing pytest's
capture) and asserts the same condition, so the suite doubles as a checklist
runner: ``pytest tests/test_acceptance.py -v``.

The statistical criteria run the same seeded experiment pipeline as the
``covband bench`` command; the whole module takes a few minutes.
"""

import numpy as np
import pytest

from covband.bench import ExperimentSpec, run_simulation_experiment
from covband.estimators import (
    cholesky_banded_covariance,
    factors_to_matrices,
    fit_banded_cholesky,
    sample_covariance,
    tapered_covariance,
)
from covband.forecast import forecast_workflow
from covband.matcore import (
    TaperSpec,
    band,
    is_positive_definite,
    matrix_norm,
    sym_eigen,
    symmetrize,
)
from covband.selection import estimate_risk, oracle_k0, oracle_k1, select_k
from covband.simgen import (
    CovarianceModel,
    build_covariance,
    sample_gaussian,
    substream_seed,
)

MASTER_SEED = 0


def verdict(capsys, name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def within(value, center, tol):
    return center - tol <= value <= center + tol


def within_rel(value, center, rel):
    return abs(value - center) <= rel * abs(center)


@pytest.fixture(scope="module")
def table1_reports():
    reports = {}
    for p in (10, 100, 200):
        spec = ExperimentSpec(
            model=CovarianceModel("ma1", 0.5),
            n=100,
            p=p,
            reps=100,
            N=50,
            n1=33,
            seed=MASTER_SEED,
        )
        reports[p] = run_simulation_experiment(spec)
    return reports


def run_config(model, reps=100):
    spec = ExperimentSpec(
        model=model, n=100, p=100, reps=reps, N=50, n1=33, seed=MASTER_SEED
    )
    return run_simulation_experiment(spec)


# ---------------------------------------------------------------------------
# 1. tridiagonal-model benchmark table (n=100, p in {10,100,200})
# ---------------------------------------------------------------------------


def test_criterion_1_ma1_benchmark_table(table1_reports, capsys):
    expected_loss_k_hat = {10: 0.5, 100: 0.8, 200: 0.9}
    expected_loss_sample = {10: 1.2, 100: 10.6, 200: 20.6}
    details = []
    ok = True
    for p, report in table1_reports.items():
        agg = report.aggregates()
        ones = sum(1 for r in report.records if r.k_hat == 1)
        lk = agg["loss_k_hat"][0]
        ls = agg["loss_sample"][0]
        this = (
            ones >= 95
            and within(lk, expected_loss_k_hat[p], 0.15)
            and within_rel(ls, expected_loss_sample[p], 0.10)
        )
        ok = ok and this
        details.append(f"p={p}: k_hat=1 in {ones}/100, loss_k_hat={lk:.3f}, loss_sample={ls:.2f}")
    verdict(capsys, "1 ma1-benchmark-table", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. AR(1) spot checks (n=100, p=100)
# ---------------------------------------------------------------------------


def test_criterion_2_ar1_spot_checks(capsys):
    weak = run_config(CovarianceModel("ar1", 0.1)).aggregates()
    strong = run_config(CovarianceModel("ar1", 0.9)).aggregates()
    ok = (
        weak["k_hat"][0] <= 0.5
        and within_rel(weak["loss_sample"][0], 10.2, 0.10)
        and 13.0 <= strong["k_hat"][0] <= 19.0
        and within_rel(strong["loss_k_hat"][0], 9.2, 0.15)
        and within_rel(strong["loss_sample"][0], 13.5, 0.10)
    )
    detail = (
        f"rho=0.1: k_hat mean={weak['k_hat'][0]:.2f}, loss_sample={weak['loss_sample'][0]:.2f}; "
        f"rho=0.9: k_hat mean={strong['k_hat'][0]:.2f}, loss_k_hat={strong['loss_k_hat'][0]:.2f}, "
        f"loss_sample={strong['loss_sample'][0]:.2f}"
    )
    verdict(capsys, "2 ar1-spot-checks", ok, detail)


# ---------------------------------------------------------------------------
# 3. long-range-dependence spot checks (n=100, p=100)
# ---------------------------------------------------------------------------


def test_criterion_3_fgn_spot_checks(capsys):
    white = run_config(CovarianceModel("fgn", 0.5)).aggregates()
    longr = run_config(CovarianceModel("fgn", 0.9)).aggregates()
    ok = (
        white["k_hat"][0] <= 0.2
        and within(white["loss_k_hat"][0], 0.4, 0.15)
        and 55.0 <= longr["k_hat"][0] <= 115.0
        and within_rel(longr["loss_k_hat"][0], longr["loss_sample"][0], 0.15)
    )
    detail = (
        f"H=0.5: k_hat mean={white['k_hat'][0]:.2f}, loss_k_hat={white['loss_k_hat'][0]:.3f}; "
        f"H=0.9: k_hat mean={longr['k_hat'][0]:.2f}, loss_k_hat={longr['loss_k_hat'][0]:.2f} "
        f"vs loss_sample={longr['loss_sample'][0]:.2f}"
    )
    verdict(capsys, "3 fgn-spot-checks", ok, detail)


# ---------------------------------------------------------------------------
# 4. risk-curve shape: minimum at k=1, then effectively nondecreasing
# ---------------------------------------------------------------------------


def curve_shape_ok(ks, risk):
    ks = list(ks)
    r = np.asarray(risk, dtype=float)
    if int(ks[int(np.argmin(r))]) != 1:
        return False, "argmin != 1"
    seg = r[ks.index(1) : ks.index(30) + 1]
    drops = [
        (seg[i] - seg[i + 1]) / seg[i]
        for i in range(len(seg) - 1)
        if seg[i + 1] < seg[i]
    ]
    ok = len(drops) <= 2 and all(d <= 0.02 for d in drops)
    return ok, f"{len(drops)} violations, max {max(drops) if drops else 0.0:.2%}"


def test_criterion_4_risk_curve_shape(table1_reports, capsys):
    report = table1_reports[100]
    ok_true, d_true = curve_shape_ok(report.k_grid, report.true_risk)
    single = report.est_risk_single
    ok_est, d_est = curve_shape_ok(single.k_grid, single.risk)
    verdict(
        capsys,
        "4 risk-curve-shape",
        ok_true and ok_est,
        f"Monte Carlo risk: {d_true}; single-run estimate: {d_est}",
    )


# ---------------------------------------------------------------------------
# 5. oracle bandwidth fraction grows with dependence strength
# ---------------------------------------------------------------------------


def test_criterion_5_oracle_fraction_monotone(capsys):
    ok = True
    details = []
    for kind, params in (("ar1", (0.1, 0.5, 0.9)), ("fgn", (0.5, 0.7, 0.9))):
        for p in (10, 100, 200):
            ratios = []
            for value in params:
                k0, _ = oracle_k0(
                    CovarianceModel(kind, value), n=100, p=p, reps=100, seed=1
                )
                ratios.append(k0 / p)
            mono = all(a <= b for a, b in zip(ratios, ratios[1:]))
            ok = ok and mono
            details.append(f"{kind} p={p}: " + "->".join(f"{r:.2f}" for r in ratios))
    verdict(capsys, "5 oracle-fraction-monotone", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. oracle loss shrinks with sample size
# ---------------------------------------------------------------------------


def test_criterion_6_loss_shrinks_with_n(capsys):
    Sigma = build_covariance(CovarianceModel("ar1", 0.5), 100)
    medians = []
    for n in (100, 400, 1600):
        losses = [
            oracle_k1(sample_gaussian(Sigma, n, seed), Sigma).curve.risk.min()
            for seed in range(20)
        ]
        medians.append(float(np.median(losses)))
    ok = medians[0] > medians[1] > medians[2]
    verdict(
        capsys,
        "6 loss-shrinks-with-n",
        ok,
        "median min-loss " + " -> ".join(f"{m:.3f}" for m in medians),
    )


# ---------------------------------------------------------------------------
# 7. exact estimator equivalences
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalences(capsys):
    rng = np.random.default_rng(7)

    full_band_ok = True
    inverse_ok = True
    for seed in range(20):
        X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.5), 5), 50, seed)
        S = sample_covariance(X)
        C = cholesky_banded_covariance(X, 4)
        rel = np.max(np.abs(C - S)) / np.max(np.abs(S))
        full_band_ok = full_band_ok and rel <= 1e-8
        for k in (0, 1, 2, 4):
            precision, covariance = factors_to_matrices(fit_banded_cholesky(X, k))
            err = np.max(np.abs(precision @ covariance - np.eye(5)))
            inverse_ok = inverse_ok and err <= 1e-8

    taper_ok = True
    for _ in range(20):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(2, 15))
        X = rng.standard_normal((n, p))
        for k in range(p):
            lhs = tapered_covariance(X, TaperSpec("banding-indicator", k))
            taper_ok = taper_ok and np.array_equal(lhs, band(sample_covariance(X), k))

    ok = full_band_ok and taper_ok and inverse_ok
    verdict(
        capsys,
        "7 oracle-equivalences",
        ok,
        f"full-band==sample: {full_band_ok}; indicator-taper==band: {taper_ok}; "
        f"precision*covariance==I: {inverse_ok}",
    )


# ---------------------------------------------------------------------------
# 8. randomized invariant suites, >= 100 instances each
# ---------------------------------------------------------------------------


def test_criterion_8_invariant_suites(capsys):
    rng = np.random.default_rng(8)
    failures = {}

    count = 0
    for _ in range(100):
        p = int(rng.integers(2, 15))
        A = symmetrize(rng.standard_normal((p, p)))
        E = symmetrize(rng.standard_normal((p, p))) * float(rng.uniform(0.01, 2.0))
        la = sym_eigen(A).eigenvalues
        lb = sym_eigen(A + E).eigenvalues
        if np.max(np.abs(la - lb)) > matrix_norm(E, "operator") + 1e-10:
            count += 1
    failures["weyl"] = count

    count = 0
    for _ in range(100):
        p = int(rng.integers(2, 21))
        G1 = rng.standard_normal((p + 4, p))
        G2 = rng.standard_normal((p + 4, p))
        A = symmetrize(G1.T @ G1 / (p + 4))
        B = symmetrize(G2.T @ G2 / (p + 4))
        if not is_positive_definite(A * B):
            count += 1
    failures["schur-pd"] = count

    count = 0
    for _ in range(100):
        p = int(rng.integers(1, 25))
        M = symmetrize(rng.standard_normal((p, p)) * float(rng.uniform(0.1, 10.0)))
        if matrix_norm(M, "operator") > matrix_norm(M, "one_one") + 1e-10:
            count += 1
    failures["norm-inequality"] = count

    count = 0
    for _ in range(100):
        p = int(rng.integers(1, 12))
        M = symmetrize(rng.standard_normal((p, p)))
        k1 = int(rng.integers(0, p + 2))
        k2 = int(rng.integers(0, p + 2))
        if not np.array_equal(band(band(M, k1), k1), band(M, k1)):
            count += 1
        elif not np.array_equal(band(band(M, k1), k2), band(M, min(k1, k2))):
            count += 1
    failures["band-algebra"] = count

    count = 0
    for trial in range(100):
        n = int(rng.integers(8, 16))
        p = int(rng.integers(2, 6))
        X = rng.standard_normal((n, p))
        a = estimate_risk(X, N=3, seed=trial)
        b = estimate_risk(X, N=3, seed=trial)
        c = float(2.0 ** rng.integers(-3, 4))
        scaled = estimate_risk(c * X, N=3, seed=trial)
        if not np.array_equal(a.risk, b.risk):
            count += 1
        elif not np.array_equal(scaled.risk, c * c * a.risk):
            count += 1
        elif select_k(a).k_hat != select_k(scaled).k_hat:
            count += 1
    failures["selection-determinism-and-scaling"] = count

    ok = all(v == 0 for v in failures.values())
    detail = ", ".join(f"{k}: {v}/100 failures" for k, v in failures.items())
    verdict(capsys, "8 invariant-suites", ok, detail)


# ---------------------------------------------------------------------------
# 9. partitioned forecasting beats the unregularized predictor
# ---------------------------------------------------------------------------


def test_criterion_9_forecast_surrogate(capsys):
    Sigma = build_covariance(CovarianceModel("fgn", 0.9), 102)
    wins = 0
    margins = []
    for seed in range(10):
        X = sample_gaussian(Sigma, 239, np.random.SeedSequence([seed, 0]))
        out = forecast_workflow(
            X, 205, 51, estimator_kind="cholesky", k="auto",
            N=50, seed=substream_seed(seed, 1),
        )
        if out.mean_error <= out.mean_baseline_error:
            wins += 1
        margins.append(out.mean_baseline_error - out.mean_error)
    ok = wins >= 8
    verdict(
        capsys,
        "9 forecast-surrogate",
        ok,
        f"{wins}/10 seeds favor the regularized predictor "
        f"(mean margin {np.mean(margins):.4f})",
    )
