"""The benchmark's workloads: inputs, one op's command line, and its checker.

Inputs are drawn from the workload seed with plain numpy (no covband code),
so the program receives only generated files.  An op is one
``covband.cli.main(argv)`` call; its checker recomputes the op's outputs
independently, again with plain numpy, and raises :class:`CheckFailed` on
any disagreement.
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np

# Relative tolerance of every recomputed number.  Wide enough for
# rounding-level drift between equivalent algorithms (about 1e-11 on the
# coefficients of the ill-conditioned fgn blocks), narrow enough to flag a
# value moved by 1e-6.
RTOL = 1e-8

RHO = 0.5  # AR(1) and MA(1) coefficient
HURST = 0.9  # fgn Hurst exponent, the ill-conditioned case of criterion 9


class CheckFailed(Exception):
    """An op's outputs disagree with the independent recomputation."""


def op_seed(seed: int, i: int) -> int:
    """The ``--seed`` of op ``i`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _close(got, want, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=0.0):
        raise CheckFailed(f"{what}: got {got!r}, recomputed {want!r}")


def _cov(X) -> np.ndarray:
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / X.shape[0]


def _write_csv(path: str, X) -> None:
    np.savetxt(path, X, delimiter=",", fmt="%.17g")


def _read_table(path: str, header: str) -> tuple[np.ndarray, list[str]]:
    """Numeric rows after ``header`` plus the comment lines of a covband CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    body = [line for line in lines if not line.startswith("#")]
    comments = [line for line in lines if line.startswith("#")]
    if not body or body[0] != header:
        raise CheckFailed(f"{os.path.basename(path)}: header is not {header!r}")
    rows = [[float(v) for v in line.split(",")] for line in body[1:]]
    return np.asarray(rows, dtype=float), comments


def ar1_data(rng, n: int, p: int, rho: float) -> np.ndarray:
    """n rows of a stationary AR(1) series of length p with unit variance."""
    Z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * Z[:, j]
    return X


def fgn_data(rng, n: int, p: int, hurst: float) -> np.ndarray:
    """n rows of fractional Gaussian noise of length p."""
    d = np.abs(np.subtract.outer(np.arange(p), np.arange(p))).astype(float)
    h2 = 2.0 * hurst
    Sigma = 0.5 * ((d + 1.0) ** h2 - 2.0 * d**h2 + np.abs(d - 1.0) ** h2)
    return rng.standard_normal((n, p)) @ np.linalg.cholesky(Sigma).T


class SelectWorkload:
    """``covband select`` on AR(1) data with the banded estimator."""

    def __init__(self, name, n, p, N, norm="one_one", k_max=None):
        self.name = name
        self.n, self.p, self.N, self.norm, self.k_max = n, p, N, norm, k_max

    def make_inputs(self, seed: int, work_dir: str) -> dict:
        X = ar1_data(np.random.default_rng(np.random.SeedSequence([seed])), self.n, self.p, RHO)
        path = os.path.join(work_dir, "data.csv")
        _write_csv(path, X)
        return {"X": X, "path": path}

    def argv(self, inputs: dict, seed: int, out_dir: str) -> list[str]:
        argv = ["select", "--data", inputs["path"], "--N", str(self.N)]
        if self.norm != "one_one":
            argv += ["--norm", self.norm]
        if self.k_max is not None:
            argv += ["--k-max", str(self.k_max)]
        return argv + ["--seed", str(seed), "--out", os.path.join(out_dir, "curve.csv")]

    def check(self, inputs: dict, seed: int, out_dir: str, stdout: str) -> None:
        table, comments = _read_table(os.path.join(out_dir, "curve.csv"), "k,risk")
        ks, risk = table[:, 0].astype(int), table[:, 1]
        last = self.p - 1 if self.k_max is None else self.k_max
        if not np.array_equal(ks, np.arange(last + 1)):
            raise CheckFailed(f"curve grid is not 0..{last}")
        k_hat = int(np.argmin(risk))
        if comments != [f"# k_hat={k_hat}"] or f"k_hat={k_hat} " not in stdout:
            raise CheckFailed(f"reported k_hat is not the first argmin {k_hat} of the curve")
        check_ks = sorted({0, k_hat, min(k_hat + 1, last), last})
        _close(risk[check_ks], self.risk(inputs["X"], seed, check_ks), f"risk at k={check_ks}")

    def risk(self, X, seed: int, ks) -> np.ndarray:
        """Split-averaged loss of the banded estimator at each k in ``ks``."""
        n, p = X.shape
        n1 = n // 3
        dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        bands = [dist <= k for k in ks]
        total = np.zeros(len(ks))
        for nu in range(self.N):
            perm = np.random.default_rng(np.random.SeedSequence([seed, nu])).permutation(n)
            S1, S2 = _cov(X[perm[:n1]]), _cov(X[perm[n1:]])
            for i, inside in enumerate(bands):
                E = np.where(inside, S1, 0.0)
                E -= S2
                if self.norm == "one_one":
                    total[i] += np.abs(E, out=E).sum(axis=0).max()
                else:
                    total[i] += np.abs(np.linalg.eigvalsh((E + E.T) / 2)).max()
        return total / self.N


class ForecastWorkload:
    """``covband predict`` with the Cholesky-banded estimator on fgn data."""

    def __init__(self, name, n, p, n_train, split, N):
        self.name = name
        self.n, self.p, self.n_train, self.split, self.N = n, p, n_train, split, N

    def make_inputs(self, seed: int, work_dir: str) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        X = fgn_data(rng, self.n, self.p, HURST)
        path = os.path.join(work_dir, "counts.csv")
        _write_csv(path, X)
        return {"X": X, "path": path}

    def argv(self, inputs: dict, seed: int, out_dir: str) -> list[str]:
        return [
            "predict", "--counts", inputs["path"], "--transform", "none",
            "--n-train", str(self.n_train), "--split", str(self.split),
            "--estimator", "cholesky", "--k", "auto", "--N", str(self.N),
            "--seed", str(seed), "--out", os.path.join(out_dir, "errors.csv"),
        ]

    def check(self, inputs: dict, seed: int, out_dir: str, stdout: str) -> None:
        match = re.match(r"cholesky \(k=(\d+)\): ", stdout)
        if match is None:
            raise CheckFailed(f"no selected k in output {stdout!r}")
        k = int(match.group(1))
        k_cap = min(self.p - 1, self.n_train // 3 - 2)
        if not 0 <= k <= k_cap:
            raise CheckFailed(f"selected k={k} is off the grid 0..{k_cap}")
        X = inputs["X"]
        train, test = X[: self.n_train], X[self.n_train :]
        mu = train.mean(axis=0)
        want_base, want_k = self.errors(train, test, mu, None), self.errors(train, test, mu, k)
        labels = np.arange(self.split + 1, self.p + 1)
        for fname, want in (("errors_baseline.csv", want_base), ("errors.csv", want_k)):
            table, _ = _read_table(os.path.join(out_dir, fname), "j,E_j")
            if not np.array_equal(table[:, 0], labels):
                raise CheckFailed(f"{fname}: coordinates are not {self.split + 1}..{self.p}")
            _close(table[:, 1], want, fname)

    def errors(self, train, test, mu, k) -> np.ndarray:
        """Mean absolute forecast errors; ``k=None`` is the sample-covariance baseline.

        Both predictors come from least-squares fits on the centred training
        rows: the baseline regresses the back block on the front block, and
        the banded Cholesky fit regresses each column on its k predecessors.
        """
        s = self.split
        Xc = train - mu
        if k is None:
            B = np.linalg.lstsq(Xc[:, :s], Xc[:, s:], rcond=None)[0]
        else:
            p = Xc.shape[1]
            A, D = np.zeros((p, p)), np.empty(p)
            for j in range(p):
                m = min(k, j)
                y = Xc[:, j]
                if m:
                    Z = Xc[:, j - m : j]
                    A[j, j - m : j] = np.linalg.lstsq(Z, y, rcond=None)[0]
                    y = y - Z @ A[j, j - m : j]
                D[j] = y @ y / Xc.shape[0]
            Winv = np.linalg.solve(np.eye(p) - A, np.eye(p))
            Sigma = Winv @ np.diag(D) @ Winv.T
            B = np.linalg.solve(Sigma[:s, :s], Sigma[:s, s:])
        preds = mu[s:] + (test[:, :s] - mu[:s]) @ B
        return np.abs(preds - test[:, s:]).mean(axis=0)


class SimulationWorkload:
    """``covband bench`` on the MA(1) Table-1 grid."""

    def __init__(self, name, ps, n, reps, N, n1):
        self.name = name
        self.ps, self.n, self.reps, self.N, self.n1 = ps, n, reps, N, n1

    def make_inputs(self, seed: int, work_dir: str) -> dict:
        return {}

    def argv(self, inputs: dict, seed: int, out_dir: str) -> list[str]:
        argv = ["bench", "--model", f"ma1:rho={RHO}"]
        for p in self.ps:
            argv += ["--p", str(p)]
        return argv + [
            "--n", str(self.n), "--reps", str(self.reps), "--N", str(self.N),
            "--n1", str(self.n1), "--seed", str(seed), "--out-dir", out_dir,
        ]

    def check(self, inputs: dict, seed: int, out_dir: str, stdout: str) -> None:
        names = sorted(os.listdir(out_dir))
        if len(names) != 3 * len(self.ps) + 1 or "ratio_table.csv" not in names:
            raise CheckFailed(f"unexpected output files {names}")
        reports = sorted(glob.glob(os.path.join(out_dir, "report_*.csv")))
        seen_p = []
        for path in reports:
            table, comments = _read_table(path, "rep,k_hat,k1,loss_k_hat,loss_k0,loss_k1,loss_sample")
            spec = dict(
                tok.split("=", 1) for c in comments if c.startswith("# spec ") for tok in c[7:].split()
            )
            p = int(spec["p"])
            seen_p.append(p)
            if int(spec["seed"]) != seed or int(spec["n"]) != self.n:
                raise CheckFailed(f"{os.path.basename(path)}: spec {spec} does not match the op")
            if not np.array_equal(table[:, 0], np.arange(self.reps)):
                raise CheckFailed(f"{os.path.basename(path)}: replications are not 0..{self.reps - 1}")
            loss_k_hat, loss_k0, loss_k1, loss_sample = table[:, 3:7].T
            if np.any(loss_k1 > loss_k_hat) or np.any(loss_k1 > loss_k0):
                raise CheckFailed(f"{os.path.basename(path)}: loss_k1 exceeds loss_k_hat or loss_k0")
            _close(loss_sample, self.sample_losses(seed, p), f"p={p} loss_sample")
        if sorted(seen_p) != sorted(self.ps):
            raise CheckFailed(f"reports cover p={seen_p}, expected {list(self.ps)}")

    def sample_losses(self, seed: int, p: int) -> np.ndarray:
        """(1,1)-norm loss of the sample covariance of every replication."""
        Sigma = np.eye(p) + RHO * (np.eye(p, k=1) + np.eye(p, k=-1))
        L = np.linalg.cholesky(Sigma)
        out = np.empty(self.reps)
        for r in range(self.reps):
            Z = np.random.default_rng(np.random.SeedSequence([seed, r, 0])).standard_normal((self.n, p))
            out[r] = np.abs(_cov(Z @ L.T) - Sigma).sum(axis=0).max()
        return out


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SelectWorkload("select-p1000", n=100, p=1000, N=50),
        SelectWorkload("select-operator-p400", n=100, p=400, N=10, norm="operator", k_max=29),
        ForecastWorkload("forecast-cholesky", n=239, p=102, n_train=205, split=51, N=10),
        SimulationWorkload("sim-table1", ps=(10, 100, 200), n=100, reps=10, N=50, n1=33),
    )
}
