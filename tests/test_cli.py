import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import covband
from covband.bench import parse_spec, read_experiment_report
from covband.cli import main, parse_taper
from covband.estimators import load_data_csv, sample_covariance
from covband.matcore import TaperSpec, _openblas_threads, band, load_matrix_csv
from covband.selection import read_risk_curve
from covband.simgen import build_covariance, parse_model, sample_gaussian


def run(*argv):
    return main(list(argv))


def package_env():
    """The environment with this covband's source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(covband.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "simulate" in capsys.readouterr().out


def test_no_arguments_is_a_usage_error(capsys):
    assert run() == 1


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run("frobnicate") == 1


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run("estimate", "--data", str(tmp_path / "none.csv"),
               "--estimator", "sample", "--out", str(out))
    assert code == 2
    assert "covband:" in capsys.readouterr().err


def test_semantic_flag_conflicts_are_usage_errors(tmp_path, capsys):
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(0).standard_normal((10, 3)), delimiter=",")
    out = tmp_path / "o.csv"
    assert run("estimate", "--data", str(data), "--estimator", "banded",
               "--out", str(out)) == 1
    assert run("estimate", "--data", str(data), "--estimator", "tapered",
               "--out", str(out)) == 1
    assert run("estimate", "--data", str(data), "--estimator", "sample",
               "--out", str(out), "--precision-out", str(tmp_path / "p.csv")) == 1
    assert run("simulate", "--model", "ar1:rho=2.0", "--p", "5",
               "--out", str(out)) == 1
    assert run("simulate", "--model", "ar1:rho=0.5", "--p", "5", "--n", "10",
               "--out", str(out)) == 1  # sampling without a seed


def test_estimation_failures_are_data_errors(tmp_path, capsys):
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(1).standard_normal((6, 10)), delimiter=",")
    code = run("estimate", "--data", str(data), "--estimator", "cholesky",
               "--k", "8", "--out", str(tmp_path / "o.csv"))
    assert code == 2  # bandwidth exceeds what n = 6 rows can support


def test_linear_algebra_failures_are_data_errors(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which would otherwise mean exit 1
    def fail(X):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("covband.estimators.sample_covariance", fail)
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(2).standard_normal((10, 3)), delimiter=",")
    code = run("estimate", "--data", str(data), "--estimator", "sample",
               "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "select"])
@pytest.mark.parametrize("content", ["", "\n\n"])
def test_empty_data_file_is_a_data_error(tmp_path, capsys, command, content):
    data = tmp_path / "empty.csv"
    data.write_text(content)
    out = str(tmp_path / "o.csv")
    if command == "estimate":
        argv = ("estimate", "--data", str(data), "--estimator", "sample", "--out", out)
    else:
        argv = ("select", "--data", str(data), "--seed", "0", "--out", out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(*argv)
    assert code == 2
    assert "no data rows" in capsys.readouterr().err


def test_non_utf8_counts_file_is_a_data_error(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError, which would otherwise mean exit 1
    counts = tmp_path / "counts.csv"
    counts.write_bytes(b"\xff\xfe1,2\n3,4\n")
    code = run("predict", "--counts", str(counts), "--n-train", "1", "--split", "1",
               "--estimator", "sample", "--out", str(tmp_path / "fc.csv"))
    assert code == 2
    assert str(counts) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "predict"])
def test_infinite_indicator_bandwidth_is_a_usage_error(tmp_path, command):
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(3).poisson(5.0, (12, 4)), delimiter=",")
    out = str(tmp_path / "o.csv")
    taper = ("--estimator", "tapered", "--taper", "banding-indicator:inf")
    if command == "estimate":
        argv = ("estimate", "--data", str(data), *taper, "--out", out)
    else:
        argv = ("predict", "--counts", str(data), "--n-train", "8", "--split", "2",
                *taper, "--out", out)
    result = subprocess.run([sys.executable, "-m", "covband.cli", *argv], env=package_env(),
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("covband: ")
    assert "nonnegative integer" in lines[0]


def test_importing_the_package_loads_no_scipy():
    code = "import sys, covband.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_model_covariance(tmp_path):
    out = tmp_path / "sigma.csv"
    assert run("simulate", "--model", "ma1:rho=0.5", "--p", "7",
               "--out", str(out)) == 0
    S = load_matrix_csv(out)
    assert_array_equal(S, build_covariance(parse_model("ma1:rho=0.5"), 7))


def test_simulate_writes_sampled_data(tmp_path):
    out = tmp_path / "x.csv"
    assert run("simulate", "--model", "ar1:rho=0.6", "--p", "5", "--n", "20",
               "--seed", "11", "--out", str(out)) == 0
    X = load_data_csv(out)
    Sigma = build_covariance(parse_model("ar1:rho=0.6"), 5)
    assert_array_equal(X, sample_gaussian(Sigma, 20, 11))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@pytest.fixture()
def data_file(tmp_path):
    Sigma = build_covariance(parse_model("ar1:rho=0.5"), 6)
    X = sample_gaussian(Sigma, 40, 5)
    path = tmp_path / "data.csv"
    np.savetxt(path, X, delimiter=",", fmt="%.17g")
    return path, X


def test_estimate_banded(tmp_path, data_file):
    path, X = data_file
    out = tmp_path / "est.csv"
    assert run("estimate", "--data", str(path), "--estimator", "banded",
               "--k", "2", "--out", str(out)) == 0
    assert_array_equal(load_matrix_csv(out), band(sample_covariance(X), 2))


def test_estimate_cholesky_with_precision(tmp_path, data_file):
    path, X = data_file
    out = tmp_path / "est.csv"
    prec_out = tmp_path / "prec.csv"
    assert run("estimate", "--data", str(path), "--estimator", "cholesky",
               "--k", "3", "--out", str(out), "--precision-out", str(prec_out)) == 0
    C = load_matrix_csv(out)
    P = load_matrix_csv(prec_out)
    assert np.max(np.abs(P @ C - np.eye(6))) <= 1e-8


def test_precision_out_without_k_is_a_usage_error(tmp_path, data_file, capsys):
    path, _ = data_file
    assert run("estimate", "--data", str(path), "--estimator", "cholesky",
               "--out", str(tmp_path / "est.csv"),
               "--precision-out", str(tmp_path / "prec.csv")) == 1
    assert "--k" in capsys.readouterr().err


def test_estimate_tapered(tmp_path, data_file):
    path, X = data_file
    out = tmp_path / "est.csv"
    assert run("estimate", "--data", str(path), "--estimator", "tapered",
               "--taper", "banding-indicator:2", "--out", str(out)) == 0
    assert_array_equal(load_matrix_csv(out), band(sample_covariance(X), 2))


def test_parse_taper():
    assert parse_taper("triangular:4.0") == TaperSpec("triangular", 4.0)
    with pytest.raises(ValueError):
        parse_taper("triangular")
    with pytest.raises(ValueError):
        parse_taper("triangular:abc")


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_writes_curve_and_is_deterministic(tmp_path, data_file, capsys):
    path, _ = data_file
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert run("select", "--data", str(path), "--seed", "3",
               "--out", str(out1)) == 0
    assert run("select", "--data", str(path), "--seed", "3",
               "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    ks, risks, k_hat = read_risk_curve(out1)
    assert_array_equal(ks, np.arange(6))
    assert k_hat == int(np.argmin(risks))
    assert f"k_hat={k_hat}" in capsys.readouterr().out


def test_select_with_restricted_grid(tmp_path, data_file):
    path, _ = data_file
    out = tmp_path / "c.csv"
    assert run("select", "--data", str(path), "--seed", "3", "--k-max", "2",
               "--out", str(out)) == 0
    ks, _, _ = read_risk_curve(out)
    assert_array_equal(ks, [0, 1, 2])


@pytest.mark.parametrize("command", ["simulate", "select", "bench", "predict-auto", "predict-k3"])
def test_negative_seed_is_one_usage_error_for_every_command(tmp_path, data_file, capsys,
                                                            command):
    counts = tmp_path / "counts.csv"
    np.savetxt(counts, np.random.default_rng(3).poisson(5.0, (12, 4)), delimiter=",")
    out = tmp_path / "out"
    argv = {
        "simulate": ("simulate", "--model", "ar1:rho=0.5", "--p", "5", "--n", "10",
                     "--out", str(out)),
        "select": ("select", "--data", str(data_file[0]), "--out", str(out)),
        "bench": ("bench", "--model", "ma1:rho=0.5", "--p", "8", "--n", "30", "--reps", "1",
                  "--N", "2", "--out-dir", str(out)),
        "predict-auto": ("predict", "--counts", str(counts), "--n-train", "8", "--split", "2",
                         "--k", "auto", "--out", str(out)),
        "predict-k3": ("predict", "--counts", str(counts), "--n-train", "8", "--split", "2",
                       "--k", "3", "--out", str(out)),
    }[command]
    assert run(*argv, "--seed", "-1") == 1
    assert "--seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "data.csv"]


def test_select_requires_seed(tmp_path, data_file):
    path, _ = data_file
    assert run("select", "--data", str(path), "--out", str(tmp_path / "c.csv")) == 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_writes_reports_and_curves(tmp_path):
    out_dir = tmp_path / "bench"
    assert run("bench", "--model", "ma1:rho=0.5", "--p", "8", "--p", "10",
               "--n", "30", "--reps", "2", "--N", "4", "--seed", "13",
               "--out-dir", str(out_dir)) == 0
    slugs = ["banded_ma1_rho0.5_p8_n30", "banded_ma1_rho0.5_p10_n30"]
    for slug in slugs:
        assert (out_dir / f"report_{slug}.csv").exists()
        assert (out_dir / f"true_risk_{slug}.csv").exists()
        assert (out_dir / f"est_risk_{slug}.csv").exists()
    assert (out_dir / "ratio_table.csv").exists()
    spec_text, k0, _, records = read_experiment_report(
        out_dir / f"report_{slugs[0]}.csv"
    )
    spec = parse_spec(spec_text)
    assert spec.p == 8 and spec.reps == 2 and spec.seed == 13
    assert len(records) == 2
    ks, risks, marked = read_risk_curve(out_dir / f"true_risk_{slugs[0]}.csv")
    assert marked == k0
    assert risks[list(ks).index(k0)] == risks.min()


@pytest.mark.parametrize("bad", [("--model", "ar1:rho=2"), ("--n", "3"), ("--n1", "1"),
                                 ("--n1", "23")],
                         ids=["second_model", "n", "n1_small", "n1_large"])
def test_bench_usage_errors_write_no_file(tmp_path, capsys, bad):
    # every configuration is checked before the output directory is made
    out_dir = tmp_path / "bench"
    assert run("bench", "--model", "ar1:rho=0.5", "--p", "6", "--n", "24", "--reps", "1",
               "--N", "2", "--seed", "3", *bad, "--out-dir", str(out_dir)) == 1
    assert "covband:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_split_too_small_for_a_group_makes_no_directory(tmp_path, capsys):
    # --n1 1 leaves one row in the fitted group: a usage error, found
    # before --out-dir is made
    out_dir = tmp_path / "bench"
    assert run("bench", "--model", "ma1:rho=0.5", "--p", "5", "--n", "10", "--reps", "1",
               "--N", "2", "--n1", "1", "--seed", "7", "--out-dir", str(out_dir)) == 1
    assert "n1=1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_is_byte_deterministic(tmp_path):
    args = ["bench", "--model", "ar1:rho=0.5", "--p", "6", "--n", "24",
            "--reps", "2", "--N", "3", "--seed", "7"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(*args, "--out-dir", str(d1)) == 0
    assert run(*args, "--out-dir", str(d2)) == 0
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes()


def test_bench_reproducibility_across_blas_thread_settings(tmp_path):
    # two processes with one BLAS thread setting write the same bytes, and a
    # process with another setting selects the same bandwidths
    def bench(threads, out_dir):
        env = {**package_env(), "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-m", "covband.cli", "bench",
                        "--model", "ar1:rho=0.7", "--p", "150", "--n", "60", "--reps", "2",
                        "--N", "4", "--estimator", "cholesky", "--norm", "operator",
                        "--seed", "3", "--out-dir", str(out_dir)],
                       env=env, capture_output=True, check=True)
        return out_dir

    first, second = bench(2, tmp_path / "a"), bench(2, tmp_path / "b")
    one = bench(1, tmp_path / "c")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    report = "report_cholesky_ar1_rho0.7_p150_n60.csv"
    _, k0_two, _, records_two = read_experiment_report(first / report)
    _, k0_one, _, records_one = read_experiment_report(one / report)
    assert k0_one == k0_two
    assert [(r.k_hat, r.k1) for r in records_one] == [(r.k_hat, r.k1) for r in records_two]


def test_bench_files_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # the sampler and every curve run capped at one BLAS thread, so a process
    # started with two threads writes the bytes of one started with one
    def bench(threads):
        out_dir = tmp_path / str(threads)
        env = {**package_env(), "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-m", "covband.cli", "bench",
                        "--model", "ar1:rho=0.7", "--p", "150", "--n", "60", "--reps", "2",
                        "--N", "4", "--estimator", "cholesky", "--norm", "operator",
                        "--seed", "3", "--out-dir", str(out_dir)],
                       env=env, capture_output=True, check=True)
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    one, two = bench(1), bench(2)
    assert len(one) == 4
    assert one == two


def test_simulated_data_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # sample_gaussian factors and maps on one BLAS thread
    if _openblas_threads() is None:
        pytest.skip("numpy is not linked against OpenBLAS")

    def simulate(threads):
        out = tmp_path / f"x{threads}.csv"
        env = {**package_env(), "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-m", "covband.cli", "simulate",
                        "--model", "ar1:rho=0.5", "--p", "400", "--n", "100",
                        "--seed", "5", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        return out.read_bytes()

    assert simulate(1) == simulate(2)


def test_estimated_matrices_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # estimate fits on one BLAS thread, its Cholesky precision included
    if _openblas_threads() is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    data = tmp_path / "fgn.csv"
    np.savetxt(data, sample_gaussian(build_covariance(parse_model("fgn:H=0.9"), 102), 100, 5),
               delimiter=",", fmt="%.17g")

    def estimate(threads):
        env = {**package_env(), "OPENBLAS_NUM_THREADS": str(threads)}
        out = tmp_path / str(threads)
        out.mkdir()
        for args in (["--estimator", "sample", "--out", str(out / "sample.csv")],
                     ["--estimator", "cholesky", "--k", "98", "--out", str(out / "chol.csv"),
                      "--precision-out", str(out / "prec.csv")]):
            subprocess.run([sys.executable, "-m", "covband.cli", "estimate",
                            "--data", str(data), *args],
                           env=env, capture_output=True, check=True)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    one = estimate(1)
    assert len(one) == 3
    assert estimate(2) == one


def test_banded_risk_curve_does_not_depend_on_the_blas_thread_setting(tmp_path):
    # the banded (1,1) curve takes its Gram products on one BLAS thread; at
    # p = 400 it walks the coordinates in several row blocks
    if _openblas_threads() is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    data = tmp_path / "ar1.csv"
    np.savetxt(data, sample_gaussian(build_covariance(parse_model("ar1:rho=0.5"), 400), 100, 6),
               delimiter=",", fmt="%.17g")

    def select(threads):
        out = tmp_path / f"curve{threads}.csv"
        env = {**package_env(), "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-m", "covband.cli", "select", "--data", str(data),
                        "--N", "5", "--seed", "3", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        return out.read_bytes()

    assert select(1) == select(2)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


@pytest.fixture()
def counts_file(tmp_path):
    rng = np.random.default_rng(17)
    counts = rng.poisson(16.0, size=(60, 10))
    path = tmp_path / "counts.csv"
    with open(path, "w") as fh:
        fh.write(",".join(f"iv{j}" for j in range(10)) + "\n")
        for row in counts:
            fh.write(",".join(str(int(v)) for v in row) + "\n")
    return path


def test_predict_writes_error_reports(tmp_path, counts_file, capsys):
    out = tmp_path / "fc.csv"
    assert run("predict", "--counts", str(counts_file), "--n-train", "45",
               "--split", "5", "--estimator", "cholesky", "--k", "auto",
               "--seed", "19", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,E_j"
    assert lines[1].startswith("6,")  # predicted coordinates are 6..10
    assert len(lines) == 6
    baseline = tmp_path / "fc_baseline.csv"
    assert baseline.exists()
    assert "baseline" in capsys.readouterr().out


def test_predict_auto_requires_seed(tmp_path, counts_file):
    code = run("predict", "--counts", str(counts_file), "--n-train", "45",
               "--split", "5", "--k", "auto", "--out", str(tmp_path / "fc.csv"))
    assert code == 1


def test_predict_rejects_non_integer_bandwidth(tmp_path, counts_file):
    code = run("predict", "--counts", str(counts_file), "--n-train", "45",
               "--split", "5", "--k", "few", "--out", str(tmp_path / "fc.csv"))
    assert code == 1


def test_missing_estimator_arguments_name_their_flags(tmp_path, counts_file, capsys):
    out = str(tmp_path / "o.csv")
    assert run("predict", "--counts", str(counts_file), "--n-train", "45", "--split", "5",
               "--estimator", "tapered", "--out", out) == 1
    assert "--taper" in capsys.readouterr().err
    data = tmp_path / "d.csv"
    np.savetxt(data, np.random.default_rng(3).standard_normal((10, 3)), delimiter=",")
    for kind in ("banded", "cholesky"):
        assert run("estimate", "--data", str(data), "--estimator", kind, "--out", out) == 1
        assert "--k" in capsys.readouterr().err


def test_predict_sample_estimator_matches_baseline(tmp_path, counts_file):
    out = tmp_path / "fc.csv"
    assert run("predict", "--counts", str(counts_file), "--n-train", "45",
               "--split", "5", "--estimator", "sample", "--out", str(out)) == 0
    main_lines = out.read_text()
    base_lines = (tmp_path / "fc_baseline.csv").read_text()
    assert main_lines == base_lines


def test_predict_explicit_baseline_path(tmp_path, counts_file):
    out = tmp_path / "fc.csv"
    base = tmp_path / "other.csv"
    assert run("predict", "--counts", str(counts_file), "--n-train", "45",
               "--split", "5", "--estimator", "banded", "--k", "1",
               "--out", str(out), "--baseline-out", str(base)) == 0
    assert base.exists()


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_predict_rejects_a_baseline_path_equal_to_out(tmp_path, counts_file, capsys, spelling):
    out = tmp_path / "fc.csv"
    base = out if spelling == "same" else tmp_path / "sub" / ".." / "fc.csv"
    (tmp_path / "sub").mkdir()
    assert run("predict", "--counts", str(counts_file), "--n-train", "45",
               "--split", "5", "--estimator", "banded", "--k", "1",
               "--out", str(out), "--baseline-out", str(base)) == 1
    assert "--baseline-out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "sub"]
