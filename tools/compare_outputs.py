"""Run a fixed set of covband commands against two source trees and compare.

Usage::

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC OUT_DIR

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that contain the
``covband`` package (a checkout's ``src``).  Every command runs in its own
subprocess with ``PYTHONPATH=<src>`` and ``OPENBLAS_NUM_THREADS=1``, in its
own working directory ``OUT_DIR/<parent|change>/<name>``, on inputs that
this script writes once to ``OUT_DIR/inputs`` with plain numpy.  Paths in
the command lines are relative, so printed lines can be compared as text.

For each command the exit code, stdout, stderr, every written file and
every directory made (an empty one too) are compared byte for byte.  For a
CSV that differs, the largest relative difference over its numeric fields
is printed.  The exit status is 0 only
when everything is identical.  Each tree takes well under two minutes.
"""

from __future__ import annotations

import csv
import difflib
import os
import re
import subprocess
import sys

import numpy as np

INPUTS = "../../inputs"

# (name, argv after "covband"); every output path is relative to the
# command's own directory
COMMANDS = [
    ("simulate-matrix", ["simulate", "--model", "fgn:H=0.9", "--p", "100", "--out", "sigma.csv"]),
    ("simulate-data", ["simulate", "--model", "ar1:rho=0.5", "--p", "200", "--n", "100",
                       "--seed", "5", "--out", "data.csv"]),
    ("estimate-sample", ["estimate", "--data", f"{INPUTS}/ar1_p102.csv",
                         "--estimator", "sample", "--out", "est.csv"]),
    ("estimate-tapered", ["estimate", "--data", f"{INPUTS}/ar1_p102.csv",
                          "--estimator", "tapered", "--taper", "triangular:6",
                          "--out", "est.csv"]),
    ("estimate-cholesky", ["estimate", "--data", f"{INPUTS}/walk_p102.csv",
                           "--estimator", "cholesky", "--k", "5", "--out", "est.csv",
                           "--precision-out", "prec.csv"]),
    ("select-banded", ["select", "--data", f"{INPUTS}/ar1_p400.csv", "--N", "20",
                       "--seed", "3", "--out", "curve.csv"]),
    ("select-banded-p1000", ["select", "--data", f"{INPUTS}/ar1_p1000.csv", "--N", "10",
                             "--seed", "3", "--out", "curve.csv"]),
    ("select-banded-kmax40", ["select", "--data", f"{INPUTS}/ar1_p400.csv", "--N", "20",
                              "--k-max", "40", "--seed", "3", "--out", "curve.csv"]),
    ("select-operator", ["select", "--data", f"{INPUTS}/ar1_p200.csv", "--norm", "operator",
                         "--N", "5", "--k-max", "30", "--seed", "3", "--out", "curve.csv"]),
    ("select-operator-p400", ["select", "--data", f"{INPUTS}/ar1_p400.csv", "--N", "10",
                              "--norm", "operator", "--k-max", "29", "--seed", "3",
                              "--out", "curve.csv"]),
    ("select-cholesky", ["select", "--data", f"{INPUTS}/walk_p102.csv", "--estimator",
                         "cholesky", "--N", "10", "--seed", "3", "--out", "curve.csv"]),
    # p = 200: the Cholesky estimates take the Lanczos operator norm
    ("select-cholesky-operator", ["select", "--data", f"{INPUTS}/ar1_p200.csv", "--estimator",
                                  "cholesky", "--norm", "operator", "--N", "5", "--seed", "3",
                                  "--out", "curve.csv"]),
    ("bench-banded", ["bench", "--model", "ma1:rho=0.5", "--p", "10", "--p", "100",
                      "--n", "100", "--reps", "5", "--N", "10", "--seed", "7",
                      "--out-dir", "bench"]),
    ("bench-cholesky-operator", ["bench", "--model", "ar1:rho=0.7", "--p", "30", "--n", "60",
                                 "--reps", "3", "--N", "5", "--estimator", "cholesky",
                                 "--norm", "operator", "--seed", "7", "--out-dir", "bench"]),
    ("predict-cholesky-auto", ["predict", "--counts", f"{INPUTS}/counts.csv", "--n-train", "45",
                               "--split", "12", "--k", "auto", "--N", "10", "--seed", "19",
                               "--out", "fc.csv"]),
    # the forecast benchmark's surrogate: at k = n1 - 2 = 66 the regressions are
    # nearly singular
    ("predict-cholesky-fgn", ["predict", "--counts", f"{INPUTS}/fgn_p102.csv", "--transform",
                              "none", "--n-train", "205", "--split", "51", "--estimator",
                              "cholesky", "--k", "auto", "--N", "10", "--seed", "19",
                              "--out", "fc.csv"]),
    ("predict-banded-k3", ["predict", "--counts", f"{INPUTS}/counts.csv", "--n-train", "45",
                           "--split", "12", "--estimator", "banded", "--k", "3",
                           "--out", "fc.csv"]),
    # p = 200: the oracle curves run Lanczos against the dense truth
    ("bench-banded-operator", ["bench", "--model", "ar1:rho=0.5", "--p", "200", "--n", "100",
                               "--reps", "2", "--N", "5", "--norm", "operator", "--seed", "7",
                               "--out-dir", "bench"]),
    # a negative seed, on every command that takes --seed
    ("negative-seed-simulate", ["simulate", "--model", "ar1:rho=0.5", "--p", "5", "--n", "10",
                                "--seed", "-1", "--out", "data.csv"]),
    ("negative-seed-select", ["select", "--data", f"{INPUTS}/ar1_p102.csv", "--seed", "-1",
                              "--out", "curve.csv"]),
    ("negative-seed-bench", ["bench", "--model", "ma1:rho=0.5", "--p", "10", "--n", "30",
                             "--reps", "1", "--N", "2", "--seed", "-1", "--out-dir", "bench"]),
    ("negative-seed-predict-auto", ["predict", "--counts", f"{INPUTS}/counts.csv",
                                    "--n-train", "45", "--split", "12", "--k", "auto",
                                    "--seed", "-1", "--out", "fc.csv"]),
    ("negative-seed-predict-k3", ["predict", "--counts", f"{INPUTS}/counts.csv",
                                  "--n-train", "45", "--split", "12", "--estimator", "banded",
                                  "--k", "3", "--seed", "-1", "--out", "fc.csv"]),
    # usage errors that must be reported before any file is written
    ("bench-invalid-second-model", ["bench", "--model", "ar1:rho=0.5", "--model", "ar1:rho=2",
                                    "--p", "10", "--n", "30", "--reps", "1", "--N", "2",
                                    "--seed", "7", "--out-dir", "bench"]),
    ("bench-invalid-n1", ["bench", "--model", "ma1:rho=0.5", "--p", "5", "--n", "10",
                          "--reps", "1", "--N", "2", "--n1", "1", "--seed", "7",
                          "--out-dir", "bench"]),
    ("predict-baseline-equals-out", ["predict", "--counts", f"{INPUTS}/counts.csv",
                                     "--n-train", "45", "--split", "12", "--estimator", "banded",
                                     "--k", "3", "--out", "fc.csv", "--baseline-out", "fc.csv"]),
]


def write_ar1(directory: str, rng, p: int) -> None:
    """100 rows of an AR(1) series, rho = 0.5, along p coordinates."""
    Z = rng.standard_normal((100, p))
    X = np.empty_like(Z)
    X[:, 0] = Z[:, 0]
    for j in range(1, p):
        X[:, j] = 0.5 * X[:, j - 1] + np.sqrt(0.75) * Z[:, j]
    np.savetxt(os.path.join(directory, f"ar1_p{p}.csv"), X, delimiter=",", fmt="%.17g")


def write_inputs(directory: str) -> None:
    """Data files drawn with plain numpy, the same for both trees."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(2024)
    for p in (102, 200, 400):
        write_ar1(directory, rng, p)
    walk = np.cumsum(rng.standard_normal((100, 102)), axis=1)
    np.savetxt(os.path.join(directory, "walk_p102.csv"), walk, delimiter=",", fmt="%.17g")
    counts = rng.poisson(16.0, size=(60, 24))
    header = ",".join(f"iv{j}" for j in range(24))
    np.savetxt(os.path.join(directory, "counts.csv"), counts, delimiter=",", fmt="%d",
               header=header, comments="")
    write_ar1(directory, rng, 1000)
    # drawn last, so the earlier inputs keep their values: 239 rows of
    # fractional Gaussian noise, H = 0.9, along 102 coordinates
    d = np.abs(np.subtract.outer(np.arange(102), np.arange(102))).astype(float)
    fgn = 0.5 * ((d + 1.0) ** 1.8 - 2.0 * d**1.8 + np.abs(d - 1.0) ** 1.8)
    X = rng.standard_normal((239, 102)) @ np.linalg.cholesky(fgn).T
    np.savetxt(os.path.join(directory, "fgn_p102.csv"), X, delimiter=",", fmt="%.17g")


def run_tree(src: str, out_dir: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": "1"}
    for name, argv in COMMANDS:
        cwd = os.path.join(out_dir, name)
        os.makedirs(cwd)
        result = subprocess.run([sys.executable, "-m", "covband.cli", *argv], cwd=cwd, env=env,
                                capture_output=True)
        # kept beside the written files, so they are compared the same way
        with open(os.path.join(cwd, "exit_code.txt"), "w") as fh:
            fh.write(f"{result.returncode}\n")
        with open(os.path.join(cwd, "stdout.txt"), "wb") as fh:
            fh.write(result.stdout)
        with open(os.path.join(cwd, "stderr.txt"), "wb") as fh:
            fh.write(result.stderr)


def files_under(directory: str) -> set[str]:
    """Every file below ``directory``, and every directory with a trailing
    ``/``, so that a directory left behind empty is compared too."""
    return {
        os.path.relpath(os.path.join(root, f), directory) + end
        for root, dirs, names in os.walk(directory)
        for entries, end in ((dirs, "/"), (names, "")) for f in entries
    }


def max_relative_difference(a_path: str, b_path: str) -> str:
    """Largest |a - b| / max(|a|, |b|) over the numbers in two CSVs of the
    same layout, or why it cannot be taken.  A field is split into tokens at
    whitespace and ``=``, so numbers in comment lines such as
    ``# agg loss_k0 mean=... sd=...`` count too."""
    with open(a_path, newline="") as fa, open(b_path, newline="") as fb:
        tokens_a, tokens_b = (
            [re.split(r"[\s=]+", field) for row in csv.reader(fh) for field in row]
            for fh in (fa, fb)
        )
    if [len(t) for t in tokens_a] != [len(t) for t in tokens_b]:
        return "different layout"
    worst, text_differs = 0.0, False
    for ta, tb in zip(tokens_a, tokens_b):
        for x, y in zip(ta, tb):
            try:
                u, v = float(x), float(y)
            except ValueError:
                text_differs |= x != y
                continue
            if u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    note = "; a text field differs" if text_differs else ""
    return f"max relative difference {worst:.3g}{note}"


def compare(parent_dir: str, change_dir: str) -> int:
    """Print one line per command (and one per differing file); return the
    number of commands whose outputs differ."""
    differing = 0
    for name, _ in COMMANDS:
        a_dir, b_dir = os.path.join(parent_dir, name), os.path.join(change_dir, name)
        a_files, b_files = files_under(a_dir), files_under(b_dir)
        notes = [f"only in parent: {f}" for f in sorted(a_files - b_files)]
        notes += [f"only in change: {f}" for f in sorted(b_files - a_files)]
        for f in sorted(f for f in a_files & b_files if not f.endswith("/")):
            a_path, b_path = os.path.join(a_dir, f), os.path.join(b_dir, f)
            with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
                a_bytes, b_bytes = fa.read(), fb.read()
            if a_bytes == b_bytes:
                continue
            if f.endswith(".txt"):
                diff = difflib.unified_diff(
                    a_bytes.decode(errors="replace").splitlines(),
                    b_bytes.decode(errors="replace").splitlines(),
                    "parent", "change", lineterm="", n=0,
                )
                notes.append(f"{f} differs:\n" + "\n".join("      " + d for d in list(diff)[2:]))
            else:
                notes.append(f"{f} differs: {max_relative_difference(a_path, b_path)}")
        n = sum(not f.endswith("/") for f in a_files | b_files)
        if notes:
            differing += 1
            print(f"DIFFERS   {name} ({n} files)")
            for note in notes:
                print(f"    {note}")
        else:
            print(f"identical {name} ({n} files)")
    return differing


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC OUT_DIR",
              file=sys.stderr)
        return 2
    parent_src, change_src, out_dir = argv
    if os.path.exists(out_dir) and os.listdir(out_dir):
        print(f"{out_dir} is not empty", file=sys.stderr)
        return 2
    write_inputs(os.path.join(out_dir, "inputs"))
    parent_dir, change_dir = os.path.join(out_dir, "parent"), os.path.join(out_dir, "change")
    run_tree(parent_src, parent_dir)
    run_tree(change_src, change_dir)
    differing = compare(parent_dir, change_dir)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands identical "
          "(exit code, stdout, stderr and every written file)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
