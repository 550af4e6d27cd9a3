"""Package-wide rules: module boundaries, the README's API names and the
numpy-only install."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "covband"
README = ROOT / "README.md"


def test_no_module_imports_another_modules_private_names():
    assert PACKAGE_DIR.is_dir()
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("covband"):
                continue  # a third-party import
            offenders += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_every_module_level_import_is_used():
    # a deletion must not leave a dead import behind; a re-export says so with
    # "# noqa: F401" on its line.  __init__.py is exempt: its imports are the API
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{alias.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in names
                           and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert unused == []


def _readme_module_table():
    """(module, backticked names) per row of the README's module table.

    A parenthesised list of backticked values right after a name, such as
    the norms of ``matrix_norm``, names values, not API, and is left out.
    """
    rows = re.findall(r"^\| `(covband\.\w+)` \| (.+) \|$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE)
    value_list = re.compile(r"(`\w+`) \((?:`\w+`(?:, )?)+\)")
    return [(module, re.findall(r"`(\w+)`", value_list.sub(r"\1", text)))
            for module, text in rows]


PUBLIC_API = set("""
BandedCholeskyFactors BandwidthTooLarge CovarianceModel CovbandError
DEGENERACY_GAP DataFormatError ESTIMATORS ESTIMATOR_KINDS EigenComparison
EigenDecomposition ExperimentReport ExperimentSpec ForecastOutcome
InsufficientData MODEL_KINDS NORMS NotPositiveDefinite PartitionedMoments
ReplicationRecord RiskCurve SELECTION_NORMS SelectionResult SingularBlock
SingularDesign SpectralDegeneracy TAPER_FAMILIES TRANSFORMS TaperSpec
ZeroTrace band banded_covariance build_covariance cholesky_banded_covariance
cholesky_covariance_path cholesky_factor conditional_coefficients
default_k_grid effective_bandwidth eigen_compare estimate_risk
factors_to_matrices fit_banded_cholesky fit_covariance forecast_error
forecast_workflow ingest_counts is_positive_definite load_data_csv
load_matrix_csv log_split_size matrix_norm oracle_k0 oracle_k1 parse_model
parse_spec partition_moments predict_second_half read_experiment_report
read_risk_curve require_symmetric run_simulation_experiment
sample_covariance sample_gaussian save_data_csv save_matrix_csv
schur_product select_k substream substream_seed sym_eigen symmetrize
taper_weights tapered_covariance theoretical_bandwidth variance_captured
write_comparison_csv write_experiment_report write_forecast_report
write_ratio_table write_risk_curve
""".split())


def test_all_is_the_public_api_and_no_module():
    # __all__ is derived from the names the package imports, so a submodule
    # (bound as a side effect of those imports) must not leak into it
    import covband

    assert len(covband.__all__) == len(PUBLIC_API) == 80
    assert set(covband.__all__) == PUBLIC_API
    assert not [name for name in covband.__all__
                if isinstance(getattr(covband, name), types.ModuleType)]


def test_readme_module_table_names_exist():
    table = _readme_module_table()
    assert len(table) == 9
    missing = [f"{module}.{name}" for module, names in table
               for name in names
               if name != "covband"  # the command in the cli row
               and not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_package_runs_without_scipy():
    # the package depends on numpy alone: importing it and selecting a
    # bandwidth in the operator norm (Lanczos size) must not need scipy
    script = """
import sys
sys.modules["scipy"] = None
import numpy as np
import covband
from covband.selection import estimate_risk
X = np.random.default_rng(0).standard_normal((12, 240))
curve = estimate_risk(X, k_grid=[0, 2, 5], N=2, norm="operator")
assert np.all(np.isfinite(curve.risk))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_failing_property_is_reported_by_name(tmp_path):
    # under the repo's warning filters a failing hypothesis property must end
    # as an ordinary failure with its falsifying example, not INTERNALERROR
    (tmp_path / "test_prop.py").write_text("""
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers(0, 100))
def test_deliberately_failing_property(x):
    assert x < 50
""", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "test_deliberately_failing_property" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


def test_property_examples_do_not_depend_on_imported_modules(tmp_path):
    # conftest.py pins hypothesis's pool of source constants; unpinned,
    # importing one more module full of literals changes the examples drawn
    from hypothesis import given, settings
    from hypothesis import strategies as st

    drawn = []

    @settings(database=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def draw(value):
        drawn[-1].append(value)

    drawn.append([])
    draw()
    literals = ", ".join(str(7919 * i + 13) for i in range(1, 400))
    (tmp_path / "many_literals.py").write_text(f"VALUES = ({literals})\n", encoding="utf-8")
    sys.path.insert(0, str(tmp_path))
    try:
        importlib.import_module("many_literals")
        drawn.append([])
        draw()
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("many_literals", None)
    assert drawn[0] == drawn[1]
