"""Package-wide rules: module boundaries, the README's API names and the
numpy-only install."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

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
