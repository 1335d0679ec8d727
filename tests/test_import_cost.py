"""Cold start: importing seqshift loads no SciPy subpackage.

Each runtime case starts a fresh interpreter on the same ``src/`` as the
test run, does one thing, and reports which SciPy subpackages are in
``sys.modules``: a subpackage must load only when a code path calls into
it. A source check keeps every import at module level and every SciPy
subpackage behind a ``scipy.<name>`` attribute.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import seqshift

SRC = str(Path(seqshift.__file__).resolve().parents[1])
WATCHED = ("scipy.stats", "scipy.spatial", "scipy.special")

GAUSS = {"family": "gaussian", "means": [0.0], "variances": [1.0]}
PLANE = {"family": "gaussian", "means": [0.0, 0.0], "variances": [1.0, 1.0]}


def loaded_after(body: str) -> dict:
    """Run ``import seqshift, seqshift.cli`` then ``body`` in a fresh
    interpreter; return {subpackage: loaded} for the watched subpackages."""
    script = "\n".join([
        "import json, sys",
        "import seqshift, seqshift.cli",
        body,
        f"print(json.dumps({{m: m in sys.modules for m in {WATCHED!r}}}))",
    ])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_cli(tmp_path, command, cfg) -> dict:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out.json")]
    return loaded_after(f"assert seqshift.cli.main({argv!r}) == 0")


def test_import_loads_no_scipy_subpackage():
    assert loaded_after("") == dict.fromkeys(WATCHED, False)


def test_ks_arl_loads_special_only(tmp_path):
    cfg = {
        "seed": 7,
        "detector": {
            "statistic": "ks",
            "window": 20,
            "threshold": {"policy": "ks_asymptotic", "alpha": 0.05},
        },
        "reference": {**GAUSS, "size": 200},
        "stream": {"pre": GAUSS},
        "evaluation": {"n_runs": 10, "cap": 200},
    }
    assert run_cli(tmp_path, "arl", cfg) == {
        "scipy.stats": False, "scipy.spatial": False, "scipy.special": True,
    }


def test_median_bandwidth_loads_spatial_not_stats(tmp_path):
    cfg = {
        "seed": 3,
        "detector": {
            "statistic": "mmd",
            "window": 10,
            "kernel": {"kind": "rbf", "bandwidth": "median"},
            "threshold": {"policy": "permutation", "alpha": 0.1, "n_permutations": 100},
        },
        "reference": {**PLANE, "size": 100},
    }
    loaded = run_cli(tmp_path, "calibrate", cfg)
    assert loaded["scipy.spatial"]
    assert not loaded["scipy.stats"]


def test_source_imports_scipy_top_level_only():
    """Subpackages are reached as ``scipy.<name>`` attributes, and every
    import is at module level: a function-level import statement still
    costs a lookup per call once the module is loaded."""
    for path in sorted(Path(SRC, "seqshift").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{path.name}:{nested[0].lineno}: import inside a function"
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("scipy"), (
                    f"{path.name}:{node.lineno}: from-import of scipy")
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.startswith("scipy")]
                assert names in ([], ["scipy"]), f"{path.name}:{node.lineno}: import {names}"
