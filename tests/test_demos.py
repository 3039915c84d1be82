"""Smoke test: every demo script runs to completion without a RuntimeWarning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("argv", [
    ["01_worked_example.py"],
    ["02_tree_allometry_bounds.py"],
    ["03_synthetic_batch.py"],
    ["04_inequality_and_complexity.py"],
    ["05_backbone_export.py"],
    ["06_real_dataset_recipe.py",
     str(ROOT / "tests" / "data" / "corpus_two_products.csv")],
], ids=lambda argv: argv[0])
def test_demo_exits_zero(argv, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    # As in the library's tests, an overflow or invalid-value warning fails.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(DEMOS / argv[0]), *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
