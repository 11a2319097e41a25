"""Smoke tests: every demo the README advertises runs to the end and prints its check."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# one line each demo prints only after its last computation
LAST_LINES = {
    "01_star_evolution.py": "profile of |u| on one ray at t=1",
    "02_transfer_kernels.py": "kernel representation vs finite differences",
    "03_tree_folding.py": "fold(evolve(u)) vs evolve(fold(u)) at t=0.3",
    "04_sharpness_thresholds.py": "one-sided threshold 1/(16 sigma_-^2)",
    "05_carleman_margins.py": "margins stay positive",
    "06_appell_transform.py": "norm identity at t=0",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(LAST_LINES)


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert LAST_LINES[name] in capsys.readouterr().out
