"""What a fresh process imports (no scipy until the first evolution, and never scipy.sparse), and the public surface."""
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import graphlse
from test_cli import CARLEMAN_INI

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_process(tmp_path, body: str) -> dict:
    """Run ``body`` in a new interpreter that imports graphlse from src; return the JSON it prints last."""
    script = tmp_path / "probe.py"
    script.write_text(f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{body}")
    done = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_carleman_cli_run_loads_no_scipy(tmp_path):
    (tmp_path / "exp.ini").write_text(CARLEMAN_INI)
    got = fresh_process(
        tmp_path,
        """\
import graphlse, graphlse.cli
root = sys.argv[1]
rc = graphlse.cli.main(["--config", root + "/exp.ini", "--out", root + "/out"])
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
""",
    )
    assert got == {"rc": 0, "scipy": []}


def test_cli_import_loads_no_multiprocessing(tmp_path):
    # the process pool is imported only when a Carleman run asks for --jobs > 1
    (tmp_path / "exp.ini").write_text(CARLEMAN_INI)
    got = fresh_process(
        tmp_path,
        """\
import graphlse.cli
graphlse.cli.parse_config(open(sys.argv[1] + "/exp.ini").read())
print(json.dumps({m: m in sys.modules for m in ("multiprocessing", "concurrent.futures.process")}))
""",
    )
    assert got == {"multiprocessing": False, "concurrent.futures.process": False}


def test_evolution_loads_blas_but_not_scipy_sparse(tmp_path):
    got = fresh_process(
        tmp_path,
        """\
import numpy as np
from graphlse import EvolutionConfig, GraphState, build_star, evolve_graph, evolve_line_sigma, line_grid
cfg = EvolutionConfig(dt=0.01)
graph, grid = build_star(3, 10.0, 0.1)
evolve_graph(GraphState.sample(graph, grid, lambda x: np.exp(-x**2)), 0.1, cfg)
nodes = line_grid(10.0, 10.0, 0.1)
evolve_line_sigma(np.exp(-nodes**2), np.ones(len(nodes) - 1), nodes, 0.1, cfg)
print(json.dumps({m: m in sys.modules for m in ("scipy.linalg.blas", "scipy.sparse")}))
""",
    )
    assert got == {"scipy.linalg.blas": True, "scipy.sparse": False}


@pytest.mark.parametrize("module", ["graphlse", *(f"graphlse.{m.name}" for m in pkgutil.iter_modules(graphlse.__path__))])
def test_star_import_names_exist(module):
    # a stale __all__ entry (a deleted function still listed) fails the star import
    exec(f"from {module} import *", {})
