"""What a fresh process imports (no scipy until the first stepper, then only scipy's _fblas extension module), and the public surface.

Per kind: threshold-sweep, appell and carleman never step; a sharpness run
on a free star takes its modes' whole run at once in sine bases and on a
two-step line the exact kernel solve; kernel-compare and simulate on a line
take the free line's whole run at once (a layered line with few interfaces
and no potential), and reduce-tree takes the whole run at once on the binary
tree's vertex system (three vertices) and on its folded line.  None of them
builds a stepper or loads scipy.  A run that steps, such as a tree with a
potential, loads scipy's _fblas alone.  The CLI kinds run one after another
in one fresh process, and each test reads the scipy modules loaded after its
kind.
"""
import ast
import json
import pkgutil
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import graphlse
from test_cli import (
    APPELL_INI,
    CARLEMAN_INI,
    KERNEL_INI,
    LINE_SIMULATE_INI,
    SHARPNESS_INI,
    SWEEP_INI,
    TREE_INI,
    TWO_STEP_INI,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_process(tmp_path, body: str, *args: str) -> dict:
    """Run ``body`` in a new interpreter that imports graphlse from src, with argv tmp_path, *args; return the JSON it prints last."""
    script = tmp_path / "probe.py"
    script.write_text(f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{body}")
    done = subprocess.run([sys.executable, str(script), str(tmp_path), *args], capture_output=True, text=True, timeout=120)
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


FBLAS = ["scipy.linalg._fblas"]

# (id, config, scipy modules loaded once that run is done), in the order one
# process runs them: the kinds that load no scipy first
CLI_KINDS = [
    ("threshold-sweep", SWEEP_INI, []),
    ("appell", APPELL_INI, []),
    ("sharpness-star", SHARPNESS_INI, []),  # a free star takes its modes' whole run at once and builds no stepper
    ("sharpness-two-step", TWO_STEP_INI, []),  # the exact kernel solve builds no stepper
    ("kernel-compare", KERNEL_INI, []),  # the FD reference is a free line, run at once
    ("simulate-line", LINE_SIMULATE_INI, []),
    ("reduce-tree", TREE_INI, []),  # three vertices: the tree's free vertex system runs at once
]

# run the CLI on each <id>.ini in turn; print each exit code and the scipy modules loaded after it
CLI_RUNS = """\
import graphlse.cli
root = sys.argv[1]
got = {}
for kind in sys.argv[2:]:
    rc = graphlse.cli.main(["--config", f"{root}/{kind}.ini", "--out", f"{root}/{kind}"])
    got[kind] = {"rc": rc, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}
print(json.dumps(got))
"""


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every kind of CLI_KINDS run in one fresh process, in order."""
    root = tmp_path_factory.mktemp("cli-kinds")
    for kind, ini, _ in CLI_KINDS:
        (root / f"{kind}.ini").write_text(ini)
    return fresh_process(root, CLI_RUNS, *(kind for kind, _, _ in CLI_KINDS))


@pytest.mark.parametrize("kind, scipy", [(k, scipy) for k, _, scipy in CLI_KINDS], ids=[k for k, _, _ in CLI_KINDS])
def test_cli_run_loads_at_most_scipy_fblas(cli_runs, kind, scipy):
    assert cli_runs[kind] == {"rc": 0, "scipy": scipy}


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
    # a free line loads no scipy; ztbsv, bound by the first stepper (here
    # the tree's vertex system with a static potential), comes from scipy's
    # _fblas extension module alone: neither the scipy.linalg package nor
    # scipy.sparse is imported
    got = fresh_process(
        tmp_path,
        """\
import numpy as np
from graphlse import EvolutionConfig, GraphState, build_regular_tree, evolve_graph_potential, evolve_line_sigma, line_grid
cfg = EvolutionConfig(dt=0.01)
nodes = line_grid(10.0, 10.0, 0.1)
evolve_line_sigma(np.exp(-nodes**2), np.ones(len(nodes) - 1), nodes, 0.1, cfg)
line = sorted(m for m in sys.modules if m.startswith("scipy"))
graph, grid = build_regular_tree([1.0], [2, 2], 10.0, 0.1)
state = GraphState.sample(graph, grid, lambda x: np.sin(np.pi * x) * np.exp(-(x**2)))
evolve_graph_potential(state, 0.5, None, 0.1, cfg)
print(json.dumps({"line": line, **{m: m in sys.modules for m in ("scipy.linalg._fblas", "scipy.linalg", "scipy.sparse")}}))
""",
    )
    assert got == {"line": [], "scipy.linalg._fblas": True, "scipy.linalg": False, "scipy.sparse": False}


# evolve a line and a tree (vertex system, stepped under a static potential); print the
# digests of the results and the scipy modules loaded
EVOLVE_DIGESTS = """\
import hashlib
import numpy as np
from graphlse import EvolutionConfig, GraphState, build_regular_tree, evolve_graph_potential, evolve_line_sigma, line_grid
cfg = EvolutionConfig(dt=0.005)
nodes = line_grid(8.0, 8.0, 0.05)
sigma = np.where(nodes[1:] > 1.0, 2.0, 1.0)
line = evolve_line_sigma(np.exp(-(nodes + 1.0) ** 2 + 2j * nodes), sigma, nodes, 0.2, cfg)
graph, grid = build_regular_tree([1.0], [2, 2], 8.0, 0.05)
state = GraphState.sample(graph, grid, lambda x: np.sin(np.pi * x) * np.exp(-(x**2)))
tree = evolve_graph_potential(state, 0.5, None, 0.2, cfg)
digests = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in (line, *tree.values)]
print(json.dumps({"digests": digests, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_fallback_to_scipy_linalg_blas_gives_equal_bytes(tmp_path):
    direct = fresh_process(tmp_path, EVOLVE_DIGESTS)
    assert direct["scipy"] == ["scipy.linalg._fblas"]
    # the direct load fails as a missing or broken extension module would
    fail = """\
import importlib.util
module_from_spec = importlib.util.module_from_spec
def refuse(spec):
    if spec.name == "scipy.linalg._fblas":
        raise ImportError("refused")
    return module_from_spec(spec)
importlib.util.module_from_spec = refuse
"""
    fallback = fresh_process(tmp_path, fail + EVOLVE_DIGESTS)
    assert "scipy.linalg.blas" in fallback["scipy"]
    assert fallback["digests"] == direct["digests"]


def test_direct_ztbsv_is_scipy_linalg_blas_ztbsv(tmp_path):
    got = fresh_process(
        tmp_path,
        """\
from graphlse.evolution import _ztbsv
ztbsv = _ztbsv()
loaded = "scipy.linalg" in sys.modules
import scipy.linalg.blas
print(json.dumps({"loaded_before": loaded, "same": ztbsv is scipy.linalg.blas.ztbsv}))
""",
    )
    assert got == {"loaded_before": False, "same": True}


@pytest.mark.parametrize("module", ["graphlse", *(f"graphlse.{m.name}" for m in pkgutil.iter_modules(graphlse.__path__))])
def test_star_import_names_exist(module):
    # a stale __all__ entry (a deleted function still listed) fails the star import
    exec(f"from {module} import *", {})


def test_every_private_module_name_has_a_reference():
    # a module-level _name in src/graphlse (function, class or assignment)
    # that no code in src/ names apart from its own definition is dead code;
    # names are matched as code tokens, so strings and comments do not count
    files = sorted((SRC / "graphlse").glob("*.py"))
    used, defined = Counter(), Counter()
    for path in files:
        with path.open("rb") as fh:
            used.update(tok.string for tok in tokenize.tokenize(fh.readline) if tok.type == tokenize.NAME)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    assert private  # the scan found the package's private helpers
    assert [name for name in private if used[name] <= defined[name]] == []
