"""What a fresh process imports (no kind module before a run needs it, no scipy until the first stepper, then only scipy's _fblas extension module), and the public surface.

``import graphlse`` loads no submodule: each public name is imported from
its module on first access.  ``import graphlse.cli`` adds only the CSV
writer and no numpy, and each kind's runner imports numpy and the modules
it calls, so the set-up that perfbench times (import the package, parse a
config) loads three graphlse modules and neither numpy nor scipy, nor do
--help and a config refused at parse time; a Carleman run, checked
(--verify) or not, never loads the evolution, graph, kernel or reduction
code.

Per kind: threshold-sweep, appell and carleman never step; a sharpness run
of either family is the exact kernel solve and loads no evolution or graph
code; kernel-compare and simulate on a line
take the free line's whole run at once (a layered line with few interfaces
and no potential), and reduce-tree takes the whole run at once on the binary
tree's vertex system (three vertices) and on its folded line.  None of them
builds a stepper or loads scipy.  A run that steps, such as a tree with a
potential, loads scipy's _fblas alone.  The CLI kinds run one after another
in one fresh process, and each test reads the scipy and graphlse modules
loaded after its kind; none of the runs asks for --jobs, so none loads
multiprocessing.
"""
import ast
import importlib
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


# the graphlse modules (the package included) a fresh process holds once it
# has imported the CLI, and with those a Carleman, threshold-sweep or appell run adds
CLI_BASE = ["graphlse", "graphlse._report", "graphlse.cli"]
LABS = sorted([*CLI_BASE, "graphlse.carleman", "graphlse.exppoly", "graphlse.uncertainty"])
KERNEL = sorted([*LABS, "graphlse.kernels"])
SOLVE = sorted([*KERNEL, "graphlse.evolution", "graphlse.graphs"])

# (id, config, scipy modules and graphlse modules loaded once that run is
# done), in the order one process runs them: the kinds that load no scipy
# first, and the graphlse sets grow as the kinds reach more modules
CLI_KINDS = [
    ("carleman", CARLEMAN_INI, [], LABS),
    ("threshold-sweep", SWEEP_INI, [], LABS),
    ("appell", APPELL_INI, [], LABS),
    ("sharpness-star", SHARPNESS_INI, [], KERNEL),  # each family is the exact kernel solve
    ("sharpness-two-step", TWO_STEP_INI, [], KERNEL),
    ("kernel-compare", KERNEL_INI, [], SOLVE),  # the FD reference is a free line, run at once
    ("simulate-line", LINE_SIMULATE_INI, [], SOLVE),
    ("reduce-tree", TREE_INI, [], sorted([*SOLVE, "graphlse.reduction"])),  # three vertices: the tree's free vertex system runs at once
]
KIND_IDS = [k for k, *_ in CLI_KINDS]

# run the CLI on each <id>.ini in turn; print each exit code and the scipy and graphlse modules
# loaded after it, then whether the process pool's modules were loaded by any of the runs
CLI_RUNS = """\
import graphlse.cli
root = sys.argv[1]
got = {}
for kind in sys.argv[2:]:
    rc = graphlse.cli.main(["--config", f"{root}/{kind}.ini", "--out", f"{root}/{kind}"])
    scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
    got[kind] = {"rc": rc, "scipy": scipy, "graphlse": sorted(m for m in sys.modules if m.split(".")[0] == "graphlse")}
got["pool"] = {m: m in sys.modules for m in ("multiprocessing", "concurrent.futures.process")}
print(json.dumps(got))
"""


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every kind of CLI_KINDS run in one fresh process, in order."""
    root = tmp_path_factory.mktemp("cli-kinds")
    for kind, ini, *_ in CLI_KINDS:
        (root / f"{kind}.ini").write_text(ini)
    return fresh_process(root, CLI_RUNS, *KIND_IDS)


@pytest.mark.parametrize("kind, scipy", [(k, scipy) for k, _, scipy, _ in CLI_KINDS], ids=KIND_IDS)
def test_cli_run_loads_at_most_scipy_fblas(cli_runs, kind, scipy):
    assert cli_runs[kind]["rc"] == 0
    assert cli_runs[kind]["scipy"] == scipy


@pytest.mark.parametrize("kind, modules", [(k, mods) for k, *_, mods in CLI_KINDS], ids=KIND_IDS)
def test_cli_run_loads_only_its_kinds_modules(cli_runs, kind, modules):
    # cumulative: each set holds the modules of every kind run before it
    assert cli_runs[kind]["graphlse"] == modules


def test_setup_loads_three_graphlse_modules_and_no_scipy(tmp_path):
    # perfbench's set-up probe: import the package, then parse and validate a
    # config; then --help and a config refused at parse time, which load no numpy either
    (tmp_path / "carleman.ini").write_text(CARLEMAN_INI)
    (tmp_path / "unknown-key.ini").write_text(CARLEMAN_INI.replace("[carleman]\n", "[carleman]\nfancy = yes\n"))
    got = fresh_process(
        tmp_path,
        """\
import graphlse
bare = sorted(m for m in sys.modules if m.split(".")[0] == "graphlse")
from graphlse.cli import main, parse_config
with open(sys.argv[2]) as fh:
    parse_config(fh.read())
setup = sorted(m for m in sys.modules if m.split(".")[0] == "graphlse")
numpy = {"setup": "numpy" in sys.modules}
rc = {"help": main(["--help"])}
numpy["help"] = "numpy" in sys.modules
rc["unknown-key"] = main(["--config", sys.argv[3], "--out", sys.argv[1] + "/never"])
numpy["unknown-key"] = "numpy" in sys.modules
print(json.dumps({"bare": bare, "setup": setup, "scipy": any(m.startswith("scipy") for m in sys.modules), "numpy": numpy, "rc": rc}))
""",
        str(tmp_path / "carleman.ini"),
        str(tmp_path / "unknown-key.ini"),
    )
    assert got == {
        "bare": ["graphlse"],
        "setup": CLI_BASE,
        "scipy": False,
        "numpy": {"setup": False, "help": False, "unknown-key": False},
        "rc": {"help": 0, "unknown-key": 1},
    }
    assert not (tmp_path / "never").exists()


def test_verified_carleman_run_loads_only_its_kinds_modules(tmp_path):
    # --verify's checks live in the runners, so a checked Carleman run loads what an unchecked one does
    (tmp_path / "carleman.ini").write_text(CARLEMAN_INI)
    got = fresh_process(
        tmp_path,
        """\
import contextlib, io
import graphlse.cli
with contextlib.redirect_stdout(io.StringIO()) as printed:
    rc = graphlse.cli.main(["--config", sys.argv[2], "--out", sys.argv[1] + "/out", "--verify"])
checks = [line.split()[:2] for line in printed.getvalue().splitlines() if line.startswith(("PASS", "FAIL"))]
graphlse = sorted(m for m in sys.modules if m.split(".")[0] == "graphlse")
print(json.dumps({"rc": rc, "checks": checks, "graphlse": graphlse, "scipy": any(m.startswith("scipy") for m in sys.modules)}))
""",
        str(tmp_path / "carleman.ini"),
    )
    assert got == {
        "rc": 0,
        "checks": [["PASS", "max_quad_error_over_margin"], ["PASS", "membership_residual"]],
        "graphlse": LABS,
        "scipy": False,
    }


def test_cli_runs_load_no_multiprocessing(cli_runs):
    # the process pool is imported only when a Carleman run asks for --jobs > 1
    assert cli_runs["pool"] == {"multiprocessing": False, "concurrent.futures.process": False}


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


# the package's public names, in the order of graphlse.__all__, under the module of each
PUBLIC = [
    # graphs
    "Edge", "GraphGrid", "GraphState", "KirchhoffResidual", "MetricGraph", "NormOverflowError",
    "build_regular_tree", "build_star", "kirchhoff_residual", "weighted_l2_norm",
    # evolution
    "EvolutionConfig", "TruncationGuardError", "evolve_graph", "evolve_graph_potential", "evolve_line_sigma",
    "read_checkpoint", "write_checkpoint",
    # exppoly
    "ExpPolynomial", "PiecewiseCoefficient", "WienerSeries", "alpha_prefactor", "chain_lower_entries",
    "chain_product", "coefficients_C", "determinant_product", "ef_recursion", "invert_E", "line_grid",
    "transfer_matrix", "write_series_csv",
    # kernels
    "EtaProfile", "QuadratureDomainError", "eta_profile", "free_kernel", "kernel_h", "kernel_p1k", "solve_line",
    # reduction
    "AveragedSums", "FoldedLine", "ReductionMap", "averaged_sums", "difference_Z", "fold_to_line",
    "reduction_map", "star_sum", "write_reduction_report",
    # uncertainty
    "DecayFit", "ThresholdVerdict", "appell_time_map", "appell_transform", "classify_threshold",
    "fit_gaussian_decay", "gamma_star", "sharp_example_star", "sharp_example_two_step",
    # carleman
    "AlphaVectors", "CarlemanMargin", "CarlemanWeight", "WeightOverflowError", "ZcompSample", "alpha_vectors",
    "carleman_sides", "membership_residual", "sample_zcomp",
]


def test_package_names_resolve_to_their_modules():
    assert graphlse.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(graphlse))
    # each name is the object of the one module whose __all__ lists it
    homes = {}
    for info in pkgutil.iter_modules(graphlse.__path__):
        module = importlib.import_module(f"graphlse.{info.name}")
        for name in set(PUBLIC) & set(getattr(module, "__all__", ())):
            homes.setdefault(name, []).append(module)
    assert {name: len(homes.get(name, ())) for name in PUBLIC} == dict.fromkeys(PUBLIC, 1)
    assert all(getattr(graphlse, name) is getattr(homes[name][0], name) for name in PUBLIC)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        graphlse.no_such_name


def test_package_loads_a_module_on_first_use(tmp_path):
    got = fresh_process(
        tmp_path,
        """\
import graphlse
graphlse.free_kernel
kernel = sorted(m for m in sys.modules if m.split(".")[0] == "graphlse")
from graphlse import evolution, reduction
print(json.dumps({"kernel": kernel, "submodules": [evolution.__name__, reduction.__name__]}))
""",
    )
    # kernels imports exppoly (the layer coefficient), which writes its series through _report
    assert got == {"kernel": ["graphlse", "graphlse._report", "graphlse.exppoly", "graphlse.kernels"], "submodules": ["graphlse.evolution", "graphlse.reduction"]}


def test_guard_errors_share_one_base():
    # the CLI maps this base to exit code 2; each error keeps the base its callers catch
    bases = {
        graphlse.TruncationGuardError: RuntimeError,
        graphlse.WeightOverflowError: ArithmeticError,
        graphlse.NormOverflowError: ArithmeticError,
        graphlse.QuadratureDomainError: ValueError,
    }
    assert {cls: cls.__bases__ for cls in bases} == {cls: (graphlse._GuardError, base) for cls, base in bases.items()}


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
