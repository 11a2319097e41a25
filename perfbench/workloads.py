"""Seeded job lists for the three benchmark workloads and the checks that score them.

A workload is a fixed list of jobs (one *pass*); a run repeats passes, each
with fresh inputs drawn from ``(seed, pass)``, so the same seed always gives
the same sequence of inputs.  A CLI job is an INI config handed to
``graphlse.cli.main``; a direct job calls the library, for the one path that
no CLI kind reaches.  Every job is scored from what it wrote: ``score``
returns ``(error, tolerance)`` with the acceptance-suite tolerances.

carleman-sweep
    One ``carleman`` config per N in (3, 4, 5), each over the full 18-point
    (mu, eps, R) grid at nt = 201, nx = 801 for its own sample seed, so the
    18 cells of a config share one sample.  One seed per config keeps a pass
    near 10 s, so a 30 s run holds three passes.  Predicted movers:
    ``carleman.carleman_sides.self_s`` drives ``wall_s``, ``job_p50_s``,
    ``job_tail_s`` (and ``peak_rss_mb`` if weights are cached).  Kernels and
    evolution never run here.
layered-kernel
    ``kernel-compare`` configs: the c07 three-layer problem (sigma 1, 2, 1;
    17 Wiener atoms) and two two-layer (1, 2) problems (1 atom), with the
    Gaussian centre and width drawn from the seed.  Predicted movers:
    ``kernels.solve_negative_halfline.self_s`` drives ``wall_s`` and
    ``job_p50_s`` with ``err_to_tol`` pinned, and can move ``peak_rss_mb``;
    ``exppoly.invert_E.self_s`` is under 1% of a job (no change predicted);
    ``evolution.evolve_line_sigma.self_s`` is the FD reference.
graph-evolution
    ``simulate`` (3-star at h = 0.02 with its ~320 kB checkpoint, the free
    3-star at h = 0.05 that the potential job runs with a potential added,
    step-coefficient line), ``sharpness`` (star, two-step line),
    ``reduce-tree`` (binary tree) and a direct ``evolve_graph_potential`` job
    (static potential on a 3-star).  Predicted
    movers: ``evolution.evolve_graph_potential.self_s`` and
    ``evolution.evolve_graph.self_s`` drive ``wall_s`` and ``job_tail_s``;
    ``report.write_csv.*`` and ``evolution.write_checkpoint.*`` drive
    ``wall_s``.  Kernels and Carleman never run here, so it is the bypass
    workload for the Carleman and kernel optimisations.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Acceptance-suite tolerances (README and tests/test_acceptance.py).
TOL_KERNEL_VS_FD = 1e-2
TOL_SOLVER_VS_CLOSED = 1e-3
TOL_TREE_DIAGRAM = 2e-2
TOL_NORM_DRIFT = 1e-10

CARLEMAN_GRID = "mu = 0.5, 1.0, 2.0\neps = 0.25, 0.5\nr = 2.0, 4.0, 8.0\nnt = 201\nnx = 801\n"


@dataclass
class Job:
    """One unit of timed work.

    CLI jobs carry ``config`` (INI text) and ``score(out_dir)``; direct jobs
    carry ``run(graphlse)``, which does the work and returns
    ``(error, tolerance, digests)``.
    """

    name: str
    config: str | None = None
    score: Callable[[Path], tuple[float, float]] | None = None
    run: Callable | None = None


def read_table(path: Path) -> list[dict[str, str]]:
    """Rows of a result CSV as dicts, skipping '#' comment lines."""
    header: list[str] | None = None
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(dict(zip(header, cells)))
    return rows


def _summary(out: Path) -> dict[str, float]:
    return {r["quantity"]: float(r["value"]) for r in read_table(out / "summary.csv")}


def score_norm_drift(out: Path) -> tuple[float, float]:
    s = _summary(out)
    return abs(s["norm_final"] - s["norm_initial"]) / s["norm_initial"], TOL_NORM_DRIFT


def score_kernel(out: Path) -> tuple[float, float]:
    return _summary(out)["relative_l2_error"], TOL_KERNEL_VS_FD


def score_tree(out: Path) -> tuple[float, float]:
    return _summary(out)["diagram_rel_l2"], TOL_TREE_DIAGRAM


def score_sharpness(out: Path) -> tuple[float, float]:
    rows = read_table(out / "sharpness.csv")
    return max(float(r["solver_vs_closed_rel_l2"]) for r in rows), TOL_SOLVER_VS_CLOSED


def score_carleman(out: Path) -> tuple[float, float]:
    """Worst cell by quad_error / margin: the quadrature error against the room left."""
    worst = (0.0, 1.0)
    for r in read_table(out / "margins.csv"):
        err, margin = float(r["quad_error"]), float(r["margin"])
        if margin <= 0.0:
            return err, margin
        if err / margin > worst[0] / worst[1]:
            worst = (err, margin)
    return worst


def _ini(kind: str, seed: int, body: str) -> str:
    return f"[experiment]\nkind = {kind}\nseed = {seed}\n\n{body}"


def _cfg_seed(rng) -> int:
    return int(rng.integers(0, 1_000_000))


def carleman_sweep(rng, pass_index: int) -> list[Job]:
    # quad_error / margin is heavy-tailed over samples (3e-5 to 8e-3 over 25
    # seeds at N = 3), so seed-drawn samples would make err_to_tol as spread
    # as the samples; pass p uses the c09 acceptance sample seed p instead,
    # and the seed sets the order in which N comes
    order = rng.permutation([3, 4, 5])
    return [
        Job(
            f"carleman-n{n}",
            _ini("carleman", pass_index, f"[carleman]\nn_edges = {n}\nn_seeds = 1\n{CARLEMAN_GRID}"),
            score_carleman,
        )
        for n in order
    ]


def _kernel_job(rng, values: str) -> str:
    # centre and width keep the Gaussian well inside [-40, 40] at t = 1, so
    # neither the truncation guard nor the quadrature-domain guard can trip
    alpha = rng.uniform(0.9, 1.1)
    center = rng.uniform(-3.5, -2.5)
    return _ini(
        "kernel-compare",
        _cfg_seed(rng),
        f"[sigma]\nvalues = {values}\nspacing = 1.0\nlength = 40.0\ngrid_spacing = 0.02\n\n"
        f"[initial]\nalpha = {alpha!r}\ncenter = {center!r}\n\n"
        "[time]\nt_final = 1.0\ndt = 0.0005\n\n[kernel]\norder = 24\nx_min = -20.0\n",
    )


def layered_kernel(rng, pass_index: int) -> list[Job]:
    # one three-layer job to two two-layer jobs keeps the median job in the
    # two-layer group and the slowest job in the three-layer group
    return [
        Job("kernel-3layer", _kernel_job(rng, "1.0, 2.0, 1.0"), score=score_kernel),
        Job("kernel-2layer", _kernel_job(rng, "1.0, 2.0"), score=score_kernel),
        Job("kernel-2layer", _kernel_job(rng, "1.0, 2.0"), score=score_kernel),
    ]


def _state_digest(state) -> str:
    h = hashlib.sha256()
    for values in state.values:
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()[:16]


def _potential_job(alpha: float, v0: float, width: float) -> Callable:
    def run(g):
        graph, grid = g.build_star(3, 40.0, 0.05)
        state = g.GraphState.sample(graph, grid, lambda x: np.exp(-alpha * np.asarray(x) ** 2))
        V1 = lambda t, x: v0 * np.exp(-np.asarray(x) ** 2 / width)  # noqa: E731
        final = g.evolve_graph_potential(state, V1, None, 1.0, g.EvolutionConfig(dt=1e-3))
        n0, n1 = g.weighted_l2_norm(state), g.weighted_l2_norm(final)
        return abs(n1 - n0) / n0, TOL_NORM_DRIFT, {"final_state": _state_digest(final)}

    return run


def graph_evolution(rng, pass_index: int) -> list[Job]:
    free_star = (
        "[graph]\ntype = star\nn_edges = 3\nlength = 40.0\nspacing = 0.05\n\n"
        f"[initial]\nalpha = {rng.uniform(0.8, 1.25)!r}\n\n[time]\nt_final = 1.0\ndt = 0.001\n"
    )
    star = (
        "[graph]\ntype = star\nn_edges = 3\nlength = 40.0\nspacing = 0.02\n\n"
        f"[initial]\nalpha = {rng.uniform(0.8, 1.25)!r}\nchirp = {rng.uniform(-0.5, 0.5)!r}\n\n"
        "[time]\nt_final = 1.0\ndt = 0.001\n"
    )
    line = (
        "[sigma]\nvalues = 1.0, 2.0\nspacing = 1.0\nlength = 40.0\ngrid_spacing = 0.02\n\n"
        f"[initial]\nalpha = {rng.uniform(0.8, 1.25)!r}\ncenter = {rng.uniform(-4.0, -2.0)!r}\n\n"
        "[time]\nt_final = 1.0\ndt = 0.0005\n"
    )
    sharp_star = (
        "[graph]\ntype = star\nn_edges = 3\nlength = 40.0\nspacing = 0.0125\n\n"
        f"[initial]\nalpha = {rng.uniform(0.125, 0.25)!r}\n\n[time]\ndt = 0.0005\n"
    )
    sharp_two = "[sigma]\nvalues = 1.0, 2.0\nlength = 40.0\ngrid_spacing = 0.0125\n\n[time]\ndt = 0.0005\n"
    tree = (
        "[graph]\ntype = regular_tree\nlengths = 1.0\ndegrees = 2, 2\nlength = 30.0\nspacing = 0.02\n\n"
        "[time]\nt_final = 0.3\ndt = 0.0005\n"
    )
    # with seven jobs the median job falls inside the group of ~0.4 s jobs,
    # not between two groups
    return [
        Job("simulate-star-free", _ini("simulate", _cfg_seed(rng), free_star), score_norm_drift),
        Job("simulate-star", _ini("simulate", _cfg_seed(rng), star), score_norm_drift),
        Job("simulate-line", _ini("simulate", _cfg_seed(rng), line), score_norm_drift),
        Job("sharpness-star", _ini("sharpness", _cfg_seed(rng), sharp_star), score_sharpness),
        Job("sharpness-two-step", _ini("sharpness", _cfg_seed(rng), sharp_two), score_sharpness),
        Job("reduce-tree", _ini("reduce-tree", _cfg_seed(rng), tree), score_tree),
        Job(
            "potential-star",
            run=_potential_job(rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
        ),
    ]


# Seconds one pass takes at the commit that defined the benchmark (2-core
# x86 VM).  A run makes round(--seconds / this) passes, so every run of a
# workload does the same work and its percentiles cover the same jobs.
PASS_SECONDS = {"carleman-sweep": 10.0, "layered-kernel": 10.0, "graph-evolution": 4.3}

WORKLOADS: dict[str, Callable] = {
    "carleman-sweep": carleman_sweep,
    "layered-kernel": layered_kernel,
    "graph-evolution": graph_evolution,
}


def pass_jobs(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The fixed job list of one pass, with inputs drawn from (seed, pass_index)."""
    return WORKLOADS[workload](np.random.default_rng([seed, pass_index]), pass_index)
