"""Batch experiment runner.

Experiments are described by INI files (flat sections, hand-editable).  A
run writes its result CSVs, each with a provenance header, and nothing else,
and prints their paths.  Exit codes: 0 success, 1 a usage error (a negative
--seed or a --jobs below 1 among them), a config file that cannot be read or
is not UTF-8 text, invalid configuration, missing inputs or outputs that
cannot be written, 2 a numerical guard tripped (overflow, wavefront reached
the boundary, initial data not small at the ends of the kernel quadrature
domain).

    graphlse --config exp.ini [--out DIR] [--seed N] [--jobs N] [--verify]

The default output directory comes from --out, else the config, else the
GRAPHLSE_OUT environment variable, else ./graphlse_out; an empty value of
any of the three counts as unset.

With --verify, each kind's runner holds its own run to the oracle of the
path it took and to the acceptance tolerances (``_Checks``): it prints one
PASS/FAIL line per check, adds ``verify_*`` rows to its summary.csv, and the
run exits 1 after its CSVs are written if a check failed.

A run imports only its kind's modules.  ``import graphlse.cli`` loads the
CSV writer and no numpy or library module, so --help, a usage error and a
config refused at parse time never load numpy; each kind's runner imports
numpy and the modules it calls when it runs, so a Carleman sweep, checked
or not, never loads the evolution or kernel code.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import _GuardError
from ._report import config_hash, from_columns, write_csv


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schema-validated INI parsing
# ---------------------------------------------------------------------------

_SCHEMA: dict[str, dict[str, str]] = {
    "experiment": {"kind": "str", "seed": "int", "out": "str"},
    "graph": {
        "type": "str",
        "n_edges": "int",
        "lengths": "floats",
        "degrees": "ints",
        "length": "float",
        "spacing": "float",
    },
    "sigma": {"values": "floats", "spacing": "float", "length": "float", "grid_spacing": "float"},
    "initial": {"kind": "str", "alpha": "float", "chirp": "float", "center": "float"},
    "time": {"t_final": "float", "dt": "float"},
    "kernel": {"order": "int", "x_min": "float"},
    "carleman": {
        "n_edges": "ints",
        "n_seeds": "int",
        "mu": "floats",
        "eps": "floats",
        "r": "floats",
        "nt": "int",
        "nx": "int",
    },
    "appell": {"alpha": "float", "beta": "float"},
    "sweep": {"alphas": "floats", "betas": "floats", "rule": "str", "sigma_values": "floats"},
}

def _coerce(kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "ints":
            return [int(v.strip()) for v in raw.split(",") if v.strip()]
        if kind == "float":
            values = [float(raw)]
        elif kind == "floats":
            values = [float(v.strip()) for v in raw.split(",") if v.strip()]
        else:
            return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{where} must be finite, got {raw.strip()}")
    return values[0] if kind == "float" else values


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out: str | None
    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    text: str = ""

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        val = self.get(section, key)
        if val is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return val


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    sections: dict[str, dict[str, object]] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        schema = _SCHEMA[name]
        sections[name] = {}
        for key, raw in parser[name].items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            sections[name][key] = _coerce(schema[key], raw, f"[{name}] {key}")
    exp = sections.get("experiment", {})
    kind = exp.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"experiment kind must be one of {KINDS}, got {kind!r}")
    cfg = ExperimentConfig(
        kind=str(kind),
        seed=int(exp.get("seed", 0)),
        out=exp.get("out"),
        sections=sections,
        text=text,
    )
    if cfg.seed < 0:
        raise ConfigError(f"[experiment] seed must be non-negative, got {cfg.seed}")
    for sec, key in _KIND_TABLE[cfg.kind][1]:
        cfg.require(sec, key)
    return cfg


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _meta(cfg: ExperimentConfig) -> dict:
    return {"config_sha256": config_hash(cfg.text), "seed": cfg.seed, "kind": cfg.kind}


def _build_graph(cfg: ExperimentConfig):
    from .graphs import build_regular_tree, build_star

    gtype = cfg.require("graph", "type")
    L = float(cfg.get("graph", "length", 40.0))
    h = float(cfg.get("graph", "spacing", 0.05))
    if gtype == "star":
        return build_star(int(cfg.get("graph", "n_edges", 3)), L, h)
    if gtype == "regular_tree":
        return build_regular_tree(
            cfg.require("graph", "lengths"), cfg.require("graph", "degrees"), L, h
        )
    raise ConfigError(f"unknown graph type {gtype!r}")


def _initial_fn(cfg: ExperimentConfig, nodes=None):
    """The [initial] Gaussian; given the grid ``nodes``, data that is zero at all of them is refused."""
    import numpy as np

    kind = cfg.get("initial", "kind", "gaussian")
    alpha = float(cfg.get("initial", "alpha", 1.0))
    chirp = float(cfg.get("initial", "chirp", 0.0))
    center = float(cfg.get("initial", "center", 0.0))
    if kind != "gaussian":
        raise ConfigError(f"unknown initial data kind {kind!r}")
    if alpha <= 0:
        raise ConfigError(f"[initial] alpha must be positive, got {alpha}")
    if nodes is not None:
        # |u0| = exp(-alpha (x - center)^2) peaks at the node nearest the centre; a float gap overflows without a warning
        gap = float(np.min(np.abs(nodes - center)))
        if math.exp(-alpha * gap * gap) == 0.0:
            raise ConfigError(f"[initial] data with alpha = {alpha} and center = {center} is zero at every grid node")
    def fn(x):
        return np.exp(-(alpha + 1j * chirp) * (np.asarray(x) - center) ** 2)
    return fn


def _sigma(cfg: ExperimentConfig):
    from .exppoly import PiecewiseCoefficient

    return PiecewiseCoefficient(tuple(cfg.require("sigma", "values")), float(cfg.get("sigma", "spacing", 1.0)))


def _line_nodes(cfg: ExperimentConfig, h_default: float):
    from .exppoly import line_grid

    L = float(cfg.get("sigma", "length", 40.0))
    return line_grid(L, L, float(cfg.get("sigma", "grid_spacing", h_default)))


def _rel_l2(u, ref, x) -> float:
    """Trapezoid L2 norm of u - ref relative to that of ref."""
    import numpy as np

    return float(np.sqrt(np.trapezoid(np.abs(u - ref) ** 2, x) / np.trapezoid(np.abs(ref) ** 2, x)))


def _write_summary(cfg: ExperimentConfig, out: Path, rows, check) -> Path:
    path = out / "summary.csv"
    write_csv(path, ["quantity", "value"], [*rows, *(check.rows if check else ())], _meta(cfg))
    return path


class _Checks:
    """--verify's checks of one run, each a value against its acceptance tolerance.

    A call prints one PASS/FAIL line with the value and the tolerance, and
    keeps the value as a ``verify_<name>`` summary row; a NaN fails.
    """

    def __init__(self):
        self.rows, self.failed = [], 0

    def __call__(self, name: str, value: float, tol: float, strict: bool = False) -> None:
        value = float(value)
        ok = value < tol if strict else value <= tol
        print(f"{'PASS' if ok else 'FAIL'} {name} {value:.3e} {'<' if strict else '<='} {tol:.3g}")
        self.rows.append((f"verify_{name}", value))
        self.failed += not ok


def _check_oracle(check, name: str, run, oracle, nsteps: float) -> None:
    """A fast path's run (an array or a GraphState) against its stepped oracle (None: the run stepped, its own oracle).

    The tolerance, max(1e-12, 1e-14 |nsteps|) of max|u|, lets the rounding
    of both runs grow with the step count.
    """
    import numpy as np

    if oracle is None:
        print(f"SKIP {name}: the run stepped the Cayley core, which is its own oracle")
        return
    got, want = (np.concatenate(getattr(u, "values", [u])) for u in (run, oracle))
    check(name, np.max(np.abs(got - want)) / np.max(np.abs(want)), max(1e-12, 1e-14 * abs(nsteps)))


# ---------------------------------------------------------------------------
# runners (one per kind); each takes (cfg, out, jobs, check) and returns the
# written paths, and only the Carleman sweep uses jobs.  check is None, or
# the run's _Checks under --verify.  Each imports numpy and its kind's
# modules itself, so a run loads no module that its kind does not call.
# ---------------------------------------------------------------------------


def _run_simulate(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    import numpy as np

    from .evolution import EvolutionConfig, _graph_oracle, _line_oracle, evolve_graph, evolve_line_sigma, write_checkpoint
    from .graphs import GraphState, kirchhoff_residual, weighted_l2_norm

    t_final = float(cfg.require("time", "t_final"))
    ecfg = EvolutionConfig(dt=float(cfg.require("time", "dt")))
    if "graph" in cfg.sections:
        graph, grid = _build_graph(cfg)
        if min(grid.counts) < 5:
            raise ConfigError(f"an edge has {min(grid.counts)} samples; the Kirchhoff residual needs at least 5")
        # the Gaussian is a function of the distance from the root (a star's centre)
        offsets = np.cumsum([0.0, *graph.generation_lengths])
        fn = _initial_fn(cfg)
        state = GraphState.sample(graph, grid, [lambda x, o=offsets[e.generation - 1]: fn(x + o) for e in graph.edges])
        final = evolve_graph(state, t_final, ecfg)
        res, res0 = kirchhoff_residual(final), kirchhoff_residual(state)
        ck = out / "checkpoint.csv"
        write_checkpoint(final, ck, ecfg, _meta(cfg))
        rows = [
            ("norm_initial", weighted_l2_norm(state)),
            ("norm_final", weighted_l2_norm(final)),
            ("kirchhoff_continuity", res.continuity),
            ("kirchhoff_flux", res.flux),
            # a tree's Gaussian in the distance from the root is not in the Kirchhoff domain at inner vertices
            ("kirchhoff_continuity_initial", res0.continuity),
            ("kirchhoff_flux_initial", res0.flux),
        ]
        if check:
            _check_oracle(check, "stepped_oracle", final, _graph_oracle(state, t_final, ecfg), t_final / ecfg.dt)
    else:
        sigma = _sigma(cfg)
        nodes = _line_nodes(cfg, 0.02)
        u0 = _initial_fn(cfg)(nodes)
        u1 = evolve_line_sigma(u0, sigma, nodes, t_final, ecfg)
        ck = out / "line_state.csv"
        write_csv(ck, ["x", "re_u", "im_u"], from_columns(nodes, u1.real, u1.imag), _meta(cfg))
        norm = lambda u: float(np.sqrt(np.trapezoid(np.abs(u) ** 2, nodes)))
        rows = [("norm_initial", norm(u0)), ("norm_final", norm(u1))]
        if check:
            _check_oracle(check, "stepped_oracle", u1, _line_oracle(u0, sigma, nodes, t_final, ecfg), t_final / ecfg.dt)
    if check:
        check("norm_drift", abs(rows[1][1] - rows[0][1]) / rows[0][1], 1e-10)
    return [ck, _write_summary(cfg, out, rows, check)]


def _run_kernel_compare(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    import numpy as np

    from .evolution import EvolutionConfig, _line_oracle, evolve_line_sigma
    from .exppoly import invert_E, write_series_csv
    from .kernels import solve_line

    sigma = _sigma(cfg)
    t_final = float(cfg.require("time", "t_final"))
    ecfg = EvolutionConfig(dt=float(cfg.require("time", "dt")))
    order = int(cfg.get("kernel", "order", 24))
    x_min = float(cfg.get("kernel", "x_min", -20.0))
    nodes = _line_nodes(cfg, 0.02)
    sel = (nodes >= x_min) & (nodes <= 0.0)
    if np.count_nonzero(sel) < 2:
        raise ConfigError(f"[kernel] x_min = {x_min} leaves fewer than two grid points in [x_min, 0]")
    xs = nodes[sel]
    u0 = _initial_fn(cfg, nodes)
    series = invert_E(sigma, order)
    u_kernel = solve_line(u0, (nodes[0], nodes[-1]), t_final, xs, series)
    u_fd_all = evolve_line_sigma(u0(nodes), sigma, nodes, t_final, ecfg)
    u_fd = u_fd_all[sel]
    err = np.abs(u_kernel - u_fd)
    cmp_path = out / "kernel_compare.csv"
    write_csv(
        cmp_path,
        ["x", "re_kernel", "im_kernel", "re_fd", "im_fd", "abs_err"],
        from_columns(xs, u_kernel.real, u_kernel.imag, u_fd.real, u_fd.imag, err),
        _meta(cfg),
    )
    series_path = out / "wiener_series.csv"
    write_series_csv(series, series_path, _meta(cfg))
    rows = [
        ("relative_l2_error", _rel_l2(u_kernel, u_fd, xs)),
        ("series_rho", series.rho),
        ("series_tail_bound", series.tail_bound),
    ]
    if check:
        check("relative_l2_error", rows[0][1], 1e-2)
        # c04's form: four periods 2 pi / (l max a) of the series, 2048 frequencies; 1e-12 is the rounding floor
        xi = np.linspace(-1.0, 1.0, 2048) * 8.0 * np.pi / (sigma.l * max(sigma.a))
        check("wiener_residual", series.residual_on(xi), min(1e-6, max(series.tail_bound, 1e-12)))
        _check_oracle(check, "fd_stepped_oracle", u_fd_all, _line_oracle(u0(nodes), sigma, nodes, t_final, ecfg), t_final / ecfg.dt)
    return [cmp_path, series_path, _write_summary(cfg, out, rows, check)]


def _run_sharpness(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    import numpy as np

    from .exppoly import PiecewiseCoefficient, invert_E, line_grid
    from .kernels import solve_line
    from .uncertainty import classify_threshold, fit_gaussian_decay, magnitude_window, sharp_example_star, sharp_example_two_step

    # each family's data is closed-form and its u(1, .) the exact solve_line
    # on it: one or two layers have 1/E = 1, so the Wiener order does not matter
    if "sigma" in cfg.sections:
        vals = cfg.require("sigma", "values")
        if len(vals) != 2:
            raise ConfigError("two-layer sharpness needs exactly two sigma values")
        ex = sharp_example_two_step(vals[0], vals[1])
        x = _line_nodes(cfg, 0.0125)  # both rays
        coefficient, mirror, family, side, rule_sigma = ex.sigma, 1, "two-step", "-inf", ("line-sigma-i", ex.sigma)
    else:
        gtype = cfg.get("graph", "type", "star")
        if gtype != "star":
            raise ConfigError(f"sharpness runs on a star or a two-layer line, not [graph] type = {gtype!r}")
        ex = sharp_example_star(float(cfg.get("initial", "alpha", 0.25)), int(cfg.get("graph", "n_edges", 3)))
        # the data is even and equal on every edge, so each ray carries the free whole-line solution
        L = float(cfg.get("graph", "length", 40.0))
        x = line_grid(L, L, float(cfg.get("graph", "spacing", 0.0125)))
        x = x[x >= 0]  # one ray
        coefficient, mirror, family, side, rule_sigma = PiecewiseCoefficient((1.0,)), -1, "star", "+inf", ("star-free", None)
    u0 = ex.u0(x)
    # mirror = -1 solves the ray x >= 0 as its mirror image on the left ray, one convolution
    u1 = solve_line(ex.u0, (-x[-1], x[-1]), 1.0, mirror * x[::mirror], invert_E(coefficient, 0))[::mirror]
    fit0 = fit_gaussian_decay(x, u0, side=side, window=magnitude_window(x, u0, 1e-5))
    fit1 = fit_gaussian_decay(x, u1, side=side, window=magnitude_window(x, u1, 1e-5))
    verdict = classify_threshold(fit0.rate, fit1.rate, *rule_sigma)
    closed = _rel_l2(u1, ex.u1(x), x)
    path = out / "sharpness.csv"
    write_csv(
        path,
        ["family", "alpha_hat", "beta_hat", "product", "threshold", "regime", "solver_vs_closed_rel_l2"],
        [(family, fit0.rate, fit1.rate, verdict.product, verdict.threshold, verdict.regime, closed)],
        _meta(cfg),
    )
    prof_path = out / "decay_profile.csv"
    meta = {**_meta(cfg), "alpha_hat": fit0.rate, "beta_hat": fit1.rate, "intercept0": fit0.intercept,
            "intercept1": fit1.intercept, "residual_rms0": fit0.residual_rms, "residual_rms1": fit1.residual_rms}
    write_csv(prof_path, ["x", "abs_u0", "abs_u1"], from_columns(x, np.abs(u0), np.abs(u1)), meta)
    if check:
        check("solver_vs_closed_rel_l2", closed, 1e-3)
    return [path, prof_path]


def _run_reduce_tree(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    import numpy as np

    from .evolution import EvolutionConfig, _graph_oracle, _line_oracle, evolve_graph, evolve_line_sigma
    from .graphs import GraphState
    from .reduction import averaged_sums, fold_to_line, reduction_map, write_reduction_report

    graph, grid = _build_graph(cfg)
    t_final = float(cfg.require("time", "t_final"))
    ecfg = EvolutionConfig(dt=float(cfg.require("time", "dt")))
    rng = np.random.default_rng(cfg.seed)
    amps = rng.normal(size=graph.n_edges) + 1j * rng.normal(size=graph.n_edges)

    def edge_fn(e):
        a = amps[e]
        length = graph.edges[e].length
        if graph.edges[e].infinite:
            return lambda x, a=a: a * np.exp(-2.0 * (x - 2.0) ** 2) * x**2 / (1 + x**2)
        return lambda x, a=a, l=length: a * (x * (l - x)) ** 2 / (l / 2.0) ** 4

    state = GraphState.sample(graph, grid, [edge_fn(e) for e in range(graph.n_edges)])
    rmap = reduction_map(graph)
    folded0 = fold_to_line(averaged_sums(state), rmap)
    final = evolve_graph(state, t_final, ecfg)
    folded1 = fold_to_line(averaged_sums(final), rmap)
    w1 = evolve_line_sigma(folded0.values, folded0.cell_sigma, folded0.nodes, t_final, ecfg)
    diff = np.abs(folded1.values - w1)
    rel = float(np.sqrt(np.trapezoid(diff**2, folded0.nodes)) / (folded1.norm() or 1.0))
    rep = out / "reduction_report.csv"
    write_reduction_report(rmap, rep, _meta(cfg))
    diag = out / "diagram.csv"
    write_csv(
        diag,
        ["x", "re_fold_then_evolve", "im_fold_then_evolve", "re_evolve_then_fold", "im_evolve_then_fold"],
        from_columns(folded0.nodes, w1.real, w1.imag, folded1.values.real, folded1.values.imag),
        _meta(cfg),
    )
    if check:
        check("diagram_rel_l2", rel, 2e-2)
        _check_oracle(check, "tree_stepped_oracle", final, _graph_oracle(state, t_final, ecfg), t_final / ecfg.dt)
        line = _line_oracle(folded0.values, folded0.cell_sigma, folded0.nodes, t_final, ecfg)
        _check_oracle(check, "line_stepped_oracle", w1, line, t_final / ecfg.dt)
    return [rep, diag, _write_summary(cfg, out, [("diagram_rel_l2", rel)], check)]


def _carleman_rows(args):
    """Margin rows for one (N, seed) sample over its whole (mu, eps, R) list, and the sample's membership residual when checked."""
    from .carleman import carleman_sides, membership_residual, sample_zcomp

    n_edges, seed, weights, alphas, nt, nx, checked = args
    sample = sample_zcomp(n_edges, seed)
    margins = carleman_sides(sample, weights, alphas, nt=nt, nx=nx)
    rows = [(n_edges, seed, w.mu, w.eps, w.R, m.lhs, m.rhs, m.margin, m.quad_error) for w, m in zip(weights, margins)]
    return rows, max(membership_residual(sample)) if checked else None


def _run_carleman(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    from .carleman import CarlemanWeight, alpha_vectors

    ns = cfg.get("carleman", "n_edges", [3, 4, 5])
    n_seeds = int(cfg.get("carleman", "n_seeds", 5))
    mus = cfg.get("carleman", "mu", [0.5, 1.0, 2.0])
    epss = cfg.get("carleman", "eps", [0.25, 0.5])
    rs = cfg.get("carleman", "r", [2.0, 4.0, 8.0])
    nt = int(cfg.get("carleman", "nt", 201))
    nx = int(cfg.get("carleman", "nx", 801))
    if n_seeds < 1:
        raise ConfigError("[carleman] n_seeds must be at least 1")
    for key, values in (("n_edges", ns), ("mu", mus), ("eps", epss), ("r", rs)):
        if not values:
            raise ConfigError(f"[carleman] {key} lists no value")
    base = int(cfg.seed)
    # CarlemanWeight refuses a non-positive or non-finite value before any task runs
    weights = [CarlemanWeight(float(mu), float(eps), float(R)) for mu in mus for eps in epss for R in rs]
    alphas = {N: alpha_vectors(N) for N in set(ns)}  # each family once per sweep, not once per task
    tasks = [(int(N), base + s, weights, alphas[N], nt, nx, bool(check)) for N in ns for s in range(n_seeds)]
    # the pool forks all its workers up front, so never ask for more than there are tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so only when a pool runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(_carleman_rows, tasks))
    else:
        per_task = [_carleman_rows(t) for t in tasks]
    rows = [row for task_rows, _ in per_task for row in task_rows]
    path = out / "margins.csv"
    write_csv(path, ["N", "seed", "mu", "eps", "R", "lhs", "rhs", "margin", "quad_error"], rows, _meta(cfg))
    worst = min(r[7] + r[8] for r in rows)
    health = max(r[8] / r[7] if r[7] > 0 else math.inf for r in rows)
    if check:
        check("max_quad_error_over_margin", health, 1.0, strict=True)
        check("membership_residual", max(residual for _, residual in per_task), 1e-12)
    return [path, _write_summary(cfg, out, [("worst_margin_plus_tol", worst), ("max_quad_error_over_margin", health)], check)]


def _run_appell(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    import numpy as np

    from .uncertainty import appell_transform

    alpha = float(cfg.require("appell", "alpha"))
    beta = float(cfg.require("appell", "beta"))
    width = 0.3

    def family(s, y):
        c = width + 0.1j * s
        return np.exp(-c * np.asarray(y) ** 2)

    x = np.linspace(0.0, 12.0, 2001)
    fwd = appell_transform(family, alpha, beta)
    back = appell_transform(fwd, alpha, beta, direction="inverse")
    rt = max(float(np.max(np.abs(back(t, x) - family(t, x)))) for t in (0.0, 0.3, 0.7, 1.0))
    # norm identity at t = 0 with weight gamma = 0; in the Schrodinger case
    # (A = 0) the matching weight on the source side is trivial
    lhs = float(np.sqrt(np.trapezoid(np.abs(fwd(0.0, x)) ** 2, x)))
    rhs = float(np.sqrt(np.trapezoid(np.abs(family(0.0, x)) ** 2, x)))
    norm_err = abs(lhs - rhs) / rhs
    fix = appell_transform(family, alpha, alpha)
    fix_err = max(float(np.max(np.abs(fix(t, x) - family(t, x)))) for t in (0.0, 0.5, 1.0))
    path = out / "appell.csv"
    write_csv(
        path,
        ["quantity", "value"],
        [("roundtrip_max_err", rt), ("norm_identity_rel_err", norm_err), ("fixed_point_max_err", fix_err)],
        _meta(cfg),
    )
    if check:
        check("roundtrip_max_err", rt, 1e-10)
        check("norm_identity_rel_err", norm_err, 1e-8)
        check("fixed_point_max_err", fix_err, 1e-14)
    return [path]


def _run_threshold_sweep(cfg: ExperimentConfig, out: Path, jobs: int, check) -> list[Path]:
    from .exppoly import PiecewiseCoefficient
    from .uncertainty import classify_threshold

    alphas = cfg.require("sweep", "alphas")
    betas = cfg.require("sweep", "betas")
    rule = str(cfg.require("sweep", "rule"))
    sig_vals = cfg.get("sweep", "sigma_values")
    sigma = PiecewiseCoefficient(tuple(sig_vals), 1.0) if sig_vals else None
    n_edges = int(cfg.get("graph", "n_edges", 3)) if "graph" in cfg.sections else 3
    rows = []
    for a in alphas:
        for b in betas:
            v = classify_threshold(float(a), float(b), rule, sigma=sigma, n_edges=n_edges)
            rows.append((a, b, v.product, v.threshold, v.regime, v.rule))
    path = out / "verdicts.csv"
    write_csv(path, ["alpha", "beta", "product", "threshold", "regime", "rule"], rows, _meta(cfg))
    if check:
        print("SKIP threshold-sweep: its verdicts are closed-form arithmetic, with no numerical path to check")
    return [path]


# each kind: its runner and the (section, key) pairs its config must hold
_KIND_TABLE = {
    "simulate": (_run_simulate, [("time", "t_final"), ("time", "dt")]),
    "kernel-compare": (_run_kernel_compare, [("sigma", "values"), ("time", "t_final"), ("time", "dt")]),
    "sharpness": (_run_sharpness, []),  # both families are exact solves and ignore [time]
    "reduce-tree": (_run_reduce_tree, [("graph", "type"), ("time", "t_final"), ("time", "dt")]),
    "carleman": (_run_carleman, []),
    "appell": (_run_appell, [("appell", "alpha"), ("appell", "beta")]),
    "threshold-sweep": (_run_threshold_sweep, [("sweep", "alphas"), ("sweep", "betas"), ("sweep", "rule")]),
}
KINDS = tuple(_KIND_TABLE)


def run_config(cfg: ExperimentConfig, out_dir: Path, jobs: int = 1, check: _Checks | None = None) -> list[Path]:
    """Run cfg's kind into out_dir, its checks into ``check``; a run that raises removes the directories it made while they are empty."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _KIND_TABLE[cfg.kind][0](cfg, out_dir, jobs, check)
    except BaseException:
        for d in made:
            try:
                d.rmdir()
            except OSError:  # the run wrote something there
                break
        raise


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="graphlse", description=__doc__)
    ap.add_argument("--config", required=True, help="experiment INI file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the Carleman sweep; above 1, pin BLAS to one thread "
        "(OPENBLAS_NUM_THREADS=1), or each worker inherits its thread pool and the sweep runs slower than with 1",
    )
    ap.add_argument("--verify", action="store_true", help="hold the run to its oracles and acceptance tolerances")
    try:
        args = ap.parse_args(argv)
        if args.seed is not None and args.seed < 0:
            ap.error(f"--seed must be non-negative, got {args.seed}")
        if args.jobs < 1:
            ap.error(f"--jobs must be at least 1, got {args.jobs}")
    except SystemExit as exc:  # argparse has printed its usage message, or the help for --help
        return 0 if exc.code == 0 else 1
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.config} is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = Path(args.out or cfg.out or os.environ.get("GRAPHLSE_OUT") or "graphlse_out")
    check = _Checks() if args.verify else None
    try:
        written = run_config(cfg, out_dir, jobs=args.jobs, check=check)
    except _GuardError as exc:  # the guard errors of the kind modules share this base
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, and inputs the library refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in written:
        print(p)
    if check and check.failed:
        print(f"verification failed: {check.failed} of {len(check.rows)} checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
