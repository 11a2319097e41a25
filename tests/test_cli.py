import os
import re
from pathlib import Path

import numpy as np
import pytest

from graphlse import GraphState, build_regular_tree, kirchhoff_residual
from graphlse import verify as _verify
from graphlse._report import read_csv
from graphlse.cli import KINDS, ConfigError, emit_plots, main, parse_config, run_config
from graphlse.uncertainty import fit_gaussian_decay, magnitude_window


SHARPNESS_INI = """
[experiment]
kind = sharpness
seed = 3

[graph]
type = star
n_edges = 3
length = 30.0
spacing = 0.05

[initial]
alpha = 0.25

[time]
dt = 0.002
"""

# the two-layer line family: its u(1, .) is the exact kernel solve, which reads no dt
TWO_STEP_INI = """
[experiment]
kind = sharpness

[sigma]
values = 1.0, 2.0
length = 30.0
grid_spacing = 0.025

[time]
dt = 0.001
"""

SWEEP_INI = """
[experiment]
kind = threshold-sweep

[sweep]
alphas = 0.1, 0.25, 0.5
betas = 0.25
rule = star-free
"""

LINE_SWEEP_INI = """
[experiment]
kind = threshold-sweep

[sweep]
alphas = 1.0
betas = 1.0
rule = {rule}
sigma_values = 1.0, 2.0
"""

APPELL_INI = """
[experiment]
kind = appell

[appell]
alpha = 0.25
beta = 1.0
"""

CARLEMAN_INI = """
[experiment]
kind = carleman
seed = 1

[carleman]
n_edges = 3
n_seeds = 2
mu = 1.0
eps = 0.5
r = 4.0
nt = 101
nx = 301
"""

STAR_SIMULATE_INI = """
[experiment]
kind = simulate

[graph]
type = star
n_edges = 3
length = 30.0
spacing = 0.05

[initial]
alpha = 1.0

[time]
t_final = 0.1
dt = 0.01
"""

KERNEL_INI = """
[experiment]
kind = kernel-compare

[sigma]
values = 1.0, 2.0, 1.0
spacing = 1.0
length = 30.0
grid_spacing = 0.05

[initial]
alpha = 1.0
center = -3.0

[time]
t_final = 1.0
dt = 0.002

[kernel]
order = 16
x_min = -12.0
"""

TREE_INI = """
[experiment]
kind = reduce-tree
seed = 2

[graph]
type = regular_tree
lengths = 1.0
degrees = 2, 2
length = 20.0
spacing = 0.05

[time]
t_final = 0.2
dt = 0.002
"""

TREE_SIMULATE_INI = """
[experiment]
kind = simulate

[graph]
type = regular_tree
lengths = 1.0
degrees = 2, 2
length = 10.0
spacing = 0.05

[time]
t_final = 0.1
dt = 0.01
"""

LINE_SIMULATE_INI = """
[experiment]
kind = simulate

[sigma]
values = 1.0, 2.0
spacing = 1.0
length = 30.0
grid_spacing = 0.05

[initial]
alpha = 1.0

[time]
t_final = 0.2
dt = 0.005
"""


def run_main(tmp_path, text, extra=()):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    return main(["--config", str(cfg), "--out", str(out), *extra]), out


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[experiment]\nkind = appell\n[warp]\nspeed = 9\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[experiment]\nkind = appell\nfancy = yes\n")


def test_parse_rejects_bad_kind_and_values():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("[experiment]\nkind = dance\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[experiment]\nkind = appell\nseed = three\n")


def test_parse_requires_needed_keys():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("[experiment]\nkind = threshold-sweep\n")


def test_malformed_config_exits_1_no_partial_outputs(tmp_path):
    code, out = run_main(tmp_path, "[experiment]\nkind = dance\n")
    assert code == 1
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini")]) == 1


def test_threshold_sweep_runs(tmp_path):
    code, out = run_main(tmp_path, SWEEP_INI)
    assert code == 0
    text = (out / "verdicts.csv").read_text()
    assert "boundary" in text  # 0.25 * 0.25 = 1/16
    assert "below" in text
    assert "above" in text
    assert text.startswith("# tool=graphlse")
    assert (out / "plot_results.py").exists()


@pytest.mark.parametrize(
    "rule, threshold, regime",
    [("line-sigma-i", 1 / 16, "above"), ("line-sigma-ii", 1.0, "boundary"), ("line-sigma-iii", 1 / 16, "above")],
)
def test_threshold_sweep_line_rules(tmp_path, rule, threshold, regime):
    # sigma_values are the amplitudes a = (1, 2), so sigma_- = 1 and sigma_+ = 1/4
    code, out = run_main(tmp_path, LINE_SWEEP_INI.format(rule=rule))
    assert code == 0
    _, cols, rows = read_csv(out / "verdicts.csv")
    vals = dict(zip(cols, rows[0]))
    assert float(vals["threshold"]) == threshold
    assert vals["regime"] == regime


def test_threshold_sweep_line_rule_needs_sigma_values(tmp_path, capsys):
    text = LINE_SWEEP_INI.format(rule="line-sigma-i").replace("sigma_values = 1.0, 2.0\n", "")
    code, out = run_main(tmp_path, text)
    assert code == 1
    assert "config error: line rules need the coefficient" in capsys.readouterr().err
    assert not list(out.glob("**/*.csv"))


def test_appell_runs(tmp_path):
    code, out = run_main(tmp_path, APPELL_INI)
    assert code == 0
    text = (out / "appell.csv").read_text()
    rows = {line.split(",")[0]: float(line.split(",")[1]) for line in text.splitlines()[-3:]}
    assert rows["roundtrip_max_err"] <= 1e-10
    assert rows["norm_identity_rel_err"] <= 1e-8
    assert rows["fixed_point_max_err"] <= 1e-14


def test_carleman_runs_and_margins_positive(tmp_path):
    code, out = run_main(tmp_path, CARLEMAN_INI)
    assert code == 0
    lines = [l for l in (out / "margins.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    for row in lines[1:]:
        vals = dict(zip(header, row.split(",")))
        assert float(vals["margin"]) > 0


def test_sharpness_runs_boundary_verdict(tmp_path):
    code, out = run_main(tmp_path, SHARPNESS_INI)
    assert code == 0
    lines = [l for l in (out / "sharpness.csv").read_text().splitlines() if not l.startswith("#")]
    vals = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert vals["regime"] == "boundary"
    assert abs(float(vals["product"]) - 1.0 / 16.0) <= 0.05 / 16.0


def test_decay_profile_meta_carries_fit_residuals(tmp_path):
    # the residual RMS of each decay fit, refitted here from the written profile
    code, out = run_main(tmp_path, SHARPNESS_INI)
    assert code == 0
    meta, _, rows = read_csv(out / "decay_profile.csv")
    x, abs_u0, abs_u1 = np.array(rows, dtype=float).T
    for key, u in (("residual_rms0", abs_u0), ("residual_rms1", abs_u1)):
        fit = fit_gaussian_decay(x, u, side="+inf", window=magnitude_window(x, u, 1e-5))
        assert float(meta[key]) == pytest.approx(fit.residual_rms, rel=1e-12, abs=1e-300)
    assert float(meta["residual_rms0"]) < 1e-12  # the initial profile is an exact Gaussian
    assert 0.0 < float(meta["residual_rms1"]) < 1e-2


def test_determinism_excluding_timestamp(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SWEEP_INI)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "verdicts.csv").read_text()
        outs.append("\n".join(l for l in text.splitlines() if not l.startswith("# timestamp=")))
    assert outs[0] == outs[1]


def test_seed_override_changes_hashable_meta(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CARLEMAN_INI)
    out = tmp_path / "o1"
    assert main(["--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    text = (out / "margins.csv").read_text()
    assert "# seed=9" in text


def test_env_var_default_out(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SWEEP_INI)
    monkeypatch.setenv("GRAPHLSE_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "verdicts.csv").exists()


def test_guard_trip_exits_2(tmp_path):
    text = """
[experiment]
kind = simulate

[graph]
type = star
n_edges = 2
length = 8.0
spacing = 0.05

[initial]
alpha = 0.25

[time]
t_final = 2.0
dt = 0.01
"""
    code, out = run_main(tmp_path, text)
    assert code == 2


def test_simulate_writes_checkpoint(tmp_path):
    code, out = run_main(tmp_path, STAR_SIMULATE_INI)
    assert code == 0
    meta, columns, _ = read_csv(out / "checkpoint.csv")
    assert re.fullmatch(r"0\.1\d*", meta["t"])
    assert (meta["h"], meta["dt"], meta["L"]) == ("0.05", "0.01", "30.0")
    assert columns == ["edge_id", "x", "re_u", "im_u"]


def test_simulate_runs_on_a_regular_tree(tmp_path):
    # the Gaussian is sampled at the distance from the root, so it is continuous at every inner vertex
    code, out = run_main(tmp_path, TREE_SIMULATE_INI)
    assert code == 0
    _, _, rows = read_csv(out / "summary.csv")
    vals = {q: float(v) for q, v in rows}
    assert vals["kirchhoff_continuity"] == 0.0
    assert abs(vals["norm_final"] - vals["norm_initial"]) <= 1e-10 * vals["norm_initial"]


def test_simulate_reports_the_initial_kirchhoff_residual_of_a_tree(tmp_path):
    # a Gaussian in the distance from the root is continuous but not in the
    # Kirchhoff domain at the inner vertices: the initial flux is the data's
    code, out = run_main(tmp_path, TREE_SIMULATE_INI)
    assert code == 0
    _, _, rows = read_csv(out / "summary.csv")
    vals = {q: float(v) for q, v in rows}
    graph, grid = build_regular_tree([1.0], [2, 2], 10.0, 0.05)
    offsets = (0.0, 1.0)  # distance from the root to the start of each generation
    fns = [lambda x, o=offsets[e.generation - 1]: np.exp(-((x + o) ** 2)) for e in graph.edges]
    res = kirchhoff_residual(GraphState.sample(graph, grid, fns))
    assert (vals["kirchhoff_continuity_initial"], vals["kirchhoff_flux_initial"]) == (res.continuity, res.flux)
    assert vals["kirchhoff_flux_initial"] > 0.5


def test_simulate_reports_the_initial_kirchhoff_residual_of_a_star(tmp_path):
    code, out = run_main(tmp_path, STAR_SIMULATE_INI)
    assert code == 0
    _, _, rows = read_csv(out / "summary.csv")
    assert [q for q, _ in rows] == [
        "norm_initial",
        "norm_final",
        "kirchhoff_continuity",
        "kirchhoff_flux",
        "kirchhoff_continuity_initial",
        "kirchhoff_flux_initial",
    ]
    vals = {q: float(v) for q, v in rows}
    assert vals["kirchhoff_continuity_initial"] == 0.0
    assert vals["kirchhoff_flux_initial"] < 1e-4


def test_kernel_compare_runs(tmp_path):
    code, out = run_main(tmp_path, KERNEL_INI)
    assert code == 0
    lines = [l for l in (out / "summary.csv").read_text().splitlines() if l.startswith("relative_l2_error")]
    assert float(lines[0].split(",")[1]) <= 2e-2
    assert read_csv(out / "wiener_series.csv")[0]["N"] == "3"
    plot = (out / "plot_results.py").read_text()
    assert "kernel_compare.csv" in plot


def test_reduce_tree_runs(tmp_path):
    code, out = run_main(tmp_path, TREE_INI)
    assert code == 0
    lines = [l for l in (out / "summary.csv").read_text().splitlines() if l.startswith("diagram_rel_l2")]
    assert float(lines[0].split(",")[1]) <= 2e-2
    assert read_csv(out / "reduction_report.csv")[1] == ["k", "tilde_a", "b", "slope", "sigma"]


def test_emit_plots_missing_results(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plots(tmp_path)


def test_verify_flag(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(APPELL_INI)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--verify"]) == 0
    captured = capsys.readouterr()
    assert "PASS check_appell_roundtrip" in captured.out


def test_verify_checks_windowed_core_for_evolving_kinds(tmp_path, capsys):
    for kind in ("simulate", "sharpness", "reduce-tree", "kernel-compare"):
        assert _verify.check_windowed_core in _verify._CHECKS[kind]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(STAR_SIMULATE_INI)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--verify"]) == 0
    assert "PASS check_windowed_core" in capsys.readouterr().out


def test_verify_checks_star_modes_for_star_kinds(tmp_path, capsys):
    for kind in ("simulate", "sharpness"):
        assert _verify.check_star_modes in _verify._CHECKS[kind]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SHARPNESS_INI)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--verify"]) == 0
    assert "PASS check_star_modes" in capsys.readouterr().out


def test_verify_checks_free_line_for_line_kinds(tmp_path, capsys):
    # kernel-compare, simulate on a line and reduce-tree's folded line take the free line's whole run
    for kind in ("simulate", "reduce-tree", "kernel-compare"):
        assert _verify.check_free_line in _verify._CHECKS[kind]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(KERNEL_INI)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--verify"]) == 0
    assert "PASS check_free_line" in capsys.readouterr().out


def test_verify_checks_free_graph_for_graph_kinds(tmp_path, capsys):
    # reduce-tree's binary tree (three vertices) takes its free vertex system's whole run at once
    for kind in ("simulate", "reduce-tree"):
        assert _verify.check_free_graph in _verify._CHECKS[kind]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(TREE_INI)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--verify"]) == 0
    assert "PASS check_free_graph" in capsys.readouterr().out


def test_jobs_parallel_carleman(tmp_path):
    # n_seeds = 2, so the pool gets two (N, seed) tasks; the output must not
    # depend on how they were spread
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CARLEMAN_INI)
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        text = (out / "margins.csv").read_text()
        texts.append([l for l in text.splitlines() if not l.startswith("# timestamp=")])
    assert texts[0] == texts[1]


def test_jobs_pool_capped_at_task_count(tmp_path, monkeypatch):
    # the pool forks all its workers up front, so it must not be larger than
    # the task list; a recording stand-in runs the tasks without forking
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    for name, text, expected in (
        ("two", CARLEMAN_INI, [2]),
        ("one", CARLEMAN_INI.replace("n_seeds = 2", "n_seeds = 1"), []),
    ):
        pools.clear()
        (tmp_path / name).mkdir()
        code, _ = run_main(tmp_path / name, text, ("--jobs", "8"))
        assert code == 0 and pools == expected


def test_carleman_repeated_eps_keeps_product_order(tmp_path):
    # eps = 0.25 twice puts two equal weights in each (mu, R) group; the rows
    # still follow the (mu, eps, R) product, each as a one-cell run gives it
    mus, epss, rs = [1.0, 0.5], [0.25, 0.5, 0.25], [4.0, 2.0]
    text = (
        CARLEMAN_INI.replace("mu = 1.0", "mu = 1.0, 0.5")
        .replace("eps = 0.5", "eps = 0.25, 0.5, 0.25")
        .replace("r = 4.0", "r = 4.0, 2.0")
    )
    code, out = run_main(tmp_path, text)
    assert code == 0
    _, _, rows = read_csv(out / "margins.csv")
    cells = [(mu, eps, R) for mu in mus for eps in epss for R in rs]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(3, 1)] * len(cells) + [(3, 2)] * len(cells)
    assert [tuple(map(float, r[2:5])) for r in rows] == cells + cells
    for k, (mu, eps, R) in enumerate(sorted(set(cells))):
        one = CARLEMAN_INI.replace("mu = 1.0", f"mu = {mu}").replace("eps = 0.5", f"eps = {eps}")
        one = one.replace("r = 4.0", f"r = {R}")
        (tmp_path / str(k)).mkdir()
        code, one_out = run_main(tmp_path / str(k), one)
        assert code == 0
        _, _, ref = read_csv(one_out / "margins.csv")
        got = [r for r in rows if tuple(map(float, r[2:5])) == (mu, eps, R)]
        assert len(got) == len(ref) * epss.count(eps)
        for r in got:
            [want] = [w for w in ref if w[1] == r[1]]
            for col in (5, 6):
                assert float(r[col]) == pytest.approx(float(want[col]), rel=1e-13, abs=0.0)


def test_carleman_summary_health(tmp_path):
    code, out = run_main(tmp_path, CARLEMAN_INI)
    assert code == 0
    _, columns, rows = read_csv(out / "margins.csv")
    cells = [dict(zip(columns, map(float, row))) for row in rows]
    _, _, summary = read_csv(out / "summary.csv")
    values = {q: float(v) for q, v in summary}
    assert values["max_quad_error_over_margin"] == max(c["quad_error"] / c["margin"] for c in cells)
    assert 0.0 < values["max_quad_error_over_margin"] < 1.0


def test_simulate_line_sigma(tmp_path):
    code, out = run_main(tmp_path, LINE_SIMULATE_INI)
    assert code == 0
    lines = [l for l in (out / "summary.csv").read_text().splitlines() if not l.startswith("#")]
    vals = {r.split(",")[0]: float(r.split(",")[1]) for r in lines[1:]}
    assert abs(vals["norm_final"] - vals["norm_initial"]) <= 1e-9 * vals["norm_initial"]
    assert (out / "line_state.csv").exists()


def test_sharpness_two_step_kind(tmp_path):
    code, out = run_main(tmp_path, TWO_STEP_INI)
    assert code == 0
    lines = [l for l in (out / "sharpness.csv").read_text().splitlines() if not l.startswith("#")]
    vals = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert vals["family"] == "two-step"
    assert float(vals["solver_vs_closed_rel_l2"]) <= 5e-3
    assert abs(float(vals["product"]) - 1.0 / 16.0) <= 0.10 / 16.0


def test_sharpness_two_step_is_the_exact_solution(tmp_path):
    # the kernel on the closed-form data leaves only round-off against u(1, .),
    # so the fitted rate sits on its target alpha / 16 = 1/16
    code, out = run_main(tmp_path, TWO_STEP_INI)
    assert code == 0
    _, columns, rows = read_csv(out / "sharpness.csv")
    assert float(rows[0][columns.index("solver_vs_closed_rel_l2")]) <= 1e-10
    meta, _, _ = read_csv(out / "decay_profile.csv")
    assert abs(float(meta["beta_hat"]) - 1.0 / 16.0) <= 1e-9


def test_sharpness_two_step_ignores_dt(tmp_path):
    # a two-step run builds no stepper: without [time] it writes what it
    # writes with dt, apart from the config hash and the timestamp
    def body(path):
        return [l for l in path.read_text().splitlines() if not l.startswith(("# config_sha256=", "# timestamp="))]

    without = TWO_STEP_INI.replace("[time]\ndt = 0.001\n", "")
    assert "[time]" not in without
    (tmp_path / "dt").mkdir()
    (tmp_path / "no_dt").mkdir()
    code_dt, out_dt = run_main(tmp_path / "dt", TWO_STEP_INI)
    code, out = run_main(tmp_path / "no_dt", without)
    assert code_dt == code == 0
    for name in ("sharpness.csv", "decay_profile.csv"):
        assert body(out / name) == body(out_dt / name)


def test_sharpness_star_needs_dt(tmp_path, capsys):
    code, out = run_main(tmp_path, SHARPNESS_INI.replace("[time]\ndt = 0.002\n", ""))
    assert code == 1
    assert capsys.readouterr().err.strip() == "config error: missing required key [time] dt"
    assert not list(out.glob("*.csv"))


# one config per kind, and both simulate variants; every CSV must carry the
# provenance header, and the array tables must hold plain numbers
CONTRACT_CONFIGS = {
    "simulate-star": STAR_SIMULATE_INI,
    "simulate-tree": TREE_SIMULATE_INI,
    "simulate-line": LINE_SIMULATE_INI,
    "kernel-compare": KERNEL_INI,
    "sharpness": SHARPNESS_INI,
    "reduce-tree": TREE_INI,
    "carleman": CARLEMAN_INI,
    "appell": APPELL_INI,
    "threshold-sweep": SWEEP_INI,
}
NUMERIC_CSVS = {"kernel_compare.csv", "line_state.csv", "diagram.csv", "decay_profile.csv"}


@pytest.mark.parametrize("name", sorted(CONTRACT_CONFIGS))
def test_output_contract(tmp_path, name):
    assert {parse_config(text).kind for text in CONTRACT_CONFIGS.values()} == set(KINDS)
    code, out = run_main(tmp_path, CONTRACT_CONFIGS[name])
    assert code == 0
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert path.read_text().startswith("# tool=graphlse "), path.name
        if path.name in NUMERIC_CSVS:
            _, _, rows = read_csv(path)
            assert rows, path.name
            for row in rows:
                for cell in row:
                    float(cell)


@pytest.mark.parametrize(
    "change, code, message",
    [
        (("length = 30.0", "length = 4.0"), 2, "numerical guard:"),  # data not small at the ends
        (("dt = 0.002", "dt = 0.003"), 1, "config error:"),  # dt does not divide t_final
        (("spacing = 1.0\n", "spacing = 1.01\n"), 1, "config error:"),  # breakpoint off the grid
        (("x_min = -12.0", "x_min = 1.0"), 1, "config error:"),  # no observation point x <= 0
        (("values = 1.0, 2.0, 1.0", "values = 1.0, 1e8, 1.0"), 1, "config error:"),  # eta lattice > MAX_LATTICE
        (("values = 1.0, 2.0, 1.0", "values = 1.0, 1e17, 1.0"), 1, "config error:"),  # rho rounds to 1
    ],
    ids=[
        "short-length", "dt-not-dividing", "breakpoint-off-grid", "no-observation-points",
        "lattice-cap", "contrast-rho-one",
    ],
)
def test_kernel_compare_bad_inputs_exit_codes(tmp_path, capsys, change, code, message):
    _check_bad_input(tmp_path, capsys, KERNEL_INI, change, code, message)


@pytest.mark.parametrize(
    "change, code, message",
    [
        (("nt = 101", "nt = 2"), 1, "config error:"),  # no interior time sample
        (("nx = 301", "nx = 2"), 1, "config error:"),  # one-point coarse grid
        (("n_seeds = 2", "n_seeds = 0"), 1, "config error:"),
        (("n_edges = 3", "n_edges ="), 1, "config error:"),
        (("mu = 1.0", "mu ="), 1, "config error:"),
        (("eps = 0.5", "eps ="), 1, "config error:"),
        (("r = 4.0", "r ="), 1, "config error:"),
        # only the second cell overflows: 2 * 8 * (2 * 4 + 1)^2 > 700
        (("mu = 1.0", "mu = 1.0, 8.0"), 2, "numerical guard:"),
    ],
    ids=["nt-2", "nx-2", "no-seeds", "no-edge-counts", "no-mu", "no-eps", "no-r", "overflow-in-sweep"],
)
def test_carleman_bad_inputs_exit_codes(tmp_path, capsys, change, code, message):
    out = _check_bad_input(tmp_path, capsys, CARLEMAN_INI, change, code, message)
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "base, change",
    [
        (STAR_SIMULATE_INI, ("dt = 0.01", "dt = inf")),
        (STAR_SIMULATE_INI, ("dt = 0.01", "dt = nan")),
        (STAR_SIMULATE_INI, ("t_final = 0.1", "t_final = inf")),
        (STAR_SIMULATE_INI, ("t_final = 0.1", "t_final = nan")),
        # a non-finite length once reached round(L / h) and ended in an OverflowError
        (STAR_SIMULATE_INI, ("length = 30.0", "length = inf")),
        (STAR_SIMULATE_INI, ("length = 30.0", "length = nan")),
        (LINE_SIMULATE_INI, ("length = 30.0", "length = inf")),
        (LINE_SIMULATE_INI, ("length = 30.0", "length = nan")),
        # a non-finite Carleman parameter once wrote NaN margins and exited 0
        (CARLEMAN_INI, ("mu = 1.0", "mu = nan")),
        (CARLEMAN_INI, ("mu = 1.0", "mu = inf")),
        (CARLEMAN_INI, ("eps = 0.5", "eps = nan")),
        (CARLEMAN_INI, ("eps = 0.5", "eps = inf")),
        (CARLEMAN_INI, ("r = 4.0", "r = nan")),
        (CARLEMAN_INI, ("r = 4.0", "r = inf")),
        # NaN passed the positivity tests of the layer data and the rates, and
        # an infinite amplitude gave sigma = 0 cells; each exited 0
        (LINE_SIMULATE_INI, ("values = 1.0, 2.0", "values = 1.0, nan")),
        (LINE_SIMULATE_INI, ("values = 1.0, 2.0", "values = 1.0, inf")),
        (LINE_SIMULATE_INI, ("spacing = 1.0", "spacing = nan")),
        (LINE_SIMULATE_INI, ("spacing = 1.0", "spacing = inf")),
        (SWEEP_INI, ("alphas = 0.1, 0.25, 0.5", "alphas = nan")),
        (SWEEP_INI, ("alphas = 0.1, 0.25, 0.5", "alphas = inf")),
        (APPELL_INI, ("alpha = 0.25", "alpha = nan")),
        (APPELL_INI, ("alpha = 0.25", "alpha = inf")),
        # a finite edge of 3 samples once evolved in full and then failed the residual's 5-point stencil
        (TREE_SIMULATE_INI, ("lengths = 1.0", "lengths = 0.1")),
        # sharpness once ran a star whatever the graph type
        (SHARPNESS_INI, ("type = star", "type = regular_tree")),
    ],
    ids=[
        "dt-inf",
        "dt-nan",
        "t-final-inf",
        "t-final-nan",
        "graph-length-inf",
        "graph-length-nan",
        "sigma-length-inf",
        "sigma-length-nan",
        "carleman-mu-nan",
        "carleman-mu-inf",
        "carleman-eps-nan",
        "carleman-eps-inf",
        "carleman-r-nan",
        "carleman-r-inf",
        "sigma-values-nan",
        "sigma-values-inf",
        "sigma-spacing-nan",
        "sigma-spacing-inf",
        "sweep-alphas-nan",
        "sweep-alphas-inf",
        "appell-alpha-nan",
        "appell-alpha-inf",
        "tree-edge-under-5-samples",
        "sharpness-not-a-star",
    ],
)
def test_simulate_non_finite_time_exit_codes(tmp_path, capsys, base, change):
    out = _check_bad_input(tmp_path, capsys, base, change, 1, "config error:")
    assert not list(out.glob("*.csv"))


def _check_bad_input(tmp_path, capsys, base, change, code, message):
    """Run ``base`` with one line changed; expect ``code`` and one stderr line."""
    text = base.replace(*change)
    assert text != base
    got, out = run_main(tmp_path, text)
    assert got == code
    err = capsys.readouterr().err.strip()
    assert err.startswith(message)
    assert "\n" not in err
    return out
