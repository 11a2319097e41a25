import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from graphlse import GraphState, build_regular_tree, kirchhoff_residual
from graphlse._report import read_csv
from graphlse.cli import KINDS, ConfigError, main, parse_config, run_config
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


def test_malformed_config_exits_1_no_partial_outputs(tmp_path, capsys):
    code, out = run_main(tmp_path, "[experiment]\nkind = dance\n")
    assert code == 1
    assert not out.exists()
    # refused by its runner, after parsing: the directories the call made are gone again
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nkind = carleman\n[carleman]\nn_seeds = 0\n")
    deep = tmp_path / "a" / "b"
    assert main(["--config", str(cfg), "--out", str(deep)]) == 1
    assert capsys.readouterr().err.endswith("\nconfig error: [carleman] n_seeds must be at least 1\n")
    assert not (tmp_path / "a").exists()


def test_missing_config_file_exits_1(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini")]) == 1


def test_config_not_utf8_exits_1(tmp_path, capsys):
    # the decode error once escaped main as a traceback, not exit code 1
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[experiment]\nkind = appell\n\xff\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {cfg} is not UTF-8 text: ") and "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--config", "x.ini", "--bogus"], [], ["--config", "x.ini", "--seed", "x"]],
    ids=["unknown-flag", "no-config", "bad-seed"],
)
def test_usage_error_exits_1_with_usage_message(capsys, argv):
    # 2 is the exit code of a tripped numerical guard, not argparse's usage error
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: graphlse")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: graphlse")


def test_unwritable_output_directory_exits_1(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SWEEP_INI)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "afile" / "x")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err


def test_threshold_sweep_runs(tmp_path):
    code, out = run_main(tmp_path, SWEEP_INI)
    assert code == 0
    text = (out / "verdicts.csv").read_text()
    assert "boundary" in text  # 0.25 * 0.25 = 1/16
    assert "below" in text
    assert "above" in text
    assert text.startswith("# tool=graphlse")


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
    # both profiles are exact Gaussians: the initial data, and u(1, .) solved exactly
    assert float(meta["residual_rms0"]) < 1e-12
    assert 0.0 < float(meta["residual_rms1"]) < 1e-11


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


@pytest.mark.parametrize(
    "base, change",
    [
        # a simulate run once took the seed and wrote "# seed=-3"
        (STAR_SIMULATE_INI, ("kind = simulate\n", "kind = simulate\nseed = -3\n")),
        # these once reached numpy's "expected non-negative integer", which names no key
        (CARLEMAN_INI, ("seed = 1", "seed = -3")),
        (TREE_INI, ("seed = 2", "seed = -3")),
    ],
    ids=["simulate", "carleman", "reduce-tree"],
)
def test_negative_seed_exits_1_naming_the_key(tmp_path, capsys, base, change):
    out = _check_bad_input(tmp_path, capsys, base, change, 1, "config error: [experiment] seed must be non-negative, got -3")
    assert not out.exists()


@pytest.mark.parametrize("base", [CARLEMAN_INI, TREE_INI], ids=["carleman", "reduce-tree"])
def test_negative_seed_flag_exits_1_naming_the_flag(tmp_path, capsys, base):
    code, out = run_main(tmp_path, base, ["--seed", "-2"])
    assert code == 1
    assert capsys.readouterr().err.endswith("graphlse: error: --seed must be non-negative, got -2\n")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_exits_1_naming_the_flag(tmp_path, capsys, jobs):
    # these once ran silently as one process
    code, out = run_main(tmp_path, CARLEMAN_INI, ["--jobs", jobs])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: graphlse")
    assert err.endswith(f"graphlse: error: --jobs must be at least 1, got {jobs}\n")
    assert not out.exists()


def test_env_var_default_out(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SWEEP_INI)
    monkeypatch.setenv("GRAPHLSE_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "verdicts.csv").exists()


def test_empty_env_var_counts_as_unset(tmp_path, monkeypatch):
    # Path("") is the current directory, where the CSVs once landed
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SWEEP_INI)
    monkeypatch.setenv("GRAPHLSE_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "graphlse_out"]
    assert (tmp_path / "graphlse_out" / "verdicts.csv").exists()


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


def test_reduce_tree_runs(tmp_path):
    code, out = run_main(tmp_path, TREE_INI)
    assert code == 0
    lines = [l for l in (out / "summary.csv").read_text().splitlines() if l.startswith("diagram_rel_l2")]
    assert float(lines[0].split(",")[1]) <= 2e-2
    assert read_csv(out / "reduction_report.csv")[1] == ["k", "tilde_a", "b", "slope", "sigma"]


# ---------------------------------------------------------------------------
# --verify: each run held to the oracle of its path and the acceptance
# tolerances.  Each check is also shown to fail on a mutated path.
# ---------------------------------------------------------------------------

CHECK_LINE = re.compile(r"(PASS|FAIL) (\w+) (\S+) (<=?) (\S+)")

DEPTH2_SIMULATE_INI = TREE_SIMULATE_INI.replace("lengths = 1.0", "lengths = 1.0, 0.5").replace("degrees = 2, 2", "degrees = 2, 2, 2")


def run_verify(tmp_path, capsys, text):
    """(exit code, {check: (verdict, value, tolerance)}, printed lines, output directory) of one --verify run."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    code, out = run_main(tmp_path, text, ["--verify"])
    printed = capsys.readouterr()
    lines = printed.out.splitlines()
    checks = {m[2]: (m[1], float(m[3]), float(m[5])) for m in map(CHECK_LINE.fullmatch, lines) if m}
    if code == 1:
        assert printed.err == f"verification failed: {sum(v == 'FAIL' for v, *_ in checks.values())} of {len(checks)} checks\n"
    return code, checks, lines, out


def summary_rows(out):
    return {row[0]: float(row[1]) for row in read_csv(out / "summary.csv")[2]}


def skip_last_step(monkeypatch):
    """Mutate the free path: every run taken at once takes one step fewer than it was asked."""
    from graphlse import evolution

    free = evolution._free_chains
    monkeypatch.setattr(evolution, "_free_chains", lambda u, chains, p, dt, nsteps: free(u, chains, p, dt, nsteps - 1))


def test_verify_covers_exactly_the_cli_kinds(tmp_path, capsys):
    # every check of every contract run passes, the verify rows of a summary are
    # the printed values, and the results are those of the run without --verify
    checked = set()
    for name, text in CONTRACT_CONFIGS.items():
        code, checks, lines, out = run_verify(tmp_path / name, capsys, text)
        assert code == 0, name
        assert all(verdict == "PASS" for verdict, *_ in checks.values()), (name, lines)
        assert all(CHECK_LINE.fullmatch(line) or line.startswith(("SKIP ", str(out))) for line in lines), name
        if checks:
            checked.add(parse_config(text).kind)
        plain = tmp_path / name / "plain"
        assert main(["--config", str(tmp_path / name / "exp.ini"), "--out", str(plain)]) == 0
        capsys.readouterr()
        for path in plain.glob("*.csv"):
            (meta, columns, rows), (plain_meta, *plain_table) = read_csv(out / path.name), read_csv(path)
            if path.name == "summary.csv":
                verify = {f"verify_{k}": pytest.approx(v, rel=1e-3, abs=1e-300) for k, (_, v, _) in checks.items()}
                assert {r[0]: float(r[1]) for r in rows if r[0].startswith("verify_")} == verify, name
                rows = [r for r in rows if not r[0].startswith("verify_")]
            del meta["timestamp"], plain_meta["timestamp"]
            assert (meta, [columns, rows]) == (plain_meta, plain_table), (name, path.name)
    assert checked == set(KINDS) - {"threshold-sweep"}


def test_verify_flag(tmp_path, capsys):
    code, checks, _, out = run_verify(tmp_path, capsys, APPELL_INI)
    assert code == 0
    assert {k: (v, t) for k, (v, _, t) in checks.items()} == {
        "roundtrip_max_err": ("PASS", 1e-10),
        "norm_identity_rel_err": ("PASS", 1e-8),
        "fixed_point_max_err": ("PASS", 1e-14),
    }
    written = {row[0]: float(row[1]) for row in read_csv(out / "appell.csv")[2]}
    assert {k: pytest.approx(value, rel=1e-3, abs=1e-300) for k, (_, value, _) in checks.items()} == written


def test_verify_fails_an_appell_inverse_taken_forward(tmp_path, capsys, monkeypatch):
    from graphlse import uncertainty

    forward = uncertainty.appell_transform
    monkeypatch.setattr(uncertainty, "appell_transform", lambda u, alpha, beta, direction="forward": forward(u, alpha, beta))
    code, checks, _, out = run_verify(tmp_path, capsys, APPELL_INI)
    assert code == 1 and (out / "appell.csv").exists()
    assert [k for k, (verdict, *_) in checks.items() if verdict == "FAIL"] == ["roundtrip_max_err"]


def test_verify_checks_windowed_core_for_evolving_kinds(tmp_path, capsys, monkeypatch):
    # a depth-2 tree has 7 vertices: its run steps the windowed Cayley core,
    # its own oracle, so --verify holds it to the norm drift alone
    from graphlse import evolution

    code, checks, lines, _ = run_verify(tmp_path / "clean", capsys, DEPTH2_SIMULATE_INI)
    assert code == 0 and list(checks) == ["norm_drift"]
    assert lines[0] == "SKIP stepped_oracle: the run stepped the Cayley core, which is its own oracle"
    skip_last_step(monkeypatch)  # not the path this run takes
    assert run_verify(tmp_path / "free-mutated", capsys, DEPTH2_SIMULATE_INI)[0] == 0
    stepper = evolution._cayley_stepper

    def leaky(*args):
        run = stepper(*args)
        return lambda u, nsteps, phase=None: 1.001 * run(u, nsteps, phase)

    monkeypatch.setattr(evolution, "_cayley_stepper", leaky)
    code, checks, _, out = run_verify(tmp_path / "leaky", capsys, DEPTH2_SIMULATE_INI)
    assert code == 1 and checks["norm_drift"][0] == "FAIL"
    assert summary_rows(out)["verify_norm_drift"] == pytest.approx(checks["norm_drift"][1], rel=1e-3)


def test_verify_checks_star_modes_for_star_kinds(tmp_path, capsys, monkeypatch):
    # a free star takes its modes' whole run at once; the stepped vertex system is its oracle
    code, checks, _, _ = run_verify(tmp_path / "clean", capsys, STAR_SIMULATE_INI)
    assert code == 0 and list(checks) == ["stepped_oracle", "norm_drift"]
    assert checks["stepped_oracle"][2] == 1e-12  # 10 steps: the floor
    skip_last_step(monkeypatch)
    code, checks, _, out = run_verify(tmp_path / "mutated", capsys, STAR_SIMULATE_INI)
    assert code == 1 and (out / "checkpoint.csv").exists()
    assert {k: verdict for k, (verdict, *_) in checks.items()} == {"stepped_oracle": "FAIL", "norm_drift": "PASS"}
    assert summary_rows(out)["verify_stepped_oracle"] == pytest.approx(checks["stepped_oracle"][1], rel=1e-3)


def test_verify_checks_free_line_for_line_kinds(tmp_path, capsys, monkeypatch):
    # kernel-compare's FD reference and simulate on a line take the free line's
    # whole run at once; the stepped core is its oracle
    for name, text, oracle in (("kernel", KERNEL_INI, "fd_stepped_oracle"), ("line", LINE_SIMULATE_INI, "stepped_oracle")):
        code, checks, _, _ = run_verify(tmp_path / name, capsys, text)
        assert code == 0 and checks[oracle][0] == "PASS"
    assert checks["stepped_oracle"][2] == 1e-12
    skip_last_step(monkeypatch)
    code, checks, _, out = run_verify(tmp_path / "mutated", capsys, KERNEL_INI)
    assert code == 1 and {"kernel_compare.csv", "wiener_series.csv", "summary.csv"} <= {p.name for p in out.iterdir()}
    assert checks["fd_stepped_oracle"][::2] == ("FAIL", 5e-12)  # 500 steps
    assert checks["wiener_residual"][0] == "PASS"


def test_verify_checks_free_graph_for_graph_kinds(tmp_path, capsys, monkeypatch):
    # reduce-tree's binary tree (three vertices) and its folded line each take their whole run at once
    code, checks, _, _ = run_verify(tmp_path / "clean", capsys, TREE_INI)
    assert code == 0 and list(checks) == ["diagram_rel_l2", "tree_stepped_oracle", "line_stepped_oracle"]
    skip_last_step(monkeypatch)
    code, checks, _, _ = run_verify(tmp_path / "mutated", capsys, TREE_INI)
    # both sides of the diagram skip the same step, so only the oracles see it
    assert code == 1 and {k: verdict for k, (verdict, *_) in checks.items()} == {
        "diagram_rel_l2": "PASS",
        "tree_stepped_oracle": "FAIL",
        "line_stepped_oracle": "FAIL",
    }


def test_verify_checks_kernel_code_for_kernel_kinds(tmp_path, capsys, monkeypatch):
    # both sharpness families against their closed forms, kernel-compare's series against its Wiener residual
    from graphlse import exppoly, kernels

    for name, text in (("star", SHARPNESS_INI), ("two-step", TWO_STEP_INI)):
        code, checks, _, _ = run_verify(tmp_path / name, capsys, text)
        assert code == 0 and list(checks) == ["solver_vs_closed_rel_l2"]
    solve, invert = kernels.solve_line, exppoly.invert_E
    monkeypatch.setattr(kernels, "solve_line", lambda *args: 1.01 * solve(*args))
    code, checks, _, out = run_verify(tmp_path / "mutated", capsys, TWO_STEP_INI)
    assert code == 1 and checks["solver_vs_closed_rel_l2"][0] == "FAIL" and (out / "sharpness.csv").exists()
    monkeypatch.setattr(kernels, "solve_line", solve)
    monkeypatch.setattr(exppoly, "invert_E", lambda params, K: dataclasses.replace(invert(params, K), poly=1.001 * invert(params, K).poly))
    code, checks, _, _ = run_verify(tmp_path / "series", capsys, KERNEL_INI)
    assert code == 1 and checks["wiener_residual"][0] == "FAIL"


def test_verify_checks_carleman_samples_and_margins(tmp_path, capsys, monkeypatch):
    from graphlse import carleman

    code, checks, _, out = run_verify(tmp_path / "clean", capsys, CARLEMAN_INI)
    assert code == 0 and list(checks) == ["max_quad_error_over_margin", "membership_residual"]
    assert checks["max_quad_error_over_margin"][1] == pytest.approx(summary_rows(out)["max_quad_error_over_margin"], rel=1e-3)
    sample = carleman.sample_zcomp

    def unbalanced(n_edges, seed):
        """The sample with a corrector whose per-edge coefficients no longer sum to zero: flux at the vertex."""
        s = sample(n_edges, seed)
        coeffs = s.coeffs.copy()
        coeffs[0, -1] += 0.1
        return dataclasses.replace(s, coeffs=coeffs)

    monkeypatch.setattr(carleman, "sample_zcomp", unbalanced)
    code, checks, _, out = run_verify(tmp_path / "mutated", capsys, CARLEMAN_INI)
    assert code == 1 and checks["membership_residual"][0] == "FAIL" and (out / "margins.csv").exists()

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


@pytest.mark.parametrize(
    "ini, time_section",
    [(TWO_STEP_INI, "[time]\ndt = 0.001\n"), (SHARPNESS_INI, "[time]\ndt = 0.002\n")],
    ids=["two-step", "star"],
)
def test_sharpness_ignores_dt(tmp_path, ini, time_section):
    # both families are exact solves: without [time] a run writes what it
    # writes with dt, apart from the config hash and the timestamp
    def body(path):
        return [l for l in path.read_text().splitlines() if not l.startswith(("# config_sha256=", "# timestamp="))]

    without = ini.replace(time_section, "")
    assert "[time]" not in without
    (tmp_path / "dt").mkdir()
    (tmp_path / "no_dt").mkdir()
    code_dt, out_dt = run_main(tmp_path / "dt", ini)
    code, out = run_main(tmp_path / "no_dt", without)
    assert code_dt == code == 0
    for name in ("sharpness.csv", "decay_profile.csv"):
        assert body(out / name) == body(out_dt / name)


def test_sharpness_star_is_the_exact_solution(tmp_path):
    # each ray carries the free whole-line solution, solved exactly, so the
    # fitted rate sits on its target 1/(16 alpha)
    code, out = run_main(tmp_path, SHARPNESS_INI)
    assert code == 0
    _, columns, rows = read_csv(out / "sharpness.csv")
    assert rows[0][columns.index("family")] == "star"
    assert float(rows[0][columns.index("solver_vs_closed_rel_l2")]) <= 1e-10
    meta, _, _ = read_csv(out / "decay_profile.csv")
    assert abs(float(meta["beta_hat"]) - 1.0 / (16.0 * 0.25)) <= 1e-9


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_sharpness_refuses_non_finite_alpha(tmp_path, capsys, alpha):
    # NaN once reached the solver and was reported as non-finite state values; it is now refused at parse time
    code, out = run_main(tmp_path, SHARPNESS_INI.replace("alpha = 0.25", f"alpha = {alpha}"))
    assert code == 1
    assert capsys.readouterr().err.strip() == f"config error: [initial] alpha must be finite, got {alpha}"
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
def test_output_contract(tmp_path, capsys, name):
    assert {parse_config(text).kind for text in CONTRACT_CONFIGS.values()} == set(KINDS)
    code, out = run_main(tmp_path, CONTRACT_CONFIGS[name])
    assert code == 0
    # a run writes exactly the files it prints, and each is a result CSV
    printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert printed and len(set(printed)) == len(printed)
    assert sorted(out.iterdir()) == sorted(printed)
    for path in printed:
        assert path.suffix == ".csv", path.name
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
        (("x_min = -12.0", "x_min = 1.0"), 1, "config error: [kernel] x_min"),  # no observation point x <= 0
        # one point: the relative L2 error once read 0/0 = nan and the run exited 0
        (("x_min = -12.0", "x_min = 0.0"), 1, "config error: [kernel] x_min"),
        (("values = 1.0, 2.0, 1.0", "values = 1.0, 1e8, 1.0"), 1, "config error:"),  # eta lattice > MAX_LATTICE
        (("values = 1.0, 2.0, 1.0", "values = 1.0, 1e17, 1.0"), 1, "config error:"),  # rho rounds to 1
    ],
    ids=[
        "short-length", "dt-not-dividing", "breakpoint-off-grid", "no-observation-points",
        "one-observation-point", "lattice-cap", "contrast-rho-one",
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
        # a non-finite or non-positive Gaussian once ran and wrote NaN or blown-up errors, exiting 0
        (KERNEL_INI, ("center = -3.0", "center = inf")),
        (KERNEL_INI, ("center = -3.0", "center = nan")),
        (KERNEL_INI, ("alpha = 1.0", "alpha = inf")),
        (STAR_SIMULATE_INI, ("alpha = 1.0", "alpha = nan")),
        (STAR_SIMULATE_INI, ("alpha = 1.0", "alpha = 0.0")),
        (LINE_SIMULATE_INI, ("alpha = 1.0", "alpha = -1.0")),
        (STAR_SIMULATE_INI, ("alpha = 1.0", "alpha = 1.0\nchirp = inf")),
        # a nonzero t_final that rounds to no step once wrote the data as the final state
        (STAR_SIMULATE_INI, ("dt = 0.01", "dt = 1e300")),
        (STAR_SIMULATE_INI, ("t_final = 0.1", "t_final = 1e-300")),
        # sharpness ignores [time], and once ran with dt = nan and exited 0
        (SHARPNESS_INI, ("dt = 0.002", "dt = nan")),
        # a Gaussian centred so far off that it is zero at every node once wrote relative_l2_error,nan
        (KERNEL_INI, ("center = -3.0", "center = 1e300")),
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
        "kernel-center-inf",
        "kernel-center-nan",
        "kernel-alpha-inf",
        "star-alpha-nan",
        "star-alpha-zero",
        "line-alpha-negative",
        "star-chirp-inf",
        "star-dt-rounds-to-no-step",
        "star-t-final-rounds-to-no-step",
        "sharpness-dt-nan",
        "kernel-data-zero-on-grid",
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
