"""README.md's contract, checked against the code.

Each test reads one statement of the README (the kind table, the section
keys, the file formats, the INI examples, the quick tour, the demo list,
the sigma convention, the --verify checks and the docstrings the numerical
conventions name) and compares it with what the code does.  The CSVs are
those of one run of each ``CONTRACT_CONFIGS`` entry, the configs of
``test_output_contract``, and the checks those of one --verify run of each.
"""
import contextlib
import importlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from graphlse import cli
from graphlse._report import read_csv
from test_cli import CHECK_LINE, CONTRACT_CONFIGS

ROOT = Path(__file__).resolve().parents[1]
# the meta lines every result CSV carries, before and after its own
COMMON_META = ["tool", "config_sha256", "seed", "kind", "timestamp"]


def parse_readme(text: str):
    """(sections, fences): the lines under each heading outside code blocks, and every (language, code) block."""
    sections, fences = {}, []
    body, fence = sections.setdefault("", []), None
    for line in text.splitlines():
        if fence is not None:
            if line.startswith("```"):
                fences.append((fence[0], "\n".join(fence[1:]) + "\n"))
                fence = None
            else:
                fence.append(line)
        elif line.startswith("```"):
            fence = [line[3:].strip()]
        elif line.startswith("#"):
            body = sections.setdefault(line.lstrip("#").strip(), [])
        else:
            body.append(line)
    return sections, fences


SECTIONS, FENCES = parse_readme((ROOT / "README.md").read_text())


def table(section: str, header: tuple[str, ...]) -> list[list[str]]:
    """The rows of the table under ``section`` whose header row is ``header``, as lists of cell texts."""
    rows, found = [], False
    for line in SECTIONS[section] + [""]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")] if line.startswith("|") else None
        if cells is None:
            if found:
                return rows
        elif tuple(cells) == header:
            found = True
        elif found and not set(cells[0]) <= {"-"}:
            rows.append(cells)
    raise AssertionError(f"no table {header} under {section!r}")


def spans(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(kind, {name: (meta, columns, rows)}) of every CSV written by one run of each contract config."""
    out = {}
    for name, text in CONTRACT_CONFIGS.items():
        root = tmp_path_factory.mktemp(name)
        (root / "exp.ini").write_text(text)
        assert cli.main(["--config", str(root / "exp.ini"), "--out", str(root / "out")]) == 0
        csvs = {path.name: read_csv(path) for path in sorted((root / "out").glob("*.csv"))}
        out[name] = (cli.parse_config(text).kind, csvs)
    return out


def test_kind_table_is_the_kind_table_of_the_cli(runs):
    rows = table("Experiment configs (INI)", ("kind", "required keys", "reads", "artifacts"))
    assert [spans(kind)[0] for kind, *_ in rows] == list(cli.KINDS)
    for kind, required, _, artifacts in rows:
        kind = spans(kind)[0]
        assert re.findall(r"`\[(\w+)\] (\w+)`", required) == list(cli._KIND_TABLE[kind][1]), kind
        written = {csv for k, csvs in runs.values() if k == kind for csv in csvs}
        assert set(spans(artifacts)) == written, kind


def test_section_keys_are_the_config_schema():
    rows = table("Experiment configs (INI)", ("section", "keys"))
    listed = {spans(section)[0]: dict(re.findall(r"`(\w+)` (\w+)", keys)) for section, keys in rows}
    assert list(listed) == [f"[{name}]" for name in cli._SCHEMA]
    for name, schema in cli._SCHEMA.items():
        assert list(listed[f"[{name}]"].items()) == list(schema.items()), name


def expand(columns: str, meta: dict) -> list[str]:
    """A README column list with ``n_2,…,n_{N-1}`` written out for the file's meta line N."""
    names = columns.split(",")
    if "…" in names:
        at = names.index("…")
        assert names[at - 1 : at + 2] == ["n_2", "…", "n_{N-1}"]
        names[at - 1 : at + 2] = [f"n_{m}" for m in range(2, int(meta["N"]))]
    return names


def test_file_formats_are_the_csvs_the_runs_write(runs):
    rows = table("File formats", ("file", "own meta lines", "columns"))
    listed = {spans(name)[0]: (spans(meta), spans(columns)[0]) for name, meta, columns in rows}
    assert set(listed) == {csv for _, csvs in runs.values() for csv in csvs}
    for _, csvs in runs.values():
        for name, (meta, columns, _) in csvs.items():
            own, header = listed[name]
            assert [key for key in meta if key not in COMMON_META] == own, name
            assert [key for key in meta if key in COMMON_META] == COMMON_META, name
            assert columns == expand(header, meta), name


def test_quantity_rows_are_the_rows_the_runs_write(runs):
    rows = table("File formats", ("kind", "file", "quantities"))
    listed = {(spans(kind)[0], spans(name)[0]): spans(quantities) for kind, name, quantities in rows}
    written = {}
    for kind, csvs in runs.values():
        for name, (_, columns, data) in csvs.items():
            if columns == ["quantity", "value"]:
                seen = written.setdefault((kind, name), [])
                seen += [row[0] for row in data if row[0] not in seen]
    assert listed == written


def test_every_ini_example_parses():
    examples = [code for lang, code in FENCES if lang == "ini"]
    assert examples
    for code in examples:
        cli.parse_config(code)


def test_quick_tour_runs():
    tours = [code for lang, code in FENCES if lang == "python"]
    assert len(tours) == 1
    exec(compile(tours[0], "README.md quick tour", "exec"), {})


def test_demo_list_is_the_demos_directory():
    listed = [m for lang, code in FENCES if lang == "bash" for m in re.findall(r"python (demos/\S+\.py)", code)]
    assert listed == sorted(f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py"))


def test_sigma_values_are_amplitudes():
    text = " ".join(SECTIONS["Experiment configs (INI)"])
    values, left, right = re.search(r"`values = ([\d., ]+)` is `σ = (\S+)` left of 0 and `σ = (\S+)` right of it", text).groups()
    cfg = cli.parse_config(f"[experiment]\nkind = sharpness\n[sigma]\nvalues = {values}\n")
    assert cli._sigma(cfg).sigma_at([-1.0, 1.0]).tolist() == [float(Fraction(left)), float(Fraction(right))]


def test_numerical_conventions_name_documented_objects():
    entries = [line for line in SECTIONS["Numerical conventions"] if line.startswith("- ")]
    assert entries
    for entry in entries:
        names = spans(entry.rpartition(" — ")[2])
        assert names, entry
        for name in names:
            module, _, attr = name.partition(".")
            obj = importlib.import_module(f"graphlse.{module}")
            for part in attr.split(".") if attr else ():
                obj = getattr(obj, part)
            assert (obj.__doc__ or "").strip(), name


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    """(config, printed check lines, summary rows) of one --verify run of each contract config."""
    out = {}
    for name, text in CONTRACT_CONFIGS.items():
        root = tmp_path_factory.mktemp(f"verify-{name}")
        (root / "exp.ini").write_text(text)
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert cli.main(["--config", str(root / "exp.ini"), "--out", str(root / "out"), "--verify"]) == 0
        checks = [m.groups() for m in map(CHECK_LINE.fullmatch, printed.getvalue().splitlines()) if m]
        summary = root / "out" / "summary.csv"
        out[name] = (cli.parse_config(text), checks, {r[0]: float(r[1]) for r in read_csv(summary)[2]} if summary.exists() else {})
    return out


def test_verify_table_is_the_checks_the_runs_print(verified):
    listed = {}
    for kind, check, passes, _ in table("Command line", ("kind", "check", "passes when", "compares")):
        op, bound = re.fullmatch(r"`value (<=?) (.+)`", passes).groups()
        listed.setdefault(spans(kind)[0], []).append((spans(check)[0], op, bound))
    checked = set()
    for cfg, checks, summary in verified.values():
        want = listed.get(cfg.kind, [])
        assert [(name, op) for _, name, _, op, _ in checks] == [(name, op) for name, op, _ in want], cfg.kind
        if checks:
            checked.add(cfg.kind)
        nsteps = cfg.get("time", "t_final", 0.0) / cfg.get("time", "dt", 1.0)
        scope = {"max": max, "min": min, "nsteps": nsteps, "tail_bound": summary.get("series_tail_bound")}
        for (_, name, _, _, tol), (_, _, bound) in zip(checks, want):
            assert float(tol) == pytest.approx(eval(bound, scope), rel=5e-3), (cfg.kind, name)
    assert set(listed) == checked
