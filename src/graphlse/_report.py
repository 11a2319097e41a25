"""Deterministic CSV output with a provenance header.

Every result file starts with comment lines carrying the tool version, a hash
of the originating configuration and a timestamp; two runs with the same
configuration and seed differ at most in the timestamp line.
"""
from __future__ import annotations

import datetime
import hashlib
from typing import Iterable, Sequence

from . import __version__


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def format_value(v) -> str:
    # numpy scalars first: np.float64 is a float whose repr is "np.float64(...)"
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def from_columns(*data) -> Iterable[tuple]:
    """Rows from whole columns, each numpy column converted to Python values once.

    ``tolist`` per column in place of a numpy-scalar conversion per value
    leaves ``format_value`` one ``repr`` per float, with the same text.
    """
    return zip(*(col.tolist() if hasattr(col, "tolist") else col for col in data))


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], meta: dict | None = None) -> None:
    lines = [f"# tool=graphlse {__version__}"]
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(f"# timestamp={datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif not columns:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, columns, rows
