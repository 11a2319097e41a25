"""Shared test plumbing: one BLAS thread, and per-criterion pass/fail lines for the acceptance suite."""
import os

# OpenBLAS reads this when numpy loads, and neither pytest nor hypothesis
# loads numpy before this file.  With the default thread count on a 2-core
# host, the Carleman acceptance test (c09) took 1.4-2.0 s in 3 of 11 runs
# against 0.4-0.7 s in the others
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(name: str, detail: str) -> None:
    _ACCEPTANCE_RESULTS[name] = detail


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    detail = _ACCEPTANCE_RESULTS.get(name, "")
    _ACCEPTANCE_RESULTS[name] = f"{'PASS' if report.passed else 'FAIL'} {name} {detail}".strip()


def pytest_terminal_summary(terminalreporter):
    lines = [v for v in _ACCEPTANCE_RESULTS.values() if v.startswith(("PASS", "FAIL"))]
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
