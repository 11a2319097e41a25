#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py

Makes two sets of runs of ``perfbench/run.py``, one run at a time: each set
runs every workload of BENCHMARK.json once per seed 1-10.  For every
end-to-end metric it reports, per set, the quartile spread of the ten values,
(Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives them, and
checks that each spread and the distance |m2 - m1| / m1 between the two
sets' medians stay within the metric's bound.  The spread of ``setup_s`` is
reported but not checked, as in the benchmark's acceptance rule: set-up is
a fresh interpreter importing numpy and scipy, which the host's slow and
fast spells of a minute or more move by up to 1.5x, so ten runs can straddle
two spells whatever a run does.  Its set-to-set distance is checked.  It
also checks that two runs of one seed wrote byte-identical CSVs (timestamp
line aside) and that no job failed.  Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = [sys.executable, *cmd[1:]] if cmd[0] == "python3" else list(cmd)
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0" / "results.json").read_text())
    digests = {r["id"]: r.get("digests", {}) for r in record["job_records"]}
    return result, digests


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets, digests = [], []
        for _ in range(SETS):
            values: dict[str, list[float]] = {}
            dig = {}
            for seed in SEEDS:
                result, dig[seed] = run_once(spec["command"], workload, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} jobs failed")
                    ok = False
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                shown = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
                shown.append(f"fail_frac={result['failed'] / result['attempted']:.4g} ratio")
                print(f"  {workload} seed {seed}: " + ", ".join(shown), flush=True)
            sets.append(values)
            digests.append(dig)
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"bound": bound, "medians": [], "spreads": []}
            for values in sets:
                row["medians"].append(statistics.median(values[name]))
                row["spreads"].append(spread(values[name]))
            m1, m2 = row["medians"]
            row["second_vs_first"] = (m2 - m1) / m1
            steady = name == "setup_s" or max(row["spreads"]) <= bound
            row["ok"] = steady and abs(row["second_vs_first"]) <= bound
            ok = ok and row["ok"]
            report[workload][name] = row
            line = f"{workload:16s} {name:12s} median {' '.join(f'{m:.6g}' for m in row['medians'])}"
            line += f"  spread {' '.join(f'{x:.4f}' for x in row['spreads'])}  bound {bound}"
            line += f"  2nd-vs-1st {row['second_vs_first']:+.4f}"
            if not row["ok"]:
                line += "  FAIL"
            elif max(row["spreads"]) >= bound / 3:
                line += "  (spread above a third of the bound)"
            print(line, flush=True)
        same = all(digests[0][s] == digests[1][s] for s in SEEDS)
        report[workload]["digests_identical"] = same
        print(f"{workload:16s} digests identical across sets: {same}")
        ok = ok and same
    out = ROOT / ".perfbench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
