#!/usr/bin/env python3
"""graphlse benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload {carleman-sweep,layered-kernel,graph-evolution}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.  A
run repeats passes over the workload's fixed job list (see ``workloads.py``),
as many as took about ``--seconds`` at the commit that defined the
benchmark, and measures set-up in fresh processes spread between its jobs.  It scores every
job's outputs against its tolerance and prints, as its last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, every other pass traced).  The full
record (environment, per-job times, errors and CSV digests, spans) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>/``.
"""
import os

# One thread for BLAS and OpenMP, set before numpy loads; probes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up probes per run.  They are spread evenly between the jobs, so that
# the probes meet the same spells of host slowness as the passes do.
SETUP_PROBES = 9

# Child process timing the user's set-up: import the package, then parse and
# validate the configs named on its command line.
PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import graphlse
from graphlse.cli import parse_config
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_config(fh.read())
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "err_to_tol": "ratio",
}
EXTRA_LAYER = {
    "report.files_without_provenance": "count",
    "unattributed_s": "s",
    "span_coverage": "ratio",
    "trace_overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    return dict(tracing.metric_names()) | EXTRA_LAYER


def csv_digests(out: Path) -> tuple[dict[str, str], int]:
    """sha256 of every CSV with its timestamp line removed, and how many lack provenance."""
    digests, bare = {}, 0
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        bare += not data.startswith(b"# tool=")
        kept = b"".join(ln for ln in data.splitlines(keepends=True) if not ln.startswith(b"# timestamp="))
        digests[path.name] = hashlib.sha256(kept).hexdigest()[:16]
    return digests, bare


def run_job(job, job_id: str, work: Path, g, cli, tracer) -> dict:
    out = work / job_id
    cfg = work / f"{job_id}.ini"
    if job.config is not None:
        cfg.write_text(job.config)
    rec = {"id": job_id, "name": job.name, "rc": None, "err": math.nan, "tol": math.nan, "message": ""}
    sink = io.StringIO()
    tracer.job = job_id
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if job.config is not None:
                rec["rc"] = cli.main(["--config", str(cfg), "--out", str(out)])
            else:
                rec["err"], rec["tol"], rec["digests"] = job.run(g)
                rec["rc"] = 0
    except SystemExit as exc:
        rec["rc"] = exc.code
    except Exception as exc:  # a job that raises is a failed job, never a skipped one
        rec["message"] = f"{type(exc).__name__}: {exc}"
    rec["seconds"] = perf_counter() - t0
    if rec["rc"] == 0 and job.config is not None:
        try:
            rec["err"], rec["tol"] = job.score(out)
        except (OSError, KeyError, ValueError) as exc:
            rec["message"] = f"unreadable output: {type(exc).__name__}: {exc}"
    if out.is_dir():
        digests, rec["bare_csvs"] = csv_digests(out)
        rec.setdefault("digests", {}).update(digests)
        shutil.rmtree(out)
    cfg.unlink(missing_ok=True)
    # a job without a score has a NaN ratio, which fails the check below
    rec["ratio"] = rec["err"] / rec["tol"] if rec["tol"] > 0 else math.inf
    rec["failed"] = rec["rc"] != 0 or bool(rec["message"]) or not rec["ratio"] <= 1.0
    if rec["failed"] and not rec["message"]:
        rec["message"] = sink.getvalue()[-2000:] if rec["rc"] != 0 else "error above tolerance"
    return rec


def write_setup_configs(work: Path, configs: list[str]) -> list[str]:
    paths = []
    for i, text in enumerate(configs):
        path = work / f"setup{i}.ini"
        path.write_text(text)
        paths.append(str(path))
    return paths


def probe_setup(paths: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), *paths],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Slowest job time with ten jobs beyond it: (value, percentile, jobs beyond).

    Below 21 jobs that time would sit under the median, so the slowest job
    with one job beyond it is reported instead.
    """
    beyond = 10 if len(times) >= 21 else min(1, len(times) - 1)
    ranked = sorted(times, reverse=True)
    return ranked[beyond], 100.0 * (len(times) - beyond) / len(times), beyond


def pass_wall(passes: list[dict]) -> float:
    """Median over passes of the pass's wall time, the sum of its job times."""
    return statistics.median(sum(r["seconds"] for r in ps["jobs"]) for ps in passes)


def environment(g, args) -> dict:
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "graphlse").rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "graphlse": getattr(g, "__version__", None),
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest()[:16],
        "client": "closed loop, 1 process, 1 thread",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "graphlse" / "__init__.py").is_file():
        print(f"error: no graphlse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphlse
    import graphlse.cli as cli

    if not Path(graphlse.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: graphlse imported from {graphlse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "jobs"
    work.mkdir(parents=True)

    first = workloads.pass_jobs(args.workload, args.seed, 0)
    setup_paths = write_setup_configs(work, [j.config for j in first if j.config is not None])

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(graphlse, cli)
    # a traced run needs one traced and one untraced pass
    n_passes = max(1 + args.trace, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    n_jobs = n_passes * len(first)
    probe_before = [i * n_jobs // SETUP_PROBES for i in range(SETUP_PROBES)]
    setup, done = [], 0
    passes = []
    t_start = perf_counter()
    try:
        # a run of slowed-down code stops early rather than overrun its time limit
        while len(passes) < n_passes and (len(passes) < 1 + args.trace or perf_counter() - t_start < 3 * args.seconds):
            p = len(passes)
            jobs = first if p == 0 else workloads.pass_jobs(args.workload, args.seed, p)
            traced = bool(args.trace) and p % 2 == 0
            tracer.active = traced
            recs = []
            for i, job in enumerate(jobs):
                # probes run between jobs, so no job's time includes one
                setup += [probe_setup(setup_paths) for _ in range(probe_before.count(done))]
                recs.append(run_job(job, f"p{p:03d}-j{i}-{job.name}", work, graphlse, cli, tracer))
                done += 1
            tracer.active = False
            passes.append({"traced": traced, "jobs": recs})
    finally:
        tracer.uninstall()
    shutil.rmtree(work)

    all_jobs = [r for ps in passes for r in ps["jobs"]]
    failed = sum(r["failed"] for r in all_jobs)
    plain = [ps for ps in passes if not ps["traced"]]
    times = [r["seconds"] for ps in plain for r in ps["jobs"]]
    tail_s, tail_p, beyond = tail(times)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": pass_wall(plain),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_to_tol": max((r["ratio"] for r in all_jobs if not math.isnan(r["ratio"])), default=math.nan),
    }
    record = {
        "env": environment(graphlse, args),
        "passes": len(passes),
        "jobs": len(all_jobs),
        "failed": failed,
        "fail_frac": failed / len(all_jobs),
        "job_tail": {"percentile": tail_p, "samples": len(times), "beyond": beyond},
        "setup_samples_s": setup,
        "end_to_end": e2e,
        "job_records": [dict(r, traced=ps["traced"]) for ps in passes for r in ps["jobs"]],
    }
    units = per_layer_units() if args.trace else END_TO_END
    if args.trace:
        traced = [ps for ps in passes if ps["traced"]]
        layer = tracing.layer_metrics(tracer, [[(r["id"], r["seconds"]) for r in ps["jobs"]] for ps in traced])
        layer["report.files_without_provenance"] = statistics.median(
            sum(r.get("bare_csvs", 0) for r in ps["jobs"]) for ps in passes
        )
        layer["trace_overhead_s"] = pass_wall(traced) - e2e["wall_s"]
        record["per_layer"] = layer
        record["unwrapped"] = tracer.unwrapped
        (run_dir / "spans.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job", "size", "raised"],
            "spans": tracer.spans,
        }))
        values = layer
    else:
        values = e2e
    (run_dir / "results.json").write_text(json.dumps(record, indent=1, default=str))

    env = record["env"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, {len(all_jobs)} jobs; "
        f"nproc={env['nproc']} threads=1 python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"commit={env['git_commit']} source={env['source_sha256']}"
    )
    if tracer.unwrapped:
        print(f"# not found, so not traced: {', '.join(tracer.unwrapped)}")
    shown = END_TO_END | units
    for name, unit in shown.items():
        print(f"{name:48s} {(e2e | values)[name]:.6g} {unit}")
    print(f"{'fail_frac':48s} {record['fail_frac']:.6g} ratio ({failed}/{len(all_jobs)} jobs)")
    print(f"{'job_tail_percentile':48s} {tail_p:.4g} (of {len(times)} jobs, {beyond} beyond)")
    for r in all_jobs:
        if r["failed"]:
            print(f"FAILED {r['id']}: rc={r['rc']} err={r['err']:.3g} tol={r['tol']:.3g} {r['message'][:300]!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {name: {"value": min(float(values[name]), sys.float_info.max), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
