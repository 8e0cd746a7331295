"""Benchmark of the ``guinand`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  A run imports ``guinand`` from ``src/`` and
executes seeded job lists (``workloads.py``) through ``guinand.cli.main(argv)``
with stdout captured: one client, one thread, jobs back to back in a closed
loop, whole lists until ``--seconds`` of job time have passed.  Each job's
output is then checked against an independent reference (``checks.py``).

``--trace 0`` reports the end-to-end metrics:

    run_s        mean wall time of one job list (the time to a batch of
                 certified results): the run's job time over its lists
    job_ms_p50   median wall time per job, argv in to stdout captured
    job_ms_p90   90th percentile per job (the report states the sample count
                 and how many jobs lie beyond it)
    setup_s      median over fresh processes of the time from process start
                 until guinand is imported and the first job list generated;
                 CLI users pay it on every call, so no warm-up is run
    peak_rss_mb  ru_maxrss of the run process after its last job
    failed_frac  failed jobs / attempted jobs (exit status not 0, or a failed
                 check); printed in the report, and in the result line as
                 ``failed`` and ``attempted``

Times are scaled to a reference machine speed (see ``REFERENCE_S``); the
report keeps the raw run_s and the scale factor.

``--trace 1`` first runs the same workload untraced in a fresh process, then
runs its first job lists again with the wrappers of ``tracer.py`` installed,
compares every job's stdout byte for byte between the two, and reports
per-layer metrics per job list plus the tracing overhead.  Spans go to
``.perfbench/<workload>-seed<seed>-spans.jsonl``.

Every run writes a report with the Python version, CPU count, git commit and
load average at start to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
The last line of stdout is the result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
# The effective speed of a shared machine drifts by tens of percent over
# minutes, for CPU time as much as wall time.  Before each job (and after each
# setup probe) the run times a fixed reference loop, outside the timed region;
# reported times are scaled to the speed at which that loop takes REFERENCE_S.
REFERENCE_S = 1.25e-3

# (name, unit, in the result line)
END_TO_END = (
    ("run_s", "s", True),
    ("job_ms_p50", "ms", True),
    ("job_ms_p90", "ms", True),
    ("setup_s", "s", True),
    ("peak_rss_mb", "MB", True),
    # 0 on most workloads, which a bound relative to the median cannot judge
    ("failed_frac", "1", False),
)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def import_package():
    """Import guinand from the checkout's src/, or exit 2 if it is missing."""
    if not (ROOT / "src" / "guinand" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'guinand'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import guinand.cli
    return guinand.cli


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "loadavg": list(os.getloadavg())}


# --------------------------------------------------------------------------
# running jobs
# --------------------------------------------------------------------------

def reference_loop() -> float:
    """Seconds taken by a fixed loop of integer, float, Fraction and dict work."""
    t0 = time.perf_counter()
    f, acc, x, d = Fraction(0), 0, 0.0, {}
    for i in range(1, 400):
        f += Fraction(i % 7 + 1, i % 11 + 2)
        acc += (i * i) % 7
        x += i ** 0.5
        d[i & 31] = x
    return time.perf_counter() - t0


def speed_factor(samples: list[float], weights: list[float]) -> float:
    """REFERENCE_S over the weighted mean reference-loop time."""
    return REFERENCE_S * sum(weights) / sum(s * w for s, w in zip(samples, weights))


def run_job(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """(exit status, seconds, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught exception ends a real CLI call with status 1
            traceback.print_exc()
            status = 1
    text = out.getvalue()
    return status, time.perf_counter() - t0, text, err.getvalue()


def run_lists(cli, workload: str, seed: int, seconds: float, max_lists: int | None = None,
              tracer=None) -> dict:
    """Run job lists 0, 1, ... until ``seconds`` of job time, or ``max_lists``."""
    import checks
    list_s, job_ms, families, digests, records, loops = [], [], [], [], [], []
    timed = 0.0
    index = 0
    while index == 0 or (timed < seconds and index != max_lists):
        jobs = workloads.job_list(workload, seed, index)
        total = 0.0
        for family, argv in jobs:
            job = len(job_ms)
            loops.append(reference_loop())
            if tracer:
                tracer.begin_job(job, family)
            status, dt, out, err = run_job(cli, argv)
            if tracer:
                tracer.end_job(dt, len(out.encode()))
            total += dt
            job_ms.append(dt * 1000.0)
            families.append(family)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            records.append(checks.summarize(argv, status, out, err, job))
        list_s.append(total)
        timed += total
        index += 1
    # each job's time weights the reference loop run just before it
    factor = speed_factor(loops, job_ms)
    return {"lists": index, "speed_factor": factor, "raw_list_s": list_s,
            "list_s": [t * factor for t in list_s],
            "job_ms": [t * factor for t in job_ms], "families": families,
            "digests": digests, "records": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def check_records(records: list[dict]) -> tuple[int, list[str], dict]:
    """(failed jobs, reasons of wrong outputs, count of each refusal message).

    A job fails when it exits with a status other than 0 or its check fails.
    Its output is wrong unless it is a refusal: exit 1, nothing on stdout and
    an ``error:`` message on stderr.
    """
    import checks
    checker = checks.Checker()
    failed, wrong, refused = 0, [], collections.Counter()
    for rec in records:
        reason = checker.check(rec)
        if reason is None:
            continue
        failed += 1
        message = rec.get("stderr", "").strip()
        if rec["status"] == 1 and not rec["stdout_bytes"] and message.startswith("error:"):
            refused[f"{rec['argv'][0]}: {message}"] += 1
        else:
            wrong.append(f"{' '.join(rec['argv'])}: {reason} {message[-300:]}".strip())
    return failed, wrong, dict(refused)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to 'guinand imported and job list generated', per probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times, loops = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with status {proc.returncode}")
        loops.append(reference_loop())
    factor = speed_factor(loops, times)
    return [t * factor for t in times]


# --------------------------------------------------------------------------
# metrics and reports
# --------------------------------------------------------------------------

def end_to_end(run: dict, setup: list[float], failed: int) -> dict:
    job_ms = run["job_ms"]
    return {
        "run_s": statistics.mean(run["list_s"]),
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": statistics.quantiles(job_ms, n=10, method="inclusive")[8]
        if len(job_ms) > 1 else job_ms[0],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
        "failed_frac": failed / len(job_ms),
    }


def per_layer(tracer, traced: dict, untraced: dict, mismatches: int,
              lattice_points: list[int]) -> dict:
    """Per-layer totals per job list (name -> (value, unit)); times scaled."""
    from tracer import LAYERS, UNATTRIBUTED
    n = traced["lists"]
    scale = traced["speed_factor"] / n
    job_s = tracer.job_s
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_s[layer] * scale, "s")
        m[f"{layer}.share"] = (tracer.self_s[layer] / job_s, "1")
    m["sumsq.rk_table.calls"] = (tracer.fn_calls["rk_table"] / n, "count")
    m["sumsq.rk_table.cells"] = (sum(key[2] + 1 for key in tracer.rk_keys) / n, "count")
    distinct, repeat, cross = tracer.rk_shares()
    m["sumsq.rk_table.distinct_share"] = (distinct, "1")
    m["sumsq.rk_table.repeat_share"] = (repeat, "1")
    m["sumsq.rk_table.cross_job_share"] = (cross, "1")
    m["coeffs.calls"] = (tracer.calls["coeffs"] / n, "count")
    m["schwartz.eval.calls"] = (tracer.calls["schwartz.eval"] / n, "count")
    m["schwartz.algebra.calls"] = (tracer.calls["schwartz.algebra"] / n, "count")
    m["util.sum.adds"] = (tracer.calls["util.sum"] / n, "count")
    m["atoms.atoms_built"] = (tracer.atoms_built / n, "count")
    m["formulas.lattice_points"] = (sum(lattice_points) / n, "count")
    m["formulas.lattice_points_per_job"] = (
        statistics.mean(lattice_points) if lattice_points else 0.0, "count")
    m["radial.quadrature.f_evals"] = (tracer.evals_in["radial.quadrature"] / n, "count")
    m["cli.output_bytes"] = (tracer.output_bytes / n, "B")
    m["trace.job_s"] = (job_s * scale, "s")
    m["trace.unattributed_s"] = (tracer.self_s[UNATTRIBUTED] * scale, "s")
    m["trace.unattributed.share"] = (tracer.self_s[UNATTRIBUTED] / job_s, "1")
    # against the same lists untraced, in the fresh process that ran them
    m["trace.overhead"] = (statistics.mean(traced["list_s"])
                           / statistics.mean(untraced["list_s"][:n]) - 1.0, "1")
    m["trace.stdout_mismatches"] = (mismatches, "count")
    return m


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def header(args, env: dict) -> None:
    print(f"# guinand benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}  python={env['python']} "
          f"nproc={env['nproc']} commit={env['commit']} "
          f"loadavg={','.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"# why: {workloads.WHY[args.workload]}")


def family_figures(run: dict, workload: str) -> dict:
    """Per job family: job count, job time per list and job time quantiles."""
    out = {}
    for family in workloads.WORKLOADS[workload]:
        ms = [t for t, f in zip(run["job_ms"], run["families"]) if f == family]
        out[family] = {"jobs": len(ms), "s_per_list": sum(ms) / 1000.0 / run["lists"],
                       "job_ms_p50": statistics.median(ms),
                       "job_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8]}
    return out


def lattice_counts(records: list[dict]) -> list[int]:
    """Lattice points enumerated by each verify-shifted job (both sides)."""
    import checks
    from guinand.formulas import shifted_nodes
    counts = []
    for rec in records:
        argv = rec["argv"]
        if argv[0] != "verify-shifted":
            continue
        opt = checks.options(argv)
        k = int(opt["k"])
        eta = [Fraction(x) for x in opt["eta"].split(",")]
        xi = [Fraction(x) for x in opt["xi"].split(",")]
        counts.append(len(shifted_nodes(k, eta, float(opt["r-time"])))
                      + len(shifted_nodes(k, xi, float(opt["r-freq"]))))
    return counts


def run_untraced(args, cli, env: dict) -> tuple[dict, dict]:
    setup = setup_seconds(args.workload, args.seed)
    run = run_lists(cli, args.workload, args.seed, args.seconds)
    failed, wrong, refused = check_records(run["records"])
    metrics = end_to_end(run, setup, failed)
    jobs = len(run["job_ms"])
    beyond = sum(1 for x in run["job_ms"] if x > metrics["job_ms_p90"])
    families = family_figures(run, args.workload)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": 0, "env": env, "why": workloads.WHY[args.workload],
              "lists": run["lists"], "jobs": jobs, "failed": failed, "wrong": wrong,
              "refused": refused, "p90_beyond": beyond, "setup_probes": setup,
              "families": families, "speed_factor": run["speed_factor"],
              "raw_run_s": statistics.mean(run["raw_list_s"]),
              "list_s": run["list_s"], "digests": run["digests"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in END_TO_END}}
    header(args, env)
    notes = {"run_s": f"mean over {run['lists']} job lists of {jobs // run['lists']} "
                      f"jobs; raw {statistics.mean(run['raw_list_s']):.6g} s, "
                      f"speed factor {run['speed_factor']:.4f}",
             "job_ms_p50": f"over {jobs} jobs",
             "job_ms_p90": f"over {jobs} jobs, {beyond} beyond it",
             "setup_s": f"median of {len(setup)} fresh processes",
             "peak_rss_mb": "ru_maxrss after the last job",
             "failed_frac": f"{failed} of {jobs} jobs"}
    for name, unit, _ in END_TO_END:
        print(f"{name:<12} {metrics[name]:>12.6g} {unit:<3} {notes[name]}")
    for family, fig in families.items():
        print(f"# family {family}: {fig['jobs']} jobs, {fig['s_per_list']:.4g} s per list, "
              f"p50 {fig['job_ms_p50']:.4g} ms, p90 {fig['job_ms_p90']:.4g} ms")
    for message, count in refused.items():
        print(f"# refused {count}x: {message}")
    for line in wrong[:10]:
        print(f"wrong: {line}")
    result = {"correct": not wrong, "attempted": jobs, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, shown in END_TO_END if shown}}
    return report, result


def run_traced(args, cli, env: dict) -> tuple[dict, dict]:
    """Untraced run in a fresh process, then the first lists of it traced here.

    The traced pass covers half of the run's job time, which keeps a traced
    run within about twice an untraced one.
    """
    from tracer import LAYERS, UNATTRIBUTED, Tracer
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"untraced run exited with status {child.returncode}")
    untraced = json.loads(report_path(args.workload, args.seed, 0).read_text())
    untraced_ok = json.loads(child.stdout.strip().splitlines()[-1])["correct"]

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_lists(cli, args.workload, args.seed, args.seconds / 2,
                           untraced["lists"], tracer)
    finally:
        tracer.uninstall()
    failed, wrong, _ = check_records(traced["records"])
    mismatches = sum(a != b for a, b in zip(traced["digests"], untraced["digests"]))
    lattice = lattice_counts(traced["records"])
    metrics = per_layer(tracer, traced, untraced, mismatches, lattice)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    jobs = len(traced["job_ms"])
    family_shares = {family: {layer: self_s / sum(by_layer.values())
                              for layer, self_s in by_layer.items()}
                     for family, by_layer in tracer.family_self_s.items()}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": 1, "env": env, "why": workloads.WHY[args.workload],
              "lists": traced["lists"], "jobs": jobs, "failed": failed, "wrong": wrong,
              "spans": len(tracer.spans), "speed_factor": traced["speed_factor"],
              "self_s": {layer: t * traced["speed_factor"] for layer, t in tracer.self_s.items()},
              "family_shares": family_shares,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    header(args, env)
    print(f"# per job list, over {traced['lists']} lists of {jobs // traced['lists']} jobs; "
          f"{len(tracer.spans)} spans")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>12.6g} {unit}")
    for family, shares in family_shares.items():
        print(f"# family {family} shares: " + ", ".join(
            f"{layer} {shares.get(layer, 0.0):.3f}" for layer in (*LAYERS, UNATTRIBUTED)
            if shares.get(layer, 0.0) >= 0.005))
    for line in wrong[:10]:
        print(f"wrong: {line}")
    result = {"correct": not wrong and not mismatches and untraced_ok,
              "attempted": jobs, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return report, result


def run_all(args) -> int:
    """Each workload in its own fresh process; a table of the end-to-end metrics."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            return child.returncode
        rows.append((name, json.loads(report_path(name, args.seed, 0).read_text())))
    print()
    print(f"{'workload':<16}" + "".join(f"{n + ' (' + u + ')':>20}" for n, u, _ in END_TO_END))
    for name, rep in rows:
        print(f"{name:<16}" + "".join(f"{rep['metrics'][n]['value']:>20.6g}"
                                      for n, _, _ in END_TO_END))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.workload == "all":
        return run_all(args)
    cli = import_package()
    if args.setup_probe:
        workloads.job_list(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0
    env = environment()
    report, result = (run_traced if args.trace else run_untraced)(args, cli, env)
    OUT_DIR.mkdir(exist_ok=True)
    report_path(args.workload, args.seed, args.trace).write_text(json.dumps(report) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
