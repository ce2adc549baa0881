"""One workload process: set up, then run whole rounds of jobs as a closed loop.

Usage (started by run.py, not by hand):
    worker.py WORKLOAD INPUT_DIR SECONDS MODE [TRACE_PATH]

MODE is `setup` (set up, run the warm-up job, report and exit), `run`
(set up, then time jobs, starting `setup` probes of the same workload
between them) or `trace` (set up, then run every job twice, untraced and
traced).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# first, so that set-up time covers every import of the program
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import miselect  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_ERRORS = 5
PROBES = 6            # set-up probes per timed run, spread over its length
PROBE_TIMEOUT_S = 30


def _run_job(wl, label, job):
    """Time one job and check its output.

    Returns its wall time, whether it failed (raised, or gave a wrong
    value) and whether it gave a wrong value.
    """
    start = time.perf_counter()
    try:
        result = job()
    except Exception as exc:  # a job that raises counts as failed
        elapsed = time.perf_counter() - start
        _report(label, [f"raised {type(exc).__name__}: {exc}"])
        return elapsed, True, False
    elapsed = time.perf_counter() - start
    try:
        errors = wl.check(label, result)
    except workloads.OperationFailed as exc:
        _report(label, [str(exc)])
        return elapsed, True, False
    if errors:
        _report(label, errors)
    return elapsed, bool(errors), bool(errors)


def _report(label, errors):
    print(f"job {label} failed: " + "; ".join(errors[:3]), file=sys.stderr)


def _probe_setup(argv) -> float:
    """Set up the same workload in a new process; return its set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), argv[1], argv[2], argv[3], "setup"]
    started = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])["ready"] - started


def main(argv):
    workload, in_dir, seconds, mode = argv[1], argv[2], float(argv[3]), argv[4]
    tracer = tracing.Tracer(miselect) if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[workload](miselect, in_dir)
    if tracer is not None:
        setup_totals = tracer.snapshot()
        tracer.uninstall()
    jobs = wl.round()
    jobs[0][1]()  # warm-up
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    job_times = defaultdict(list)       # untraced wall times, by job label
    traced_s = 0.0
    attempted = failed = wrong = rounds = 0
    probes: list[float] = []
    paused = 0.0                        # wall time spent in set-up probes
    loop_start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - loop_start - paused

    # Whole rounds.  A round starts only if, judged by the last round's
    # length, it would end within `seconds`, so a run ends near `seconds`
    # rather than up to a round past it.  Probes run between jobs, spread
    # over the run so that set-up is sampled in the same stretch of host
    # speed as the jobs; their time is not counted against `seconds`.
    while True:
        round_start = elapsed()
        for i, (label, job) in enumerate(jobs):
            if tracer is None:
                job_s, job_failed, job_wrong = _run_job(wl, label, job)
                job_times[label].append(job_s)
                outcomes = [(job_failed, job_wrong)]
            else:
                # the same job untraced and traced, back to back, in an order
                # that alternates, so host speed drifts cancel in the ratio
                outcomes = []
                for traced in ((False, True) if (rounds + i) % 2 == 0 else (True, False)):
                    if traced:
                        tracer.job = label
                        tracer.install()
                    job_s, job_failed, job_wrong = _run_job(wl, label, job)
                    if traced:
                        tracer.uninstall()
                        traced_s += job_s
                    else:
                        job_times[label].append(job_s)
                    outcomes.append((job_failed, job_wrong))
            attempted += len(outcomes)
            failed += sum(f for f, _ in outcomes)
            wrong += sum(w for _, w in outcomes)
            if (mode == "run" and len(probes) < PROBES
                    and elapsed() >= (len(probes) + 0.5) * seconds / PROBES):
                probe_start = time.perf_counter()
                probes.append(_probe_setup(argv))
                paused += time.perf_counter() - probe_start
        rounds += 1
        now = elapsed()
        # a traced run ends after an even number of rounds, so that every
        # job ran as often traced first as untraced first
        if now + (now - round_start) > seconds and (tracer is None or rounds % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while mode == "run" and len(probes) < PROBES:
        probes.append(_probe_setup(argv))

    run_errors = wl.final_checks()
    for error in run_errors[:MAX_REPORTED_ERRORS]:
        print(f"run check failed: {error}", file=sys.stderr)

    untraced = [t for times in job_times.values() for t in times]
    result = {
        "ready": ready,
        "probe_setup_s": probes,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and not run_errors,
        "jobs_per_s": len(untraced) / sum(untraced),
        # each kind of job's median time, combined over kinds by geometric
        # mean: every kind weighs the same, where jobs_per_s is set mostly
        # by the slowest kinds
        "job_p50_s": math.exp(statistics.fmean(math.log(statistics.median(times))
                                               for times in job_times.values())),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, setup_totals, rounds * len(jobs))
        result["layers"]["trace.overhead_ratio"] = traced_s / sum(untraced)
        tracer.write_spans(argv[5])
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, setup_totals, traced_jobs):
    """Per-job figures of the traced runs of the jobs, plus the traced set-up once."""
    totals = tracer.snapshot()
    out = {}
    for key in set(totals) | set(setup_totals):
        in_setup = setup_totals.get(key, 0.0)
        out[key] = in_setup + (totals.get(key, 0.0) - in_setup) / traced_jobs
    lookups = totals.get("criteria.pair_cache.lookups", 0.0)
    misses = totals.get("criteria.pair_cache.misses", 0.0)
    out["criteria.pair_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    steps = totals.get("search.steps", 0.0)
    out["search.step_s"] = tracer.layer_self_s("search") / steps if steps else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
