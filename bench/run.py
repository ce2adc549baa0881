"""miselect benchmark: one workload per run, printed as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then starts the workload
process (bench/worker.py) with one thread, which sets up and runs whole
rounds of jobs back to back for up to S seconds, checking every output.  With
--trace 0 it prints the end-to-end metrics; set-up time is the median over
the workload process and the set-up probes it starts between jobs.  With
--trace 1 it prints the per-layer metrics of a traced run instead.  Run it
from the root of a checkout of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
sys.pycache_prefix = os.path.join(WORK, "pycache")
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKER_TIMEOUT_S = 150


def _metric_units(kind: str) -> dict:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPYCACHEPREFIX": sys.pycache_prefix,
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _start_worker(args, in_dir, mode, extra=()):
    """Run one worker to its end; return its result and its start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, in_dir,
           str(args.seconds), mode, *extra]
    started = time.monotonic()
    # its own process group, so that a kill also ends a set-up probe it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "miselect", "__init__.py")):
        print(f"bench: no miselect sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    in_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        inputs.make(args.workload, args.seed, in_dir)
        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            spans = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            result, _ = _start_worker(args, in_dir, "trace", [spans])
            metrics = {name: {"value": result["layers"].get(name, 0.0), "unit": unit}
                       for name, unit in _metric_units("per_layer").items()}
        else:
            result, started = _start_worker(args, in_dir, "run")
            result["setup_s"] = statistics.median([result["ready"] - started]
                                                  + result["probe_setup_s"])
            metrics = {name: {"value": result[name], "unit": unit}
                       for name, unit in _metric_units("end_to_end").items()}
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
