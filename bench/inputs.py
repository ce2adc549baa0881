"""Input generation for the workloads, from the seed alone.

This is the harness's own work: it runs before any workload process
starts, so none of it is timed.  It uses numpy and `oracle` only; the
datasets miselect builds itself from `generate` are described here by
their `SyntheticSpec` fields and built inside the timed set-up.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle

# The second workload runs the select-joint, analyze and ingest jobs of one
# round in one process; each part keeps its inputs in a subdirectory.
WORKLOADS = ("select-pairwise", "joint-analyze-ingest")
PARTS = ("analyze", "ingest", "select-joint")
PAIRWISE_KINDS = ("mim", "mifs", "mrmr", "jmi", "cife", "cmifs", "cmim", "cmim2", "icap")
BINS = 5

# n=10k, m=100 real-valued columns, as in the acceptance test; the planted
# binary set has the same size.
ACCEPT_N, ACCEPT_M = 10_000, 100
PAIRWISE_PLANTED = dict(n=10_000, relevant=3, xor_groups=2, redundant_copies=3, noise=90)

JOINT_PLANTED = dict(n=2_000, relevant=3, xor_groups=2, redundant_copies=3, noise=20,
                     flip_prob=0.05)

# Exhaustive truth tables, each tiled to ANALYZE_ROWS rows.  Each one mixes
# duplicated relevant columns (weakly relevant, blanketing each other),
# unduplicated relevant and XOR columns (strongly relevant) and noise.
ANALYZE_CONFIGS = (
    dict(relevant=2, xor_groups=1, redundant_copies=1, noise=1),
    dict(relevant=1, xor_groups=1, redundant_copies=2, noise=1),
    dict(relevant=2, xor_groups=1, redundant_copies=2, noise=0),
)
ANALYZE_ROWS = 2_048

INGEST_N, INGEST_M = 20_000, 12
INGEST_QUANTIZERS = ("equal-frequency", "equal-width")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


def make(workload: str, seed: int, out_dir: str) -> None:
    """Write the inputs of `workload` for `seed` into `out_dir`."""
    if workload == "select-pairwise":
        os.makedirs(out_dir, exist_ok=True)
        _pairwise(seed, out_dir)
        return
    for part, write in zip(PARTS, (_analyze, _ingest, _joint)):
        os.makedirs(os.path.join(out_dir, part), exist_ok=True)
        write(seed, os.path.join(out_dir, part))


def _pairwise(seed, out_dir):
    rng = np.random.default_rng([seed, 1])
    raw = rng.normal(size=(ACCEPT_N, ACCEPT_M))
    signal = raw[:, 0] + raw[:, 1] - raw[:, 2] + 0.5 * rng.normal(size=ACCEPT_N)
    cls = (signal > np.median(signal)).astype(np.int64)
    np.save(os.path.join(out_dir, "accept_raw.npy"), raw)
    np.save(os.path.join(out_dir, "accept_class.npy"), cls)
    codes = np.column_stack([oracle.equal_frequency_codes(raw[:, j], BINS)
                             for j in range(ACCEPT_M)]).astype(np.int8)
    np.save(os.path.join(out_dir, "accept_codes.npy"), codes)
    _write_json(os.path.join(out_dir, "meta.json"),
                {"planted": dict(PAIRWISE_PLANTED, seed=seed), "bins": BINS})


def _joint(seed, out_dir):
    _write_json(os.path.join(out_dir, "meta.json"),
                {"planted": dict(JOINT_PLANTED, seed=seed)})


def _analyze(seed, out_dir):
    rng = np.random.default_rng([seed, 3])
    configs = []
    for i, cfg in enumerate(ANALYZE_CONFIGS):
        m = cfg["relevant"] + 2 * cfg["xor_groups"] + cfg["redundant_copies"] + cfg["noise"]
        np.save(os.path.join(out_dir, f"rows{i}.npy"), rng.permutation(ANALYZE_ROWS))
        np.save(os.path.join(out_dir, f"cols{i}.npy"), rng.permutation(m))
        configs.append(cfg)
    _write_json(os.path.join(out_dir, "meta.json"),
                {"configs": configs, "rows": ANALYZE_ROWS})


def _ingest(seed, out_dir):
    """A CSV of real-valued columns and one string label column, plus the
    reference values every report must match."""
    rng = np.random.default_rng([seed, 4])
    raw = rng.normal(size=(INGEST_N, INGEST_M))
    signal = raw[:, 0] + raw[:, 1] - raw[:, 2] + 0.5 * rng.normal(size=INGEST_N)
    labels = np.where(signal > 0.8, "high", np.where(signal < -0.8, "low", "mid"))
    names = [f"v{j}" for j in range(INGEST_M)]
    for j in range(INGEST_M):
        if len(np.unique(raw[:, j])) != INGEST_N:
            raise RuntimeError(f"column {names[j]} has repeated values; pick another seed")
    with open(os.path.join(out_dir, "data.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(names + ["label"]) + "\n")
        for i in range(INGEST_N):
            fh.write(",".join(repr(float(v)) for v in raw[i]) + "," + labels[i] + "\n")

    c = oracle.dense(labels)
    expected = {"n": INGEST_N, "features": names, "target": "label", "bins": BINS}
    for quantizer in INGEST_QUANTIZERS:
        binning = (oracle.equal_frequency_codes if quantizer == "equal-frequency"
                   else oracle.equal_width_codes)
        codes = {f: oracle.dense(binning(raw[:, j], BINS)) for j, f in enumerate(names)}
        rows = {f: {"mi": oracle.mi([codes[f]], [c]), "exact": oracle.map_error(codes[f], c)}
                for f in names}
        pairs = {f"{a}|{b}": oracle.mi([codes[a]], [codes[b]])
                 for i, a in enumerate(names) for b in names[i + 1:]}
        expected[quantizer] = {"bounds": rows, "pairwise_mi": pairs}
    _write_json(os.path.join(out_dir, "expected.json"), expected)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one workload's inputs for a seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    make(args.workload, args.seed, args.out)
