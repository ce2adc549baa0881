"""Golden reports: every CLI report, a few full-precision traces, a
full-precision structure report on sampled data and the per-call
information measures, byte for byte.

The inputs and expected outputs live in tests/golden/.  To rebuild them
(only after a deliberate change of output), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import csv
import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from miselect import (CriterionSpec, QuantizerSpec, SyntheticSpec, analyze, example1,
                      generate, load_csv)
from miselect import data as mdata
from miselect import info
from miselect.cli import main
from miselect.criteria import KINDS
from miselect.search import backward_eliminate, forward_select, plus_l_take_away_r

GOLDEN = Path(__file__).parent / "golden"
GEN = GOLDEN / "gen.csv"        # 13 binary columns, n=400, 10% label noise
REAL = GOLDEN / "real.csv"      # 300 rows, 8 real-valued columns, string label
TRUTH = GOLDEN / "truth.csv"    # exhaustive truth table, m=6
PER_CALL = GOLDEN / "per-call-values.json"
SAMPLED12 = GOLDEN / "analyze-sampled12.json"

INT = ["--quantizer", "pass-through"]


def _cli_runs():
    runs = {}
    for kind in KINDS:
        runs[f"select-forward-{kind}.json"] = [
            "select", str(GEN), "--target", "C", *INT, "--criterion", kind, "--k", "5"]
        runs[f"select-plus2-minus1-{kind}.json"] = [
            "select", str(GEN), "--target", "C", *INT, "--criterion", kind,
            "--strategy", "plus-l-take-away-r", "--l", "2", "--r", "1", "--k", "4"]
    runs["select-backward-md.json"] = [
        "select", str(GEN), "--target", "C", *INT, "--criterion", "md",
        "--strategy", "backward", "--k", "4"]
    runs["select-plus1-minus2-md.json"] = [
        "select", str(GEN), "--target", "C", *INT, "--criterion", "md",
        "--strategy", "plus-l-take-away-r", "--l", "1", "--r", "2", "--k", "9"]
    runs["analyze-truth.json"] = ["analyze", str(TRUTH), "--target", "C", *INT]
    for q in ("equal-width", "equal-frequency"):
        quant = ["--quantizer", q, "--bins", "4" if q == "equal-width" else "5"]
        runs[f"bounds-{q}.json"] = ["bounds", str(REAL), "--target", "label", *quant]
        runs[f"bounds-{q}.csv"] = ["bounds", str(REAL), "--target", "label", *quant,
                                   "--format", "csv"]
        runs[f"info-{q}.json"] = ["info", str(REAL), "--target", "label", *quant]
    return runs


CLI_RUNS = _cli_runs()


def _library_traces():
    pt = QuantizerSpec("pass-through", 2)
    gen = load_csv(GEN, "C", pt)
    truth = load_csv(TRUTH, "C", pt)
    real = load_csv(REAL, "label")
    # twelve bins: the (f, s, C) and chain rows hold more than 128 cells
    # per candidate, where numpy sums a row's terms recursively
    real12 = load_csv(REAL, "label", QuantizerSpec("equal-frequency", 12))
    return {
        # one full-precision trace for each pairwise kind; beta = 0.37 so
        # that -beta * sum is not exact
        "trace-forward-mim-real.json": forward_select(CriterionSpec("mim"), real, k=5),
        "trace-forward-mifs-real.json": forward_select(
            CriterionSpec("mifs", beta=0.37), real, k=6),
        "trace-forward-cife-gen.json": forward_select(CriterionSpec("cife"), gen, k=6),
        "trace-forward-cmim2-real.json": forward_select(CriterionSpec("cmim2"), real, k=6),
        "trace-forward-jmi-real12.json": forward_select(CriterionSpec("jmi"), real12, k=6),
        "trace-forward-cmifs-real12.json": forward_select(CriterionSpec("cmifs"), real12, k=6),
        "trace-forward-jmi-real.json": forward_select(CriterionSpec("jmi"), real, k=5),
        "trace-forward-cmim-gen.json": forward_select(CriterionSpec("cmim"), gen, k=5),
        "trace-forward-mmd-gen.json": forward_select(CriterionSpec("mmd"), gen, k=4),
        "trace-backward-md-gen.json": backward_eliminate(CriterionSpec("md"), gen, k=4),
        "trace-plus1-minus2-md-truth.json": plus_l_take_away_r(
            CriterionSpec("md"), truth, l=1, r=2, k=3),
        # the CMIFS chain term I(f;s_t|s_1), and removed features scored
        # again as candidates against pair statistics cached earlier
        "trace-forward-cmifs-real.json": forward_select(CriterionSpec("cmifs"), real, k=6),
        "trace-forward-cmifs-gen.json": forward_select(CriterionSpec("cmifs"), gen, k=6),
        "trace-plus2-minus1-jmi-real.json": plus_l_take_away_r(
            CriterionSpec("jmi"), real, l=2, r=1, k=7),
        "trace-plus2-minus1-mrmr-real.json": plus_l_take_away_r(
            CriterionSpec("mrmr"), real, l=2, r=1, k=4),
        "trace-plus2-minus1-icap-real.json": plus_l_take_away_r(
            CriterionSpec("icap"), real, l=2, r=1, k=6),
        "trace-plus2-minus1-icap-gen.json": plus_l_take_away_r(
            CriterionSpec("icap"), gen, l=2, r=1, k=6),
        # joint criteria whose composites of S\f, S+f and the complement
        # have more cells than real.csv has rows; the plus-1-minus-2 run
        # also removes from a set of one feature
        "trace-backward-md-real.json": backward_eliminate(CriterionSpec("md"), real, k=1),
        "trace-forward-md-real.json": forward_select(CriterionSpec("md"), real, k=6),
        "trace-forward-mmd-real.json": forward_select(CriterionSpec("mmd"), real, k=4),
        "trace-plus1-minus2-md-real.json": plus_l_take_away_r(
            CriterionSpec("md"), real, l=1, r=2, k=1),
        # the searches that stop short of k: on a threshold, on a round
        # that changes nothing, and after an add phase that ran out of
        # candidates while its round's remove still ran
        "trace-forward-mifs-gen-threshold.json": forward_select(
            CriterionSpec("mifs", beta=1.0), gen, threshold=0.0),
        "trace-forward-jmi-gen-exhausted.json": forward_select(
            CriterionSpec("jmi"), gen, threshold=-1.0),
        "trace-plus14-minus1-jmi-gen.json": plus_l_take_away_r(
            CriterionSpec("jmi"), gen, l=14, r=1, k=13),
    }


def _dataset_values(name: str, ds) -> dict[str, float]:
    """Plug-in H, I and CMI over runs of consecutive columns of `ds`, with
    composite Views as whole groups and as the leading columns of a group."""
    F, T = list(ds.feature_names), [ds.target_name]
    runs = [F[i:i + w] for w in (1, 2, 3) for i in range(len(F) - w + 1)]
    views = {f"V({','.join(r)})": mdata.View(*mdata.composite_view(ds, r))
             for r in runs if len(r) > 1}
    views.update((f"L({f})", view) for f, view in zip(F, mdata.leave_one_out_views(ds, F)))
    out = {}

    def put(label, value):
        out[f"{name} {label}"] = value

    put(f"H({F[0]},{T[0]})", mdata.entropy(ds, F[:1] + T))
    for r in runs + [F]:
        put(f"H({','.join(r)})", mdata.entropy(ds, r))
        put(f"I({','.join(r)};{T[0]})", mdata.mutual_information(ds, r, T))
    for f, g, h in zip(F, F[1:], F[2:]):
        put(f"I({f};{g})", mdata.mutual_information(ds, [f], [g]))
        put(f"I({f};{T[0]}|{g})", mdata.conditional_mutual_information(ds, [f], T, [g]))
        put(f"I({f};{T[0]}|{g},{h})", mdata.conditional_mutual_information(ds, [f], T, [g, h]))
        put(f"I({f},{g};{T[0]}|{h})", mdata.conditional_mutual_information(ds, [f, g], T, [h]))
        put(f"I({f};{g}|{T[0]})", mdata.conditional_mutual_information(ds, [f], [g], T))
    for label, view in views.items():
        other = next(f for f in F if f not in label)
        put(f"H({label})", mdata.entropy(ds, [view]))
        put(f"H({label},{other})", mdata.entropy(ds, [view, other]))
        put(f"I({label};{T[0]})", mdata.mutual_information(ds, [view], T))
        put(f"I({label},{other};{T[0]})", mdata.mutual_information(ds, [view, other], T))
        put(f"I({other};{T[0]}|{label})",
            mdata.conditional_mutual_information(ds, [other], T, [view]))
        put(f"I({other};{label}|{T[0]})",
            mdata.conditional_mutual_information(ds, [other], [view], T))
    return out


def _distribution_values(name: str, dist, size: int) -> dict[str, float]:
    """Exact H, H(T|G), I and CMI over disjoint groups of up to `size`
    variables of `dist`, conditioning on one variable."""
    vs = dist.variables
    groups = [g for k in range(1, size + 1) for g in combinations(vs, k)]
    out = {}
    for a in groups:
        out[f"{name} H({','.join(a)})"] = info.entropy(dist, a)
        for b in groups:
            if set(a) & set(b):
                continue
            ab = f"{','.join(a)};{','.join(b)}"
            out[f"{name} H({ab.replace(';', '|')})"] = info.conditional_entropy(dist, a, b)
            out[f"{name} I({ab})"] = info.mutual_information(dist, a, b)
            for c in groups[:len(vs)] if len(a) + len(b) <= size + 1 else ():
                if not set(c) & (set(a) | set(b)):
                    out[f"{name} I({ab}|{c[0]})"] = info.conditional_mutual_information(
                        dist, a, b, c)
    return out


def _per_call_values() -> dict[str, float]:
    pt = QuantizerSpec("pass-through", 2)
    truth = load_csv(TRUTH, "C", pt)
    return {
        **_dataset_values("real", load_csv(REAL, "label")),
        **_dataset_values("gen", load_csv(GEN, "C", pt)),
        **_distribution_values("example1", example1()[0], 2),
        **_distribution_values(
            "truth", mdata.empirical_distribution(truth, truth.feature_names + ("C",)), 2),
    }


def _sampled12_report() -> str:
    """`analyze` at full precision on m=12 sampled data, where plug-in bias
    makes every feature strongly relevant and no feature has a blanket."""
    ds, _ = generate(SyntheticSpec(n=2000, relevant=2, xor_groups=1, noise=8,
                                   flip_prob=0.05, seed=3))
    return json.dumps(analyze(ds).to_dict(), indent=2, sort_keys=True) + "\n"


def _run_cli(argv, out: Path) -> bytes:
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.filterwarnings("ignore:MMD complement set")
@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_report_matches_golden(name, tmp_path):
    assert _run_cli(CLI_RUNS[name], tmp_path / name) == (GOLDEN / name).read_bytes()


@pytest.mark.filterwarnings("ignore:MMD complement set")
def test_library_traces_match_golden():
    for name, trace in _library_traces().items():
        assert trace.to_json(indent=2) + "\n" == (GOLDEN / name).read_text(), name


def test_per_call_measures_match_golden():
    """Every per-call H, H(T|G), I and CMI, to the last bit (float.hex)."""
    got = {name: value.hex() for name, value in _per_call_values().items()}
    assert got == json.loads(PER_CALL.read_text())


def test_analyze_on_sampled_data_matches_golden():
    assert _sampled12_report() == SAMPLED12.read_text()


def _write_inputs(tmp: Path):
    main(["gen", "--out", str(GEN), "--truth-out", str(tmp / "gen.truth.json"),
          "--n", "400", "--relevant", "2", "--xor-groups", "2",
          "--redundant-copies", "2", "--noise", "5", "--flip-prob", "0.1",
          "--seed", "7"])
    main(["gen", "--out", str(TRUTH), "--truth-out", str(tmp / "truth.truth.json"),
          "--exhaustive", "--relevant", "1", "--xor-groups", "1",
          "--redundant-copies", "1", "--noise", "2"])
    rng = np.random.default_rng(20240611)
    n = 300
    z = rng.normal(size=(n, 4))
    cols = np.column_stack([
        z[:, 0], z[:, 1], z[:, 0] + 0.3 * z[:, 2], np.exp(z[:, 1]),
        z[:, 3], rng.uniform(-1.0, 1.0, n), z[:, 0] * z[:, 1], rng.standard_t(3, n)])
    score = z[:, 0] + 0.8 * z[:, 1] + 0.5 * rng.normal(size=n)
    labels = np.where(score < -0.7, "low", np.where(score < 0.7, "mid", "high"))
    with open(REAL, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"r{j}" for j in range(cols.shape[1])] + ["label"])
        for row, lab in zip(cols, labels):
            writer.writerow([repr(float(v)) for v in row] + [lab])


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
    for name, argv in CLI_RUNS.items():
        _run_cli(argv, GOLDEN / name)
    for name, trace in _library_traces().items():
        (GOLDEN / name).write_text(trace.to_json(indent=2) + "\n")
    values = {name: value.hex() for name, value in _per_call_values().items()}
    PER_CALL.write_text(json.dumps(values, indent=1) + "\n")
    SAMPLED12.write_text(_sampled12_report())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()
