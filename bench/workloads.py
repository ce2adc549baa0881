"""The workloads: shared inputs, the round of jobs, and the checks.

Each workload class builds the inputs its jobs share in `__init__` (timed
as set-up), lists one round of jobs in `round()`, and checks one job's
output in `check()` against `oracle` and the properties the method must
have.  `final_checks()` runs once after the timed jobs.  Checks never
compare against stored output of miselect.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from itertools import product

import numpy as np

import inputs
import oracle

TIE_TOL = 1e-9


class OperationFailed(Exception):
    """A program call made while checking a job raised: the job failed.

    Raised after the job's values were checked, with those checks passed.
    """


def _near(a, b) -> bool:
    return abs(a - b) <= oracle.TOL


def _replayed(trace, errors: list[str]) -> list[str]:
    """`errors` plus a replay() mismatch; OperationFailed if replay() raises
    and no value was wrong."""
    try:
        replayed = trace.replay()
    except ValueError as exc:
        if errors:
            return errors
        raise OperationFailed(f"replay() raised ValueError: {exc}") from None
    if replayed != trace.selected:
        errors.append(f"replay() {replayed} != selected {trace.selected}")
    return errors


def _common_trace_errors(trace, k=None) -> list[str]:
    errors = []
    if k is not None and len(trace.selected) != k:
        errors.append(f"selected {len(trace.selected)} features, expected {k}")
    for i, step in enumerate(trace.steps):
        best = (max if step.direction == "add" else min)(step.scores.values())
        if step.chosen not in step.ties or abs(step.scores[step.chosen] - best) > TIE_TOL:
            errors.append(f"step {i}: chosen {step.chosen} is not an extremal score")
    return errors


def _planted_groups(spec: dict) -> list[set[str]]:
    """Each OR-ed relevant column with its copies, by generate's column order:
    relevant, XOR members, copies (cycling over the relevant columns), noise."""
    r, x = spec["relevant"], spec["xor_groups"]
    groups = [{f"x{j + 1}"} for j in range(r)]
    for j in range(spec["redundant_copies"]):
        groups[j % r].add(f"x{r + 2 * x + j + 1}")
    return groups


def _missing_groups(spec: dict, selected) -> list[str]:
    chosen = set(selected)
    return [sorted(g)[0] for g in _planted_groups(spec) if not g & chosen]


class SelectPairwise:
    """Forward selection to k=10 with the nine pairwise criteria on two
    n=10k, m=100 datasets: equal-frequency 5-bin real data and planted
    binary data."""

    K = 10

    def __init__(self, ms, in_dir):
        self.ms = ms
        with open(os.path.join(in_dir, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        raw = np.load(os.path.join(in_dir, "accept_raw.npy"))
        cls = np.load(os.path.join(in_dir, "accept_class.npy"))
        quant = ms.QuantizerSpec("equal-frequency", meta["bins"])
        cols, cards = zip(*(ms.data.quantize_column(raw[:, j], quant)
                            for j in range(raw.shape[1])))
        names = tuple(f"f{j}" for j in range(raw.shape[1]))
        del raw  # the raw values are not held while the jobs run
        self.accept = ms.Dataset(np.column_stack(cols), cls, tuple(cards), 2, names, "y")
        # the oracle's own equal-frequency codes, written with the inputs; once
        # they match, the oracle works on views of miselect's codes, so the
        # timed process holds no second copy of the data
        ref_codes = np.load(os.path.join(in_dir, "accept_codes.npy"))
        self.setup_errors = [f"equal-frequency codes of {name} differ from the oracle's"
                             for j, name in enumerate(names)
                             if not np.array_equal(cols[j], ref_codes[:, j])]
        del cols, ref_codes
        self.planted_spec = meta["planted"]
        self.planted, _ = ms.generate(ms.SyntheticSpec(**self.planted_spec))
        self.refs = {name: oracle.Reference(ds.feature_names, ds.features, ds.class_codes)
                     for name, ds in (("accept", self.accept), ("planted", self.planted))}

    def round(self):
        jobs = []
        for ds_name, ds in (("accept", self.accept), ("planted", self.planted)):
            for kind in inputs.PAIRWISE_KINDS:
                spec = self.ms.CriterionSpec(kind, beta=1.0 if kind == "mifs" else None)
                jobs.append((f"{kind}/{ds_name}",
                             lambda spec=spec, ds=ds: self.ms.forward_select(spec, ds, k=self.K)))
        return jobs

    def check(self, label, trace):
        kind, ds_name = label.split("/")
        return _replayed(trace, self._check_values(kind, ds_name, trace))

    def _check_values(self, kind, ds_name, trace):
        ref = self.refs[ds_name]
        errors = _common_trace_errors(trace, self.K)
        for f, value in trace.steps[0].scores.items():
            if not _near(value, ref.rel(f)):
                errors.append(f"step 0: score of {f} is {value}, I(f;C) is {ref.rel(f)}")
        for i, step in enumerate(trace.steps[1:], start=1):
            want = oracle.pairwise_score(kind, step.chosen, trace.selected[:i], ref,
                                         beta=1.0 if kind == "mifs" else None)
            if not _near(step.scores[step.chosen], want):
                errors.append(f"step {i}: {kind} score of {step.chosen} is "
                              f"{step.scores[step.chosen]}, the formula gives {want}")
        if ds_name == "accept" and kind == "jmi" and not {"f0", "f1", "f2"} <= set(trace.selected):
            errors.append(f"JMI selection {trace.selected} misses one of f0, f1, f2")
        if ds_name == "planted":
            missing = _missing_groups(self.planted_spec, trace.selected)
            if missing:
                errors.append(f"no column of the planted groups of {missing} selected")
        return errors

    def final_checks(self):
        return self.setup_errors + _equal_frequency_errors(self.accept.features,
                                                           self.accept.feature_names)


def _equal_frequency_errors(codes, names) -> list[str]:
    errors = []
    for j, name in enumerate(names):
        counts = np.bincount(codes[:, j])
        if counts.max() - counts.min() > 1:
            errors.append(f"equal-frequency bins of {name} have counts {counts.tolist()}")
    return errors


class SelectJoint:
    """MD and MMD forward selection, MD backward elimination and MD
    plus-l-take-away-r on a planted binary dataset with label noise."""

    def __init__(self, ms, in_dir):
        self.ms = ms
        with open(os.path.join(in_dir, "meta.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)["planted"]
        self.ds, _ = ms.generate(ms.SyntheticSpec(**self.spec))
        self.ref = oracle.Reference(self.ds.feature_names, self.ds.features,
                                    self.ds.class_codes)
        # MMD warns once per candidate that the complement's support is
        # sparse; on 30 binary columns that is every candidate
        warnings.filterwarnings("ignore", message="MMD complement set")

    def round(self):
        ms, ds = self.ms, self.ds
        md, mmd = ms.CriterionSpec("md"), ms.CriterionSpec("mmd")
        return [
            ("md-forward", lambda: ms.forward_select(md, ds, k=8)),
            ("mmd-forward", lambda: ms.forward_select(mmd, ds, k=3)),
            ("md-backward", lambda: ms.backward_eliminate(md, ds, k=20)),
            ("md-plus-2-take-away-1", lambda: ms.plus_l_take_away_r(md, ds, l=2, r=1, k=8)),
        ]

    def check(self, label, trace):
        return _replayed(trace, self._check_values(label, trace))

    def _check_values(self, label, trace):
        ref, names = self.ref, self.ds.feature_names
        errors = _common_trace_errors(trace)
        S: list[str] = [] if label != "md-backward" else list(names)
        chosen_scores = []
        for i, step in enumerate(trace.steps):
            if step.direction == "add":
                for f, value in step.scores.items():
                    if label == "mmd-forward":
                        if f != step.chosen:
                            continue
                        rest = [v for v in names if v not in S and v != f]
                        want = ref.joint_rel(S + [f]) - (ref.joint_rel(rest) if rest else 0.0)
                    else:
                        want = ref.joint_rel(S + [f])
                    if not _near(value, want):
                        errors.append(f"step {i}: score of {f} is {value}, expected {want}")
                chosen_scores.append(step.scores[step.chosen])
                S.append(step.chosen)
            else:
                for f, value in step.scores.items():
                    want = ref.cond_rel(f, [v for v in S if v != f])
                    if not _near(value, want):
                        errors.append(f"step {i}: removal score of {f} is {value}, "
                                      f"I(f;C|S\\f) is {want}")
                S.remove(step.chosen)
        if tuple(S) != trace.selected:
            errors.append(f"steps lead to {S}, trace says {trace.selected}")
        if label == "md-forward":
            if any(b < a - oracle.TOL for a, b in zip(chosen_scores, chosen_scores[1:])):
                errors.append(f"MD step scores decrease: {chosen_scores}")
        if label != "md-backward":
            missing = _missing_groups(self.spec, trace.selected)
            if missing:
                errors.append(f"no column of the planted groups of {missing} selected")
        return errors

    def final_checks(self):
        return []


class Analyze:
    """`analyze` on exhaustive truth tables tiled to a few thousand rows,
    with rows and columns in a seeded order."""

    def __init__(self, ms, in_dir):
        self.ms = ms
        with open(os.path.join(in_dir, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        self.configs = meta["configs"]
        self.datasets = []
        for i, cfg in enumerate(self.configs):
            table, _ = ms.generate(ms.SyntheticSpec(exhaustive=True, **cfg))
            reps = meta["rows"] // table.n
            rows = np.load(os.path.join(in_dir, f"rows{i}.npy"))
            cols = np.load(os.path.join(in_dir, f"cols{i}.npy"))
            feats = np.tile(table.features, (reps, 1))[rows][:, cols]
            cls = np.tile(table.class_codes, reps)[rows]
            self.datasets.append(ms.Dataset(
                feats, cls, tuple(table.feature_cards[c] for c in cols), 2,
                tuple(table.feature_names[c] for c in cols), table.target_name))
        self.refs = [oracle.Reference(ds.feature_names, ds.features, ds.class_codes)
                     for ds in self.datasets]

    def round(self):
        return [(f"analyze/{i}", lambda ds=ds: self.ms.analyze(ds))
                for i, ds in enumerate(self.datasets)]

    def check(self, label, report):
        i = int(label.split("/")[1])
        cfg, ds, ref = self.configs[i], self.datasets[i], self.refs[i]
        structure = self.ms.structure
        groups = _planted_groups(cfg)
        group_of = {f: g for g in groups for f in g}
        noise = {f"x{ds.m - j}" for j in range(cfg["noise"])}
        errors = []
        for f in ds.feature_names:
            level = report.relevance[f]
            if f in noise:
                want_level, want_blankets = structure.IRRELEVANT, {()}
            elif f in group_of and len(group_of[f]) > 1:
                want_level = structure.WEAKLY_RELEVANT
                want_blankets = {(g,) for g in group_of[f] - {f}}
            else:
                want_level, want_blankets = structure.STRONGLY_RELEVANT, set()
            if level.level != want_level:
                errors.append(f"{f} classified {level.level}, construction says {want_level}")
            if level.witness is not None and not ref.cond_rel(f, level.witness) > oracle.TOL:
                errors.append(f"witness {level.witness} of {f} gives I(f;C|S) = 0")
            if level.witness and ref.rel(f) > oracle.TOL:
                errors.append(f"witness of {f} is {level.witness}, but the empty set "
                              f"already gives I(f;C) > 0")
            if set(report.markov_blankets[f]) != want_blankets:
                errors.append(f"blankets of {f} are {report.markov_blankets[f]}, "
                              f"construction says {sorted(want_blankets)}")
        full = ref.joint_rel(ds.feature_names)
        strong = [f for f in ds.feature_names
                  if f not in noise and not (f in group_of and len(group_of[f]) > 1)]
        multi = [sorted(g) for g in groups if len(g) > 1]
        want_subsets = {frozenset(strong) | set(pick) for pick in product(*multi)}
        got_subsets = {frozenset(s.features) for s in report.sufficient_subsets}
        if got_subsets != want_subsets:
            errors.append(f"sufficient subsets {sorted(map(sorted, got_subsets))}, "
                          f"construction says {sorted(map(sorted, want_subsets))}")
        for s in report.sufficient_subsets:
            if not (_near(s.mi_with_class, full) and _near(s.dmi, 0.0)):
                errors.append(f"subset {s.features}: I(S;C) {s.mi_with_class}, "
                              f"I(F;C) {full}, deficit {s.dmi}")
        for f, value in report.dmi_per_feature.items():
            if not _near(value, max(full - ref.rel(f), 0.0)):
                errors.append(f"DMI of {f} is {value}, expected {full - ref.rel(f)}")
        return errors

    def final_checks(self):
        return []


class Ingest:
    """Whole `miselect bounds` (JSON, CSV) and `miselect info` runs on a CSV
    of real-valued columns and a string label, read with the
    equal-frequency and the equal-width quantizer."""

    def __init__(self, ms, in_dir):
        import miselect.cli  # noqa: F401  (the CLI is part of what set-up loads)
        self.ms = ms
        self.csv = os.path.join(in_dir, "data.csv")
        self.out_dir = os.path.join(in_dir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(in_dir, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def round(self):
        jobs = []
        target = self.expected["target"]
        for quantizer in inputs.INGEST_QUANTIZERS:
            for command, fmt in (("bounds", "json"), ("bounds", "csv"), ("info", "json")):
                label = f"{command}-{fmt}/{quantizer}"
                out = os.path.join(self.out_dir, f"{command}-{fmt}-{quantizer}.{fmt}")
                argv = [command, self.csv, "--target", target, "--quantizer", quantizer,
                        "--bins", str(self.expected["bins"]), "--out", out]
                if command == "bounds":
                    argv += ["--format", fmt]
                jobs.append((label, lambda argv=argv, out=out: (self.ms.cli.main(argv), out)))
        return jobs

    def check(self, label, result):
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        command, quantizer = label.split("/")
        want = self.expected[quantizer]
        names = self.expected["features"]
        errors = []
        with open(out, newline="", encoding="utf-8") as fh:
            if command == "bounds-csv":
                rows = [{k: (v if k == "feature" else float(v)) for k, v in r.items()}
                        for r in csv.DictReader(fh)]
            else:
                report = json.load(fh)
        if command.startswith("bounds"):
            if command == "bounds-json":
                rows = report["bounds"]
            if [r["feature"] for r in rows] != names:
                errors.append(f"bounds rows {[r['feature'] for r in rows]}, expected {names}")
            for r in rows:
                ref = want["bounds"].get(r["feature"])
                if ref is None:
                    continue
                if not (_near(r["mi"], ref["mi"]) and _near(r["exact"], ref["exact"])):
                    errors.append(f"{r['feature']}: mi {r['mi']} exact {r['exact']}, "
                                  f"reference {ref['mi']} {ref['exact']}")
                if not (0.0 <= r["exact"] <= r["upper"] + oracle.TOL):
                    errors.append(f"{r['feature']}: exact {r['exact']} outside [0, upper "
                                  f"{r['upper']}]")
        else:
            relevance, pairs = report["class_relevance"], report["pairwise_mi"]
            if set(relevance) != set(names) or set(pairs) != set(want["pairwise_mi"]):
                errors.append("info report has the wrong feature or pair keys")
            for f in names:
                if not _near(relevance.get(f, -1.0), want["bounds"][f]["mi"]):
                    errors.append(f"relevance of {f} is {relevance.get(f)}, "
                                  f"reference {want['bounds'][f]['mi']}")
            for key, value in want["pairwise_mi"].items():
                if not _near(pairs.get(key, -1.0), value):
                    errors.append(f"MI of {key} is {pairs.get(key)}, reference {value}")
        return errors

    def final_checks(self):
        ds = self.ms.load_csv(self.csv, self.expected["target"],
                              self.ms.QuantizerSpec("equal-frequency", self.expected["bins"]))
        return _equal_frequency_errors(ds.features, ds.feature_names)


class Combined:
    """Several parts' rounds run as one round, in one process.

    Job labels are prefixed with the part's name.
    """

    def __init__(self, ms, in_dir):
        parts = {"analyze": Analyze, "ingest": Ingest, "select-joint": SelectJoint}
        self.parts = {name: parts[name](ms, os.path.join(in_dir, name))
                      for name in inputs.PARTS}

    def round(self):
        return [(f"{name}:{label}", job)
                for name, part in self.parts.items() for label, job in part.round()]

    def check(self, label, result):
        name, label = label.split(":", 1)
        return self.parts[name].check(label, result)

    def final_checks(self):
        return [error for part in self.parts.values() for error in part.final_checks()]


WORKLOADS = {
    "select-pairwise": SelectPairwise,
    "joint-analyze-ingest": Combined,
}
