"""Batch command-line interface.

Subcommands: select, analyze, bounds, gen, info.  Reports are JSON with
sorted keys and floats at 12 significant digits, so identical inputs give
byte-identical output.  Exit codes: 0 success, 2 usage, 3 I/O, 4 data or
precondition errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import bounds as _bounds
from . import data as _d
from . import datagen as _gen
from . import info as _info
from . import search as _search
from . import structure as _structure
from .criteria import KINDS, CriterionSpec

EXIT_OK = 0
EXIT_IO = 3
EXIT_DATA = 4


def _format_floats(obj):
    """Round all floats to 12 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_floats(v) for v in obj]
    return obj


def _out(path: str | None):
    """The file at `path` opened to write, or stdout when there is no path."""
    return (open(path, "w", newline="", encoding="utf-8") if path
            else contextlib.nullcontext(sys.stdout))


def _emit(report: dict, out: str | None):
    text = json.dumps(_format_floats(report), sort_keys=True, indent=2)
    with _out(out) as fh:
        fh.write(text + "\n")


def _tool_meta() -> dict:
    return {
        "tie_break": "lowest-column-index",
        "tie_tolerance": _search.TIE_TOL,
        "zero_tolerance": _info.ZERO_TOL,
        "log_base": 2,
    }


def _load(args) -> _d.Dataset:
    spec = _d.QuantizerSpec(strategy=args.quantizer, bins=args.bins)
    return _d.load_csv(args.input, args.target, spec)


# The select options that one strategy or criterion alone reads: the
# option that must take this value, the value, and the default there.
SCOPED_OPTIONS = {"threshold": ("strategy", "forward", None),
                  "l": ("strategy", "plus-l-take-away-r", 2),
                  "r": ("strategy", "plus-l-take-away-r", 1),
                  "beta": ("criterion", "mifs", 1.0)}


def _cmd_select(args) -> int:
    ds = _load(args)
    if args.strategy != "forward" and args.k is None:
        raise ValueError(f"--strategy {args.strategy} requires --k")
    for option, (key, value, default) in SCOPED_OPTIONS.items():
        if getattr(args, key) != value:
            if getattr(args, option) is not None:
                raise ValueError(f"--{option} applies only to --{key} {value}")
        elif getattr(args, option) is None:
            setattr(args, option, default)
    spec = CriterionSpec(args.criterion, beta=args.beta)
    if args.strategy == "forward":
        trace = _search.forward_select(spec, ds, k=args.k, threshold=args.threshold)
    elif args.strategy == "backward":
        trace = _search.backward_eliminate(spec, ds, k=args.k)
    else:
        trace = _search.plus_l_take_away_r(spec, ds, l=args.l, r=args.r, k=args.k)
    report = trace.to_dict()
    report["meta"].update(_tool_meta())
    _emit(report, args.out)
    if args.features_out:
        with _out(args.features_out) as fh:
            csv.writer(fh).writerows([("rank", "feature"), *enumerate(trace.selected, start=1)])
    return EXIT_OK


def _cmd_analyze(args) -> int:
    ds = _load(args)
    report = _structure.analyze(ds, eps=args.epsilon, lagrange=args.lagrange).to_dict()
    report["meta"] = _tool_meta()
    _emit(report, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    ds = _load(args)
    rows = _bounds.feature_bounds_table(ds)
    if args.format == "csv":
        with _out(args.out) as fh:
            writer = csv.writer(fh)
            columns = ["feature", "mi", "lower", "upper", "exact"]
            writer.writerow(columns)
            writer.writerows([r["feature"]] + [f"{r[k]:.12g}" for k in columns[1:]] for r in rows)
    else:
        _emit({"bounds": rows, "meta": _tool_meta()}, args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = _gen.SyntheticSpec(
        n=args.n, relevant=args.relevant, xor_groups=args.xor_groups,
        redundant_copies=args.redundant_copies, noise=args.noise,
        flip_prob=args.flip_prob, seed=args.seed, exhaustive=args.exhaustive)
    ds, roles = _gen.generate(spec)
    with _out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [ds.target_name])
        writer.writerows(np.column_stack([ds.features, ds.class_codes]).tolist())
    truth_path = args.truth_out or args.out + ".truth.json"
    _emit({"roles": roles, "meta": dict(ds.meta), "n": ds.n, "m": ds.m}, truth_path)
    return EXIT_OK


def _cmd_info(args) -> int:
    ds = _load(args)
    names = list(ds.feature_names)
    # by rows over the candidates a, each the same value as I(a;b) on its own
    relevance = dict(zip(names, _d.mutual_information_row(ds, names, [ds.target_name])))
    by_b = {b: _d.mutual_information_row(ds, names[:j], [b])
            for j, b in enumerate(names) if j}
    matrix = {f"{a}|{b}": by_b[b][i]
              for i, a in enumerate(names) for b in names[i + 1:]}
    report = {"class_relevance": relevance, "pairwise_mi": matrix,
              "meta": _tool_meta()}
    _emit(report, args.out)
    return EXIT_OK


def _add_io_args(p):
    p.add_argument("input", help="input CSV file (header row required)")
    p.add_argument("--target", required=True, help="name of the class column")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--quantizer", default="equal-frequency", choices=_d.STRATEGIES)
    p.add_argument("--bins", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miselect",
        description="Information-theoretic feature selection for discrete data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="greedy feature selection")
    _add_io_args(p)
    p.add_argument("--criterion", default="jmi", choices=KINDS)
    p.add_argument("--beta", type=float, help="MIFS redundancy weight (default 1)")
    p.add_argument("--strategy", default="forward",
                   choices=("forward", "backward", "plus-l-take-away-r"))
    p.add_argument("--k", type=int, default=None, help="number of features to keep")
    p.add_argument("--threshold", type=float, default=None,
                   help="stop when the best forward score drops below this (bits)")
    p.add_argument("--l", type=int, help="features added per round (default 2)")
    p.add_argument("--r", type=int, help="features removed per round (default 1)")
    p.add_argument("--features-out", default=None,
                   help="also write the chosen features as CSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("analyze", help="relevance levels, Markov blankets, sufficiency")
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=_structure.EXACT_EPS)
    p.add_argument("--lagrange", type=float, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="per-feature Bayes-error bounds")
    _add_io_args(p)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen", help="generate a synthetic dataset + ground truth")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth-out", default=None,
                   help="ground-truth JSON sidecar (default <out>.truth.json)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--relevant", type=int, default=1)
    p.add_argument("--xor-groups", type=int, default=0)
    p.add_argument("--redundant-copies", type=int, default=0)
    p.add_argument("--noise", type=int, default=0)
    p.add_argument("--flip-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", help="pairwise MI matrix and per-feature relevance")
    _add_io_args(p)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"miselect: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"miselect: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
