"""Exact structural analyses on small feature sets.

Relevance-level classification, Markov-blanket checks and discovery, and
sufficient-subset analysis via the mutual-information deficit.  All of
these enumerate conditioning subsets exhaustively, so they are limited to
small numbers of features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from . import data as _d
from .info import clip_zero

MAX_EXHAUSTIVE_FEATURES = 20
EXACT_EPS = 1e-9       # default tolerance for exact / truth-table data
EMPIRICAL_EPS = 1e-3   # default tolerance for sampled data (bits)

STRONGLY_RELEVANT = "strongly-relevant"
WEAKLY_RELEVANT = "weakly-relevant"
IRRELEVANT = "irrelevant"


@dataclass(frozen=True)
class RelevanceLevel:
    level: str
    witness: tuple[str, ...] | None = None  # conditioning set showing weak relevance


@dataclass(frozen=True)
class SufficientSubset:
    features: tuple[str, ...]
    dmi: float
    mi_with_class: float
    lagrangian: float
    selected_info: float  # I(F;S), the Tishby-style size surrogate


@dataclass(frozen=True)
class StructureReport:
    relevance: dict[str, RelevanceLevel]
    markov_blankets: dict[str, tuple[tuple[str, ...], ...]]
    sufficient_subsets: tuple[SufficientSubset, ...]
    dmi_per_feature: dict[str, float]
    epsilon: float
    lagrange_multiplier: float

    def to_dict(self) -> dict:
        return {
            "relevance": {
                f: {"level": rl.level,
                    "witness": list(rl.witness) if rl.witness is not None else None}
                for f, rl in sorted(self.relevance.items())
            },
            "markov_blankets": {
                f: [list(m) for m in blankets]
                for f, blankets in sorted(self.markov_blankets.items())
            },
            "sufficient_subsets": [
                {"features": list(s.features), "dmi": s.dmi,
                 "mi_with_class": s.mi_with_class, "lagrangian": s.lagrangian,
                 "selected_info": s.selected_info}
                for s in self.sufficient_subsets
            ],
            "dmi_per_feature": dict(sorted(self.dmi_per_feature.items())),
            "epsilon": self.epsilon,
            "lagrange_multiplier": self.lagrange_multiplier,
        }


def _check_size(ds: _d.Dataset):
    if ds.m > MAX_EXHAUSTIVE_FEATURES:
        raise ValueError(
            f"exhaustive structural analysis is limited to "
            f"{MAX_EXHAUSTIVE_FEATURES} features (got {ds.m}); "
            "use the greedy criteria for larger problems")


def _subsets_by_size(items, include_empty=True):
    start = 0 if include_empty else 1
    for size in range(start, len(items) + 1):
        yield from combinations(items, size)


def classify_relevance(ds: _d.Dataset, f: str, eps: float = EXACT_EPS) -> RelevanceLevel:
    """Classify `f` as strongly relevant, weakly relevant or irrelevant.

    Strong: I(f;C | all other features) > eps.  Weak: some conditioning
    subset S has I(f;C|S) > eps (the smallest such S is the witness).
    Irrelevant otherwise.  Exhaustive over all 2^(m-1) subsets.
    """
    _check_size(ds)
    ds.codes(f)  # validates the name
    rest = [v for v in ds.feature_names if v != f]
    target = [ds.target_name]
    if _d.conditional_mutual_information(ds, [f], target, rest) > eps:
        return RelevanceLevel(STRONGLY_RELEVANT)
    for S in _subsets_by_size(rest):
        if _d.conditional_mutual_information(ds, [f], target, list(S)) > eps:
            return RelevanceLevel(WEAKLY_RELEVANT, witness=tuple(S))
    return RelevanceLevel(IRRELEVANT)


def is_markov_blanket(ds: _d.Dataset, f: str, M, eps: float = EXACT_EPS) -> bool:
    """True iff I(f; {C} u (F \\ {f} \\ M) | M) <= eps."""
    M = tuple(M)
    if f in M:
        raise ValueError(f"candidate blanket contains {f!r}")
    for v in M:
        ds.codes(v)
    rest = [v for v in ds.feature_names if v != f and v not in M]
    block = [ds.target_name] + rest
    return _d.conditional_mutual_information(ds, [f], block, list(M)) <= eps


def find_minimal_markov_blankets(ds: _d.Dataset, f: str,
                                 eps: float = EXACT_EPS) -> list[tuple[str, ...]]:
    """All inclusion-minimal Markov blankets of `f`, by increasing size.

    Strongly relevant features have none.
    """
    _check_size(ds)
    rest = [v for v in ds.feature_names if v != f]
    found: list[tuple[str, ...]] = []
    for M in _subsets_by_size(rest):
        if any(set(prev) <= set(M) for prev in found):
            continue
        if is_markov_blanket(ds, f, M, eps):
            found.append(tuple(M))
    return found


def _full_mi(ds: _d.Dataset) -> float:
    """I(F;C) over all features."""
    return _d.mutual_information(ds, list(ds.feature_names), [ds.target_name])


def _default_lagrange(ds: _d.Dataset, full: float, eps: float) -> float:
    return ds.m / full if full > eps else 1.0


def _dmi(ds: _d.Dataset, S, full: float) -> float:
    part = _d.mutual_information(ds, S, [ds.target_name]) if S else 0.0
    return max(clip_zero(full - part), 0.0)


def dmi(ds: _d.Dataset, S) -> float:
    """Mutual-information deficit of S: I(F;C) - I(S;C); 0 iff S suffices."""
    return _dmi(ds, list(S), _full_mi(ds))


def minimal_sufficient_subsets(ds: _d.Dataset, eps: float = EXACT_EPS,
                               lagrange: float | None = None) -> list[SufficientSubset]:
    """All minimum-cardinality subsets whose deficit is within eps.

    The default Lagrange multiplier m / I(F;C) normalizes the reported
    objective |S| - lambda * I(S;C) so that any sufficient subset beats any
    insufficient one.
    """
    _check_size(ds)
    full = _full_mi(ds)
    if lagrange is None:
        lagrange = _default_lagrange(ds, full, eps)
    return _minimal_sufficient_subsets(ds, eps, lagrange, full)


def _minimal_sufficient_subsets(ds: _d.Dataset, eps: float, lagrange: float,
                                full: float) -> list[SufficientSubset]:
    names = list(ds.feature_names)
    target = [ds.target_name]
    results: list[SufficientSubset] = []
    for size in range(ds.m + 1):
        for S in combinations(names, size):
            part = _d.mutual_information(ds, list(S), target) if S else 0.0
            deficit = max(clip_zero(full - part), 0.0)
            if deficit <= eps:
                selected_info = _d.entropy(ds, list(S)) if S else 0.0
                results.append(SufficientSubset(
                    features=tuple(S),
                    dmi=deficit,
                    mi_with_class=part,
                    lagrangian=size - lagrange * part,
                    selected_info=selected_info,
                ))
        if results:
            break
    return results


def analyze(ds: _d.Dataset, eps: float = EXACT_EPS,
            lagrange: float | None = None) -> StructureReport:
    """Full structural report: relevance levels, blankets, sufficient subsets."""
    for name, value in (("epsilon", eps), ("lagrange", lagrange)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _check_size(ds)
    relevance = {f: classify_relevance(ds, f, eps) for f in ds.feature_names}
    blankets = {f: tuple(find_minimal_markov_blankets(ds, f, eps))
                for f in ds.feature_names}
    full = _full_mi(ds)
    if lagrange is None:
        lagrange = _default_lagrange(ds, full, eps)
    return StructureReport(
        relevance=relevance,
        markov_blankets=blankets,
        sufficient_subsets=tuple(_minimal_sufficient_subsets(ds, eps, lagrange, full)),
        dmi_per_feature={f: _dmi(ds, [f], full) for f in ds.feature_names},
        epsilon=eps,
        lagrange_multiplier=lagrange,
    )
