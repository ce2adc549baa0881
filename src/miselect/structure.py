"""Exact structural analyses on small feature sets.

Relevance levels, Markov blankets and sufficient subsets, each decided by a
mutual-information deficit read from rows of I(T; target) (`_mi_row`).  S
suffices when I(F;C) - I(S;C) <= eps.  With V = F u {C} and R = F \\ f \\ M,
the chain rule gives the blanket test I(f; C u R | M) = I(f; V \\ f) -
I(f; M), the witness test I(f;C|M) = I(f; M u C) - I(f; M), and also
I(f; C u R | M) = I(f; R | M) + I(f; C | F \\ f): so F \\ f is a blanket of
f exactly when f is not strongly relevant, and a strongly relevant feature
has no blanket.  A blanket M gives I(f; C | S) <= I(f; C u R | M) <= eps for
every S from M up to F \\ f, so no such S is a witness or a further minimal
blanket: one walk over the subsets of F \\ f, skipping them, finds both.
The walks are exhaustive, so all of these are limited to small feature sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import data as _d
from .info import _check_disjoint, clip_zero

MAX_EXHAUSTIVE_FEATURES = 20
EXACT_EPS = 1e-9   # default tolerance (bits) for every "is this (C)MI zero?" test

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


def _check(ds: _d.Dataset | None, eps: float, lagrange: float | None = None):
    """Reject a non-finite or negative eps, a non-finite lagrange, and a
    dataset (when given) too wide to enumerate its subsets."""
    for name, value in (("epsilon", eps), ("lagrange", lagrange)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if eps < 0:
        raise ValueError(f"epsilon must be non-negative, got {eps}")
    if ds is not None and ds.m > MAX_EXHAUSTIVE_FEATURES:
        raise ValueError(
            f"exhaustive structural analysis is limited to "
            f"{MAX_EXHAUSTIVE_FEATURES} features (got {ds.m}); "
            "use the greedy criteria for larger problems")


def classify_relevance(ds: _d.Dataset, f: str, eps: float = EXACT_EPS) -> RelevanceLevel:
    """Classify `f` as strongly relevant, weakly relevant or irrelevant.

    Strong: the other features are no Markov blanket of `f`.  Weak: some
    subset S of them has I(f;C|S) > eps; the first by increasing size is
    the witness.  Irrelevant otherwise.  Read from the walk that also finds
    the blankets of `f`, so a weakly relevant `f` pays for its blankets.
    """
    _check(ds, eps)
    return _walk(ds, f, eps)[0]


def is_markov_blanket(ds: _d.Dataset, f: str, M, eps: float = EXACT_EPS) -> bool:
    """True iff I(f; {C} u (F \\ {f} \\ M) | M) <= eps, read as the deficit
    I(f; V \\ f) - I(f; M) from one row."""
    _check(None, eps)
    M = tuple(M)
    _check_disjoint([f], [ds.target_name], M)
    rest = tuple(v for v in ds.feature_names if v != f)
    return _deficit(*_mi_row(ds, [rest + (ds.target_name,), M], f)) <= eps


def find_minimal_markov_blankets(ds: _d.Dataset, f: str,
                                 eps: float = EXACT_EPS) -> list[tuple[str, ...]]:
    """All inclusion-minimal Markov blankets of `f`, by increasing size;
    none for a strongly relevant `f` (see `_walk`)."""
    _check(ds, eps)
    return _walk(ds, f, eps)[1]


def _walk(ds: _d.Dataset, f: str, eps: float) -> tuple[RelevanceLevel, list[tuple[str, ...]]]:
    """The level of `f` and its minimal blankets by increasing size.  F \\ f
    is coded once; a row of I(M; f) per subset size then tests the subsets
    M that are no superset of a blanket found, and while no witness is
    known, a second row of I(M + C; f) tests those that are no blanket."""
    C = ds.target_name
    rest = [v for v in ds.feature_names if v != f]
    view = (_d.View(*_d.composite_view(ds, rest)),) if rest else ()
    full, other = _mi_row(ds, [view + (C,), view], f)
    if _deficit(full, other) > eps:
        return RelevanceLevel(STRONGLY_RELEVANT), []
    witness, found = None, []
    for size in range(len(rest)):
        subsets = [M for M in combinations(rest, size)
                   if not any(map(set(M).issuperset, found))]
        open_ = []
        for M, part in zip(subsets, _mi_row(ds, subsets, f)):
            if _deficit(full, part) <= eps:
                found.append(M)
            else:
                open_.append((M, part))
        if witness is None:
            joint = _mi_row(ds, [M + (C,) for M, _ in open_], f)
            witness = next((M for (M, part), both in zip(open_, joint)
                            if _deficit(both, part) > eps), None)
    level = IRRELEVANT if witness is None else WEAKLY_RELEVANT
    return RelevanceLevel(level, witness), found or [tuple(rest)]


def _mi_row(ds: _d.Dataset, subsets, target: str) -> list[float]:
    """I(T; target) for each subset or name T of a list, in one row; 0 for empty T."""
    values = iter(_d.mutual_information_row(ds, [T for T in subsets if T], [target])
                  if any(subsets) else ())
    return [next(values) if T else 0.0 for T in subsets]


def _deficit(full: float, part: float) -> float:
    """The deficit full - part, as I(F;C) - I(S;C), clipped at 0."""
    return max(clip_zero(full - part), 0.0)


def dmi(ds: _d.Dataset, S) -> float:
    """Mutual-information deficit of S: I(F;C) - I(S;C); 0 iff S suffices."""
    return _deficit(*_mi_row(ds, [ds.feature_names, tuple(S)], ds.target_name))


def _sufficiency(ds: _d.Dataset, eps: float, lagrange: float | None):
    """I(F;C), the Lagrange multiplier (default m / I(F;C)) and every
    minimum-cardinality subset whose deficit is within eps, by size: one row
    of I(S;C) over the subsets of each size."""
    _check(ds, eps, lagrange)
    full, = _mi_row(ds, [ds.feature_names], ds.target_name)
    if lagrange is None:
        lagrange = ds.m / full if full > eps else 1.0
    results: list[SufficientSubset] = []
    for size in range(ds.m + 1):
        subsets = list(combinations(ds.feature_names, size))
        for S, part in zip(subsets, _mi_row(ds, subsets, ds.target_name)):
            deficit = _deficit(full, part)
            if deficit <= eps:
                results.append(SufficientSubset(
                    S, dmi=deficit, mi_with_class=part, lagrangian=len(S) - lagrange * part,
                    selected_info=_d.entropy(ds, list(S)) if S else 0.0))
        if results:
            break
    return full, lagrange, results


def minimal_sufficient_subsets(ds: _d.Dataset, eps: float = EXACT_EPS,
                               lagrange: float | None = None) -> list[SufficientSubset]:
    """All minimum-cardinality subsets whose deficit is within eps.

    The default Lagrange multiplier m / I(F;C) normalizes the reported
    objective |S| - lambda * I(S;C) so that any sufficient subset beats any
    insufficient one.
    """
    return _sufficiency(ds, eps, lagrange)[2]


def analyze(ds: _d.Dataset, eps: float = EXACT_EPS,
            lagrange: float | None = None) -> StructureReport:
    """Full structural report: relevance levels, blankets, sufficient subsets.
    One walk per feature (see `_walk`) gives its level and its blankets."""
    full, lagrange, sufficient = _sufficiency(ds, eps, lagrange)
    F = ds.feature_names
    walks = {f: _walk(ds, f, eps) for f in F}
    parts = _mi_row(ds, F, ds.target_name)
    return StructureReport(
        relevance={f: level for f, (level, _) in walks.items()},
        markov_blankets={f: tuple(blankets) for f, (_, blankets) in walks.items()},
        sufficient_subsets=tuple(sufficient),
        dmi_per_feature={f: _deficit(full, part) for f, part in zip(F, parts)},
        epsilon=eps,
        lagrange_multiplier=lagrange,
    )
