"""Exact structural analyses on small feature sets.

Relevance levels, Markov blankets and sufficient subsets, each decided by a
mutual-information deficit read from rows of I(T; target) (`_mi_row`).  S
suffices when I(F;C) - I(S;C) = I(F \\ S; C | S) <= eps, that is when S is a
Markov blanket of C within F (Koller & Sahami 1996): the minimal sufficient
subsets are the least-size blankets of C.  With V = F u {C} and R = F \\ f \\ M,
the chain rule gives the blanket test I(f; C u R | M) = I(f; V \\ f) -
I(f; M), the witness test I(f;C|M) = I(f; M u C) - I(f; M), and also
I(f; C u R | M) = I(f; R | M) + I(f; C | F \\ f): so F \\ f is a blanket of
f exactly when f is not strongly relevant, and a strongly relevant feature
has no blanket.  A blanket M gives I(f; C | S) <= I(f; C u R | M) <= eps for
every S from M up to F \\ f, so no such S is a witness or a further minimal
blanket: one walk over the subsets of F \\ f, skipping them, finds both.
That walk (`_blankets`) also finds the blankets of C, over the subsets of F.
The walks are exhaustive, so all of these are limited to small feature sets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

from . import data as _d
from .distribution import _as_lists
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
        return _as_lists(asdict(self))


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
    is coded once; its row decides strong relevance.  `_blankets` then walks
    the subsets M of F \\ f, and while no witness is known, a second row of
    I(M + C; f) tests those of each size that are no blanket."""
    C = ds.target_name
    rest = [v for v in ds.feature_names if v != f]
    view = (_d.View(*_d.composite_view(ds, rest)),) if rest else ()
    full, other = _mi_row(ds, [view + (C,), view], f)
    if _deficit(full, other) > eps:
        return RelevanceLevel(STRONGLY_RELEVANT), []
    witness, found = None, []
    for blankets, open_ in _blankets(ds, rest, f, full, eps):
        found += [M for M, _ in blankets]
        if witness is None:
            joint = _mi_row(ds, [M + (C,) for M, _ in open_], f)
            witness = next((M for (M, part), both in zip(open_, joint)
                            if _deficit(both, part) > eps), None)
    level = IRRELEVANT if witness is None else WEAKLY_RELEVANT
    return RelevanceLevel(level, witness), found


def _blankets(ds: _d.Dataset, names, target: str, full: float, eps: float):
    """The one walk over the subsets M of `names`, for each size from 0 up:
    those that are no superset of a blanket found, split by one row of
    I(M; target) into blankets, whose deficit full - I(M; target) is within
    eps, and open subsets.  Yields the two lists of (M, I(M; target)), and
    stops at the first size with no subset left to test."""
    found = []
    for size in range(len(names) + 1):
        subsets = [M for M in combinations(names, size)
                   if not any(map(set(M).issuperset, found))]
        if not subsets:   # each larger subset holds one of this size: all skipped
            return
        blankets, open_ = [], []
        for M, part in zip(subsets, _mi_row(ds, subsets, target)):
            (blankets if _deficit(full, part) <= eps else open_).append((M, part))
        found += [M for M, _ in blankets]
        yield blankets, open_


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
    """I(F;C), the Lagrange multiplier (default m / I(F;C)) and the least
    Markov blankets of C within F: the first size of `_blankets` over F that
    holds one, every subset of a size measured in one row of I(S;C)."""
    _check(ds, eps, lagrange)
    F, C = ds.feature_names, ds.target_name
    full, = _mi_row(ds, [F], C)
    if lagrange is None:
        lagrange = ds.m / full if full > eps else 1.0
    least = next(blankets for blankets, _ in _blankets(ds, F, C, full, eps) if blankets)
    return full, lagrange, [
        SufficientSubset(S, dmi=_deficit(full, part), mi_with_class=part,
                         lagrangian=len(S) - lagrange * part,
                         selected_info=_d.entropy(ds, list(S)) if S else 0.0)
        for S, part in least]


def minimal_sufficient_subsets(ds: _d.Dataset, eps: float = EXACT_EPS,
                               lagrange: float | None = None) -> list[SufficientSubset]:
    """All minimum-cardinality subsets whose deficit is within eps.

    As I(F;C) - I(S;C) = I(F \\ S; C | S), these are the least-size Markov
    blankets of C within F, F itself counted as one, found by the walk that
    finds each feature's blankets (`_blankets`).  The default Lagrange
    multiplier m / I(F;C) normalizes the reported objective
    |S| - lambda * I(S;C) so that any sufficient subset beats any
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
