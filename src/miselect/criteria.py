"""The eleven candidate-scoring criteria for greedy feature selection.

Each criterion scores a candidate feature against the class given the
ordered set of already-selected features.  All scores come from plug-in
empirical distributions; pairwise statistics are memoized per dataset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import data as _d
from . import info as _info

KINDS = ("mim", "mifs", "mrmr", "jmi", "cife", "cmifs",
         "cmim", "cmim2", "icap", "md", "mmd")


@dataclass(frozen=True)
class CriterionSpec:
    """One of the scoring criteria plus its parameters.

    `beta` is the redundancy weight and applies to MIFS only.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in KINDS:
            raise ValueError(f"unknown criterion {self.kind!r}; choose from {KINDS}")
        if self.kind == "mifs":
            if self.beta is None or not 0 <= self.beta < math.inf:
                raise ValueError(f"MIFS requires a finite beta >= 0, got {self.beta}")
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for MIFS")


@dataclass
class ScoreBoard:
    """Per-candidate scores, with a term breakdown for linear criteria, built
    on first access from `terms`: each term as a vector over the candidates."""

    scores: dict[str, float] = field(default_factory=dict)
    terms: dict[str, np.ndarray] = field(default_factory=dict, compare=False)

    def best(self) -> float:
        return max(self.scores.values())

    @cached_property
    def breakdown(self) -> dict[str, dict[str, float]]:
        columns = {name: vector.tolist() for name, vector in self.terms.items()}
        return {f: {name: column[i] for name, column in columns.items()}
                for i, f in enumerate(self.scores)}


class PairCache:
    """Memoized pairwise statistics against one dataset and target.

    Each statistic is a row over the dataset's features, NaN where not yet
    counted: I(f;C), and per selected s, I(f;s), I(f;s|C), I(f;C|s) and the
    CMIFS chain term I(f;s|s_1); O(|S| m) floats in all.  A lookup returns
    its row over `candidates` (which `score_all` sets), counting the entries
    missing there in one pass with the candidate as X, over bit planes where
    that is cheaper.  A miss of I(f;s|C) also fills I(f;s) where missing,
    with C summed out of the same counts.  A symmetric pair in the other
    feature's row is copied from there, never counted with roles swapped.

    It also holds the composites of one selected set S at a time for the
    joint criteria: S, and the features outside S less each candidate.
    """

    def __init__(self, ds: _d.Dataset):
        self.ds = ds
        self.target = ds.target_name
        self.candidates = ()
        self._rows: dict[tuple, np.ndarray] = {}      # (statistic, *features) -> row
        self._planes: dict[str, np.ndarray] = {}      # info._planes of a column
        self._S: tuple[str, ...] = ()
        self._selected: _d.View | None = None         # the View of S
        self._rest: dict[str, _d.View | None] | None = None

    @property
    def candidates(self) -> tuple[str, ...]:
        return self._candidates

    @candidates.setter
    def candidates(self, names) -> None:
        self._candidates = tuple(names)
        self._cols = np.array([self.ds.column_index(c) for c in self._candidates], dtype=int)

    def _at(self, S: tuple[str, ...]) -> None:
        if S != self._S:
            self._S, self._selected, self._rest = S, None, None

    def _plane(self, name: str) -> np.ndarray:
        if name not in self._planes:
            self._planes[name] = _info._planes(*self.ds.codes(name))
        return self._planes[name]

    def _row(self, *key) -> np.ndarray:
        if key not in self._rows:
            self._rows[key] = np.full(self.ds.m, np.nan)
        return self._rows[key]

    def _pair_row(self, stat: str, s: str) -> np.ndarray:
        """The row of s of a symmetric statistic, with its pairs in other rows copied in."""
        row = self._row(stat, s)
        j = self.ds.column_index(s)
        for (name, *c), other in self._rows.items():
            if name == stat and np.isnan(row[i := self.ds.column_index(c[0])]):
                row[i] = other[j]
        return row

    def _fill(self, row: np.ndarray, y, z=(), plain: str | None = None) -> np.ndarray:
        """`row` over the candidates, each missing entry c counted as I(c;y|z);
        given `plain`, I(c;plain) is then filled where missing from the same counts."""
        cols = self._cols[np.isnan(row[self._cols])]
        if len(cols):
            names = [self.ds.feature_names[j] for j in cols]
            tables = list(_d._row_tables(self.ds, names, y, z, self._plane))
            row[cols] = _d._row_values(tables)
            if plain is not None:
                mi = self._pair_row("I(f;s)", plain)
                fresh = np.isnan(mi[cols])
                mi[cols[fresh]] = _d._row_values(rows.marginal() for rows in tables)[fresh]
        return row[self._cols]

    def relevance(self) -> np.ndarray:
        return self._fill(self._row("I(f;C)"), [self.target])

    def pair_mi(self, s: str) -> np.ndarray:
        return self._fill(self._pair_row("I(f;s)", s), [s])

    def pair_mi_given_class(self, s: str) -> np.ndarray:
        return self._fill(self._pair_row("I(f;s|C)", s), [s], [self.target], plain=s)

    def class_mi_given(self, s: str) -> np.ndarray:
        return self._fill(self._row("I(f;C|s)", s), [self.target], [s])

    def chain_mi(self, s: str, s1: str) -> np.ndarray:
        """I(f;s|s_1), the CMIFS chain term."""
        return self._fill(self._row("I(f;s|s_1)", s, s1), [s], [s1])

    def joint(self, S: tuple[str, ...], f: str) -> list:
        """S + [f] as a variable group, S as one View coded once per S."""
        if not S:
            return [f]
        self._at(S)
        if self._selected is None:
            self._selected = _d.View(*_d.composite_view(self.ds, S))
        return [self._selected, f]

    def rest(self, S: tuple[str, ...], f: str) -> _d.View | None:
        """The View of the features outside S + [f], in feature order, or
        None when there are none.  Built for every f outside S at once."""
        self._at(S)
        if self._rest is None and self.candidates == (f,):
            # a lone candidate needs its own complement, not every view
            rest = [v for v in self.ds.feature_names if v not in S and v != f]
            return _d.View(*_d.composite_view(self.ds, rest)) if rest else None
        if self._rest is None:
            outside = [v for v in self.ds.feature_names if v not in S]
            views = _d.leave_one_out_views(self.ds, outside) if len(outside) > 1 else [None]
            self._rest = dict(zip(outside, views))
        return self._rest[f]


# The nine pairwise criteria as one form (Brown, Pocock, Zhao & Lujan, JMLR
# 13, 2012).  With p = |S| > 0, "sum" scores (I(f;C) + -beta * sum_s I(f;s))
# + gamma * sum_s I(f;s|C), each weight a number, "1/p" or the spec's "beta";
# ICAP ("clipped") I(f;C) + sum_s min(0, I(f;s|C) - I(f;s)); CMIM and CMIM2
# the min and the mean of I(f;C|s).  Sums run over S in order; CMIFS sums over
# S's ends and adds -I(f;s_t|s_1).  With S empty every criterion is I(f;C).
_FORMS = {  # kind: (beta, gamma, aggregate)
    "mim": (None, None, "sum"),
    "mifs": ("beta", None, "sum"),
    "mrmr": ("1/p", None, "sum"),
    "jmi": ("1/p", "1/p", "sum"),
    "cife": (1.0, 1.0, "sum"),
    "cmifs": (1.0, 1.0, "sum"),
    "icap": (None, None, "clipped"),
    "cmim": (None, None, "min"),
    "cmim2": (None, None, "mean"),
}


def _weight(w, p: int, spec: CriterionSpec) -> float:
    return spec.beta if w == "beta" else 1.0 / p if w == "1/p" else w


def _pairwise(spec: CriterionSpec, S: tuple[str, ...],
              cache: PairCache) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The scores of `cache.candidates` and their terms, as vectors."""
    rel = cache.relevance()
    if not S:
        return rel, {"relevance": rel}
    p = len(S)
    beta, gamma, aggregate = _FORMS[spec.kind]
    if aggregate in ("min", "mean"):
        rows = list(map(cache.class_mi_given, S))
        return (reduce(np.minimum, rows) if aggregate == "min" else sum(rows) / p), {}
    if aggregate == "clipped":
        gain = (cache.pair_mi_given_class(s) - cache.pair_mi(s) for s in S)
        pen = sum(np.where(x < 0.0, x, 0.0) for x in gain)
        return rel + pen, {"relevance": rel, "interaction_penalty": pen}
    ends = spec.kind == "cmifs" and p > 1
    terms = {"relevance": rel}
    if gamma:
        # first: the (f, s, C) count of I(f;s|C) also fills I(f;s)
        comp = _weight(gamma, p, spec) * sum(map(cache.pair_mi_given_class,
                                                 (S[0], S[-1]) if ends else S))
    if beta:
        terms["redundancy"] = -_weight(beta, p, spec) * sum(map(cache.pair_mi,
                                                                S[-1:] if ends else S))
    if gamma:
        terms["complementarity"] = comp
    if ends:
        terms["chain_correction"] = -cache.chain_mi(S[-1], S[0])
    return reduce(np.add, terms.values()), terms


# Composite-view supports larger than n / SPARSE_SUPPORT_FRACTION samples
# make the plug-in joint MI unreliable (MMD estimates MI in high dimension).
SPARSE_SUPPORT_FRACTION = 5


def _joint_score(spec: CriterionSpec, f: str, S: tuple[str, ...], cache: PairCache) -> float:
    """The MD or MMD score of candidate f."""
    ds = cache.ds
    joint = _d.mutual_information(ds, cache.joint(S, f), [cache.target])
    view = cache.rest(S, f) if spec.kind == "mmd" else None
    if view is None:
        return joint
    if view.support > ds.n / SPARSE_SUPPORT_FRACTION:
        rest = [v for v in ds.feature_names if v not in S and v != f]
        warnings.warn(
            f"MMD complement set {rest} has sparse support "
            f"({view.support} distinct tuples over {ds.n} samples); "
            "its plug-in MI estimate may be unreliable")
    return joint - _d.mutual_information(ds, [view], [cache.target])


def score(spec: CriterionSpec, f: str, S, ds: _d.Dataset,
          cache: PairCache | None = None) -> float:
    """Score candidate `f` against the class given ordered selected set `S`."""
    if f in tuple(S):
        raise ValueError(f"candidate {f!r} is already selected")
    return score_all(spec, [f], S, ds, cache).scores[f]


def score_all(spec: CriterionSpec, candidates, S, ds: _d.Dataset,
              cache: PairCache | None = None) -> ScoreBoard:
    """Score every candidate; evaluation order never affects the values."""
    S = tuple(S)
    cand = list(dict.fromkeys(candidates))
    if set(cand) & set(S):
        raise ValueError("candidates and selected set overlap")
    if cache is None:
        cache = PairCache(ds)
    cache.candidates = cand
    if spec.kind in ("md", "mmd"):
        return ScoreBoard({f: _joint_score(spec, f, S, cache) for f in cand})
    scores, terms = _pairwise(spec, S, cache)
    return ScoreBoard(dict(zip(cand, scores.tolist())), terms)
