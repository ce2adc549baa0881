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
    on first access from `terms`: each term as a vector over the candidates.
    `warnings` are the messages scoring warned, in order (`_warn`)."""

    scores: dict[str, float] = field(default_factory=dict)
    terms: dict[str, np.ndarray] = field(default_factory=dict, compare=False)
    warnings: tuple[str, ...] = field(default=(), init=False, compare=False)

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
    missing there in one pass with the candidate as X, over the Dataset's
    bit planes where that is cheaper.  A miss of I(f;s|C) also fills I(f;s)
    where missing, with C summed out of the same counts.  A symmetric pair
    in the other feature's row is copied from there, never counted with
    roles swapped.
    """

    def __init__(self, ds: _d.Dataset):
        self.ds = ds
        self.target = ds.target_name
        self.candidates = ()
        self._rows: dict[str, dict[tuple, np.ndarray]] = {}   # statistic -> {columns: row}

    @property
    def candidates(self) -> tuple[str, ...]:
        return self._candidates

    @candidates.setter
    def candidates(self, names) -> None:
        self._candidates = tuple(names)
        self._cols = np.array([self.ds.column_index(c) for c in self._candidates], dtype=int)

    def _row(self, stat: str, *features: str) -> np.ndarray:
        rows = self._rows.setdefault(stat, {})
        key = tuple(map(self.ds.column_index, features))
        if key not in rows:
            rows[key] = np.full(self.ds.m, np.nan)
        return rows[key]

    def _pair_row(self, stat: str, s: str) -> np.ndarray:
        """The row of s of a symmetric statistic, with its pairs in the
        statistic's other rows copied in where missing: those rows are keyed
        by the column of their feature, so one gather fills the row."""
        row, j, rows = self._row(stat, s), self.ds.column_index(s), self._rows[stat]
        at = np.array([i for i, in rows])
        hole = np.isnan(row[at])
        row[at[hole]] = [other[j] for other, empty in zip(rows.values(), hole) if empty]
        return row

    def _fill(self, row: np.ndarray, y, z=(), plain: str | None = None) -> np.ndarray:
        """`row` over the candidates, each missing entry c counted as I(c;y|z);
        given `plain`, I(c;plain) is then filled where missing from the same counts."""
        cols = self._cols[np.isnan(row[self._cols])]
        if len(cols):
            names = [self.ds.feature_names[j] for j in cols]
            tables = list(_info._row_tables(self.ds._table, names, [y, z]))
            row[cols] = _info._row_values(tables)
            if plain is not None:
                mi = self._pair_row("I(f;s)", plain)
                fresh = np.isnan(mi[cols])
                mi[cols[fresh]] = _info._row_values(rows.marginal() for rows in tables)[fresh]
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


def _joint_scores(spec: CriterionSpec, cand: list[str], S: tuple[str, ...],
                  ds: _d.Dataset) -> tuple[list[float], list[str]]:
    """The MD or MMD score of each candidate f: I(S + f; C), less I(rest; C)
    under MMD, where rest is the features outside S + f; each term is one row
    over the candidates.  S is coded once; a lone candidate's rest is coded on
    its own, and for several the rests are leave-one-out views.  Also the
    warning of each rest whose support is sparse."""
    if not cand:
        return [], []
    target = [ds.target_name]
    head = (_d.View(*_d.composite_view(ds, S)),) if S else ()
    joint = _d.mutual_information_row(ds, [head + (f,) for f in cand], target)
    outside = [v for v in ds.feature_names if v not in S]
    if spec.kind == "md" or outside == cand[:1]:   # MD, or a lone f with no rest
        return joint, []
    if len(cand) > 1:
        views = dict(zip(outside, _d.leave_one_out_views(ds, outside)))
    else:
        views = {cand[0]: _d.View(*_d.composite_view(ds, [v for v in outside if v != cand[0]]))}
    notes = [f"MMD complement set {[v for v in outside if v != f]} has sparse support "
             f"({views[f].support} distinct tuples over {ds.n} samples); "
             "its plug-in MI estimate may be unreliable"
             for f in cand if views[f].support > ds.n / SPARSE_SUPPORT_FRACTION]
    rests = _d.mutual_information_row(ds, [(views[f],) for f in cand], target)
    return [value - rest for value, rest in zip(joint, rests)], notes


def _warn(board: ScoreBoard) -> ScoreBoard:
    """Warn each of the board's `warnings`, in order, from this one place, so
    that a board given again warns as it did the first time; the board."""
    for message in board.warnings:
        warnings.warn(message)
    return board


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
    if len(set(S)) < len(S):
        raise ValueError(f"selected set repeats {[s for s in S if S.count(s) > 1][0]!r}")
    for s in S:   # the target or a name no column has raises "unknown column"
        ds.column_index(s)
    cand = list(dict.fromkeys(candidates))
    if set(cand) & set(S):
        raise ValueError("candidates and selected set overlap")
    if spec.kind in ("md", "mmd"):
        scores, notes = _joint_scores(spec, cand, S, ds)
        board = ScoreBoard(dict(zip(cand, scores)))
        board.warnings = tuple(notes)
        return _warn(board)
    if cache is None:
        cache = PairCache(ds)
    cache.candidates = cand
    scores, terms = _pairwise(spec, S, cache)
    return ScoreBoard(dict(zip(cand, scores.tolist())), terms)
