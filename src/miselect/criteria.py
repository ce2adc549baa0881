"""The eleven candidate-scoring criteria for greedy feature selection.

Each criterion scores a candidate feature against the class given the
ordered set of already-selected features.  All scores come from plug-in
empirical distributions; pairwise statistics are memoized per dataset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import data as _d

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
            if self.beta is None or self.beta < 0:
                raise ValueError("MIFS requires beta >= 0")
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for MIFS")


@dataclass
class ScoreBoard:
    """Per-candidate scores, with a term breakdown for linear criteria."""

    scores: dict[str, float] = field(default_factory=dict)
    breakdown: dict[str, dict[str, float]] = field(default_factory=dict)

    def best(self) -> float:
        return max(self.scores.values())


def _pair_key(f: str, s: str) -> tuple[str, str]:
    return (f, s) if f < s else (s, f)


class PairCache:
    """Memoized pairwise statistics against one dataset and target.

    Each statistic is a row over the candidates being scored
    (`candidates`, which `score_all` sets): the relevance I(f;C), and per
    selected feature s, I(f;s), I(f;s|C), I(f;C|s), and the CMIFS chain
    term I(f;s|s_1).  A lookup that misses fills the entries of its row
    still missing, for every candidate, in one counting pass.  A value is
    computed with the candidate as X, as the candidate's own lookup would;
    symmetric pairs are stored under the sorted key and never recomputed
    with the roles swapped.

    It also holds the composites of one selected set S at a time, for the
    joint criteria: S itself, and the features outside S with each
    candidate left out in turn.
    """

    def __init__(self, ds: _d.Dataset):
        self.ds = ds
        self.target = ds.target_name
        self.candidates: tuple[str, ...] = ()
        self._mi_c: dict[str, float] = {}          # I(f;C)
        self._mi: dict[tuple, float] = {}          # I(f;s)
        self._mi_given_c: dict[tuple, float] = {}  # I(f;s|C)
        self._cmi_c: dict[tuple, float] = {}       # I(f;C|s)
        self._chain: dict[tuple, float] = {}       # I(f;s|s_1)
        self._S: tuple[str, ...] = ()
        self._selected: _d.View | None = None      # the View of S
        self._rest: dict[str, _d.View | None] | None = None

    def _at(self, S: tuple[str, ...]) -> None:
        if S != self._S:
            self._S, self._selected, self._rest = S, None, None

    def _fill(self, store: dict, key, f: str, y, z=()) -> None:
        """Store I(c;y|z) under key(c) for f and each candidate c missing."""
        fixed = set(y) | set(z)
        row = [f] + [c for c in self.candidates
                     if c != f and c not in fixed and key(c) not in store]
        for c, value in zip(row, _d.mutual_information_row(self.ds, row, y, z)):
            store[key(c)] = value

    def relevance(self, f: str) -> float:
        if f not in self._mi_c:
            self._fill(self._mi_c, lambda c: c, f, [self.target])
        return self._mi_c[f]

    def pair_mi(self, f: str, s: str) -> float:
        if _pair_key(f, s) not in self._mi:
            self._fill(self._mi, lambda c: _pair_key(c, s), f, [s])
        return self._mi[_pair_key(f, s)]

    def pair_mi_given_class(self, f: str, s: str) -> float:
        if _pair_key(f, s) not in self._mi_given_c:
            self._fill(self._mi_given_c, lambda c: _pair_key(c, s), f, [s], [self.target])
        return self._mi_given_c[_pair_key(f, s)]

    def class_mi_given(self, f: str, s: str) -> float:
        if (f, s) not in self._cmi_c:
            self._fill(self._cmi_c, lambda c: (c, s), f, [self.target], [s])
        return self._cmi_c[(f, s)]

    def chain_mi(self, f: str, s: str, s1: str) -> float:
        """I(f;s|s_1), the CMIFS chain term."""
        if (f, s, s1) not in self._chain:
            self._fill(self._chain, lambda c: (c, s, s1), f, [s], [s1])
        return self._chain[(f, s, s1)]

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
        if self._rest is None:
            outside = [v for v in self.ds.feature_names if v not in S]
            views = _d.leave_one_out_views(self.ds, outside) if len(outside) > 1 else [None]
            self._rest = dict(zip(outside, views))
        return self._rest[f]

    def interaction(self, f: str, s: str) -> float:
        # I(f;s;C) = I(f;s|C) - I(f;s)
        return self.pair_mi_given_class(f, s) - self.pair_mi(f, s)


# Composite-view supports larger than n / SPARSE_SUPPORT_FRACTION samples
# make the plug-in joint MI unreliable (MMD estimates MI in high dimension).
SPARSE_SUPPORT_FRACTION = 5


def _score_with_terms(spec: CriterionSpec, f: str, S: tuple[str, ...],
                      cache: PairCache) -> tuple[float, dict[str, float]]:
    ds = cache.ds
    target = cache.target
    kind = spec.kind

    if kind == "md":
        return _d.mutual_information(ds, cache.joint(S, f), [target]), {}
    if kind == "mmd":
        joint = _d.mutual_information(ds, cache.joint(S, f), [target])
        view = cache.rest(S, f)
        if view is None:
            return joint, {}
        if view.support > ds.n / SPARSE_SUPPORT_FRACTION:
            rest = [v for v in ds.feature_names if v not in S and v != f]
            warnings.warn(
                f"MMD complement set {rest} has sparse support "
                f"({view.support} distinct tuples over {ds.n} samples); "
                "its plug-in MI estimate may be unreliable")
        return joint - _d.mutual_information(ds, [view], [target]), {}

    rel = cache.relevance(f)
    if not S:
        return rel, {"relevance": rel}
    p = len(S)

    if kind == "mim":
        return rel, {"relevance": rel}
    if kind in ("mifs", "mrmr"):
        beta = spec.beta if kind == "mifs" else 1.0 / p
        red = -beta * sum(cache.pair_mi(f, s) for s in S)
        return rel + red, {"relevance": rel, "redundancy": red}
    if kind in ("jmi", "cife"):
        coeff = 1.0 / p if kind == "jmi" else 1.0
        red = -coeff * sum(cache.pair_mi(f, s) for s in S)
        comp = coeff * sum(cache.pair_mi_given_class(f, s) for s in S)
        return rel + red + comp, {"relevance": rel, "redundancy": red,
                                  "complementarity": comp}
    if kind == "cmifs":
        # below two selected features the full form degrades to its
        # natural truncations
        if p == 1:
            red = -cache.pair_mi(f, S[0])
            comp = cache.pair_mi_given_class(f, S[0])
            return rel + red + comp, {"relevance": rel, "redundancy": red,
                                      "complementarity": comp}
        s1, st = S[0], S[-1]
        red = -cache.pair_mi(f, st)
        comp = cache.pair_mi_given_class(f, s1) + cache.pair_mi_given_class(f, st)
        chain = -cache.chain_mi(f, st, s1)
        score = rel + red + comp + chain
        return score, {"relevance": rel, "redundancy": red,
                       "complementarity": comp, "chain_correction": chain}
    if kind == "cmim":
        return min(cache.class_mi_given(f, s) for s in S), {}
    if kind == "cmim2":
        return sum(cache.class_mi_given(f, s) for s in S) / p, {}
    if kind == "icap":
        pen = sum(min(0.0, cache.interaction(f, s)) for s in S)
        return rel + pen, {"relevance": rel, "interaction_penalty": pen}
    raise AssertionError(f"unhandled criterion {kind}")


def score(spec: CriterionSpec, f: str, S, ds: _d.Dataset,
          cache: PairCache | None = None) -> float:
    """Score candidate `f` against the class given ordered selected set `S`."""
    S = tuple(S)
    if f in S:
        raise ValueError(f"candidate {f!r} is already selected")
    if cache is None:
        cache = PairCache(ds)
    cache.candidates = (f,)
    value, _ = _score_with_terms(spec, f, S, cache)
    return value


def score_all(spec: CriterionSpec, candidates, S, ds: _d.Dataset,
              cache: PairCache | None = None) -> ScoreBoard:
    """Score every candidate; evaluation order never affects the values."""
    S = tuple(S)
    cand = list(candidates)
    if set(cand) & set(S):
        raise ValueError("candidates and selected set overlap")
    if cache is None:
        cache = PairCache(ds)
    cache.candidates = tuple(cand)
    board = ScoreBoard()
    for f in cand:
        value, terms = _score_with_terms(spec, f, S, cache)
        board.scores[f] = value
        board.breakdown[f] = terms
    return board
