"""Greedy subset-generation strategies: SFS, SBE and plus-l-take-away-r,
all one loop of rounds of add and remove moves."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import data as _d
from .criteria import CriterionSpec, PairCache, score_all

TIE_TOL = 1e-9
DEFAULT_THRESHOLD = 1e-6  # bits


@dataclass(frozen=True)
class Step:
    direction: str                 # "add" | "remove"
    chosen: str
    scores: dict[str, float]
    ties: tuple[str, ...]


@dataclass(frozen=True)
class SelectionTrace:
    """Ordered record of one search run."""

    steps: tuple[Step, ...]
    selected: tuple[str, ...]
    stop_reason: str               # "reached-k" | "threshold" | "exhausted"
    criterion: str
    meta: dict = field(default_factory=dict)
    start: tuple[str, ...] = ()    # the set the search started from

    def replay(self) -> tuple[str, ...]:
        """Re-derive the final selected set from `start` and the recorded steps."""
        s = list(self.start)
        for step in self.steps:
            if step.direction == "add":
                s.append(step.chosen)
            else:
                s.remove(step.chosen)
        return tuple(s)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "steps": [
                {
                    "direction": st.direction,
                    "chosen": st.chosen,
                    "scores": dict(sorted(st.scores.items())),
                    "ties": list(st.ties),
                }
                for st in self.steps
            ],
            "selected": list(self.selected),
            "stop_reason": self.stop_reason,
            "meta": dict(self.meta),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def _pick_extremum(ds: _d.Dataset, scores: dict[str, float],
                   maximize: bool) -> tuple[str, tuple[str, ...]]:
    """Extremal candidate with deterministic lowest-column-index tie-break."""
    best = max(scores.values()) if maximize else min(scores.values())
    ties = [f for f, v in scores.items() if abs(v - best) <= TIE_TOL]
    ties.sort(key=ds.column_index)
    return ties[0], tuple(ties)


def _removal_scores(ds: _d.Dataset, S: list[str]) -> dict[str, float]:
    # criterion-agnostic backward objective: I(f;C | S\f), with S\f as the
    # leave-one-out views of S; a lone feature keeps an empty Z, as a
    # constant view would change the last digits
    target = [ds.target_name]
    if len(S) == 1:
        return {S[0]: _d.conditional_mutual_information(ds, S, target, [])}
    return {f: _d.conditional_mutual_information(ds, [f], target, [view])
            for f, view in zip(S, _d.leave_one_out_views(ds, S))}


def _search(spec: CriterionSpec, ds: _d.Dataset, start: tuple[str, ...],
            moves: tuple[str, ...], k: int | None, threshold: float | None,
            meta: dict) -> SelectionTrace:
    """Make the "add" and "remove" `moves` of one round in order, round after
    round, until |S| = k (never, for k None).

    An add with no candidate left, or a remove from an empty S, is skipped
    and the round goes on.  An add whose best score is below `threshold`
    ends the search; so does a round that leaves S unchanged.
    """
    cache = PairCache(ds)
    S = list(start)
    steps: list[Step] = []
    stop = None
    while stop is None and len(S) != k:
        before = frozenset(S)
        for direction in moves:
            if direction == "add":
                candidates = [f for f in ds.feature_names if f not in S]
                if not candidates:
                    continue
                board = score_all(spec, candidates, tuple(S), ds, cache=cache)
                if threshold is not None and board.best() < threshold:
                    stop = "threshold"
                    break
                scores = dict(board.scores)
            elif S:
                scores = _removal_scores(ds, S)
            else:
                continue
            chosen, ties = _pick_extremum(ds, scores, maximize=direction == "add")
            steps.append(Step(direction, chosen, scores, ties))
            if direction == "add":
                S.append(chosen)
            else:
                S.remove(chosen)
        if stop is None and frozenset(S) == before:
            stop = "exhausted"
    return SelectionTrace(tuple(steps), tuple(S), stop or "reached-k", spec.kind,
                          meta={**meta, "tie_tolerance": TIE_TOL}, start=start)


def _check_k(ds: _d.Dataset, k: int) -> None:
    if not (1 <= k <= ds.m):
        raise ValueError(f"k must be in [1, {ds.m}], got {k}")


def forward_select(spec: CriterionSpec, ds: _d.Dataset, k: int | None = None,
                   threshold: float | None = None) -> SelectionTrace:
    """Sequential forward selection: start empty, add the argmax candidate.

    Stops at `k` features, or when the best candidate score drops below
    `threshold` (default 1e-6 bits when no k is given).
    """
    if k is None and threshold is None:
        threshold = DEFAULT_THRESHOLD
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if k is not None:
        _check_k(ds, k)
    return _search(spec, ds, (), ("add",), k, threshold,
                   {"strategy": "forward", "k": k, "threshold": threshold})


def backward_eliminate(spec: CriterionSpec, ds: _d.Dataset, k: int) -> SelectionTrace:
    """Sequential backward elimination down to `k` features.

    Only the maximal-dependency criterion is supported; each step removes
    the feature minimizing I(f;C | S\\f).
    """
    if spec.kind != "md":
        raise ValueError("backward elimination supports only the MD criterion")
    _check_k(ds, k)
    return _search(spec, ds, ds.feature_names, ("remove",), k, None,
                   {"strategy": "backward", "k": k})


def plus_l_take_away_r(spec: CriterionSpec, ds: _d.Dataset, l: int, r: int,
                       k: int) -> SelectionTrace:
    """Alternate l forward steps and r backward steps until |S| = k.

    With l > r the search grows from the empty set; with r > l it shrinks
    from the full set.  A round that leaves the selected set unchanged
    stops the search early (livelock guard).
    """
    if l == r:
        raise ValueError("l == r makes no net progress")
    if l < 0 or r < 0:
        raise ValueError("l and r must be non-negative")
    _check_k(ds, k)
    growing = l > r
    net = abs(l - r)
    if growing and k % net != 0:
        raise ValueError(f"k={k} unreachable with net step {net} from the empty set")
    if not growing and (ds.m - k) % net != 0:
        raise ValueError(f"k={k} unreachable with net step {net} from the full set")
    adds, removes = ("add",) * l, ("remove",) * r
    return _search(spec, ds, () if growing else ds.feature_names,
                   adds + removes if growing else removes + adds, k, None,
                   {"strategy": "plus-l-take-away-r", "l": l, "r": r, "k": k})
