"""Sparse joint probability mass functions over discrete variables, and the
one check of discrete codes that they and `data.Dataset` both make."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

MASS_TOL = 1e-12


def _as_vars(vars) -> tuple[str, ...]:
    """Normalize a variable-set argument to a tuple of names."""
    if isinstance(vars, str):
        return (vars,)
    return tuple(vars)


def _as_lists(obj):
    """`obj` with every tuple in it, within dicts and lists too, made a list:
    the JSON shape of a report's `dataclasses.asdict`."""
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


def _check_codes(columns, cards, names) -> None:
    """Raise unless each of `columns`, 1-D arrays of n >= 1 codes of the named
    columns, holds integer or bool codes in [0, card) for an integer card.  A
    column of Python ints past int64 (an object array) is out of range.  Reads
    each column's minimum and maximum, copies nothing."""
    kinds = [col.dtype.kind for col in columns]
    for kind, col, card, name in zip(kinds, columns, cards, names):
        if not isinstance(card, (int, np.integer)):
            raise ValueError(f"non-integer cardinality {card!r} of column {name!r}")
        ints = kind in "biu" or kind == "O" and all(isinstance(v, (int, np.integer)) for v in col)
        if not ints:
            raise ValueError(f"non-integer codes in column {name!r}")
    for kind, col, card, name in zip(kinds, columns, cards, names):
        if kind == "O" or col.min() < 0 or col.max() >= card:
            raise ValueError(f"codes out of range in column {name!r}")


@dataclass(frozen=True)
class JointDistribution:
    """Probability mass over tuples of discrete variables, stored sparsely.

    Only states with nonzero probability are kept; composite state spaces
    are exponentially large but data-sparse.  Those states and their masses
    are the kernel's weighted table, built and checked once, at construction.
    """

    variables: tuple[str, ...]
    cardinalities: tuple[int, ...]
    mass: Mapping[tuple[int, ...], float]
    origin: str = "exact"  # "exact" or "empirical"
    sample_count: int | None = field(default=None)
    _states: np.ndarray = field(init=False, compare=False, repr=False)  # a row per variable
    _table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "cardinalities", tuple(self.cardinalities))
        object.__setattr__(self, "mass", dict(self.mass))
        if len(self.variables) != len(self.cardinalities):
            raise ValueError("variables and cardinalities must have equal length")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("a distribution needs at least one variable")
        if min(self.cardinalities) < 1:
            raise ValueError("cardinalities must be >= 1")
        if self.origin not in ("exact", "empirical"):
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin == "empirical" and (self.sample_count is None or self.sample_count < 1):
            raise ValueError("empirical distributions need a positive sample_count")
        arity = len(self.variables)
        for state in self.mass:
            if len(state) != arity:
                raise ValueError(f"state {state} has wrong arity (expected {arity})")
        p = np.fromiter(self.mass.values(), dtype=float, count=len(self.mass))
        if (p < 0).any():
            raise ValueError("negative probability mass")
        total = float(p.sum())
        if not abs(total - 1.0) <= MASS_TOL:   # so a NaN mass fails too
            raise ValueError(f"mass sums to {total!r}, not 1")
        # a column at a time, so that a bad code is named by its own column
        columns = [np.array(col) for col in zip(*self.mass)]
        _check_codes(columns, self.cardinalities, self.variables)
        live = p > 0.0
        object.__setattr__(self, "_states", np.stack(columns, dtype=np.int64)[:, live])
        from .info import _Table   # info imports this module
        weights = p[live]
        object.__setattr__(self, "_table", _Table(self._column, len(weights), weights, None))

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r}") from None

    def _column(self, var: str) -> tuple[np.ndarray, int]:
        """The codes of `var` in the states of positive mass, and its cardinality."""
        i = self.index(var)
        return self._states[i], self.cardinalities[i]

    def marginal_mass(self, vars) -> dict[tuple[int, ...], float]:
        """Marginal pmf over `vars` (in the given order) as a dict, keyed in
        the order the states first occur, each mass summed in state order."""
        idx = [self.index(v) for v in _as_vars(vars)]
        out: dict[tuple[int, ...], float] = {}
        for key, p in zip(map(tuple, self._states[idx].T.tolist()), self._table.weights.tolist()):
            out[key] = out.get(key, 0.0) + p
        return out

    def marginal(self, vars) -> "JointDistribution":
        """Marginalize onto a variable subset; mass re-sums to 1."""
        vs = _as_vars(vars)
        cards = tuple(self.cardinalities[self.index(v)] for v in vs)
        return JointDistribution(vs, cards, self.marginal_mass(vs),
                                 origin=self.origin, sample_count=self.sample_count)
