"""Sparse joint probability mass functions over discrete variables."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from numbers import Integral
from typing import Iterable, Mapping

import numpy as np

MASS_TOL = 1e-12


def _as_vars(vars) -> tuple[str, ...]:
    """Normalize a variable-set argument to a tuple of names."""
    if isinstance(vars, str):
        return (vars,)
    return tuple(vars)


@dataclass(frozen=True)
class JointDistribution:
    """Probability mass over tuples of discrete variables, stored sparsely.

    Only states with nonzero probability are kept; composite state spaces
    are exponentially large but data-sparse.
    """

    variables: tuple[str, ...]
    cardinalities: tuple[int, ...]
    mass: Mapping[tuple[int, ...], float]
    origin: str = "exact"  # "exact" or "empirical"
    sample_count: int | None = field(default=None)

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
        for card in self.cardinalities:
            if card < 1:
                raise ValueError("cardinalities must be >= 1")
        if self.origin not in ("exact", "empirical"):
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin == "empirical" and (self.sample_count is None or self.sample_count < 1):
            raise ValueError("empirical distributions need a positive sample_count")
        arity = len(self.variables)
        total = 0.0
        for state, p in self.mass.items():
            if len(state) != arity:
                raise ValueError(f"state {state} has wrong arity (expected {arity})")
            for code, card in zip(state, self.cardinalities):
                if not isinstance(code, Integral):
                    raise ValueError(f"state {state} has a non-integer code")
                if not (0 <= code < card):
                    raise ValueError(f"state {state} out of range for cardinalities")
            if p < 0:
                raise ValueError("negative probability mass")
            total += p
        if not abs(total - 1.0) <= MASS_TOL:   # so a NaN mass fails too
            raise ValueError(f"mass sums to {total!r}, not 1")

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r}") from None

    @cached_property
    def _table(self):
        """The states of positive mass as the counting kernel's weighted
        table (`info._Table`), built on first use and kept."""
        from .info import _Table   # info imports this module
        live = [(s, p) for s, p in self.mass.items() if p > 0.0]
        states = np.array([s for s, _ in live], dtype=np.int64)
        return _Table(partial(self._column, states), None, len(live),
                      np.array([p for _, p in live]), None)

    def _column(self, states, var: str) -> tuple[np.ndarray, int]:
        """The codes of `var` in `states`, rows of all the variables, and its cardinality."""
        i = self.index(var)
        return states[:, i], self.cardinalities[i]

    def marginal_mass(self, vars) -> dict[tuple[int, ...], float]:
        """Marginal pmf over `vars` (in the given order) as a dict."""
        vs = _as_vars(vars)
        idx = [self.index(v) for v in vs]
        out: dict[tuple[int, ...], float] = {}
        for state, p in self.mass.items():
            if p == 0.0:
                continue
            key = tuple(state[i] for i in idx)
            out[key] = out.get(key, 0.0) + p
        return out

    def marginal(self, vars) -> "JointDistribution":
        """Marginalize onto a variable subset; mass re-sums to 1."""
        vs = _as_vars(vars)
        cards = tuple(self.cardinalities[self.index(v)] for v in vs)
        return JointDistribution(
            variables=vs,
            cardinalities=cards,
            mass=self.marginal_mass(vs),
            origin=self.origin,
            sample_count=self.sample_count,
        )
