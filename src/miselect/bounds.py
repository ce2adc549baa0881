"""Bayes-error sandwich from mutual information, with an exact oracle.

lower = 1 - (I(f;C) + 1) / log2|C|      (clipped to 0)
upper = (H(C) - I(f;C)) / 2 = H(C|f)/2  (clipped to 1)
exact = 1 - sum_x p(x) max_c p(c|x)     (MAP rule)

All logarithms are base 2, so the constant in the lower bound is 1 bit.
The lower bound is Fano-type: it uses log2|C| in place of the class
entropy, so it is only guaranteed not to exceed the true Bayes error when
the class prior is uniform.  For skewed priors the upper bound and the
exact MAP error remain valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import data as _d
from .distribution import JointDistribution, _as_vars
from .info import _sum_in_order, clip_zero, entropy, mutual_information


@dataclass(frozen=True)
class ErrorBounds:
    lower: float
    upper: float
    exact: float
    mi: float
    class_entropy: float
    meta: dict = field(default_factory=dict)


def bayes_error_bounds(dist: JointDistribution | _d.Dataset, f, class_var: str) -> ErrorBounds:
    """Sandwich the Bayes error of predicting `class_var` from `f`.

    `f` may be a set of variables; the bound statement is single-variable
    but extends pointwise to composite views (flagged in the metadata).
    A `Dataset` is read as its empirical distribution of `f` and the class.
    """
    fs = _as_vars(f)
    if not fs:
        raise ValueError("feature set must be nonempty")
    if isinstance(dist, _d.Dataset):
        dist = _d.empirical_distribution(dist, fs + (class_var,))
    class_card = dist.cardinalities[dist.index(class_var)]
    if class_card < 2:
        raise ValueError("class must have at least two states (log|C| = 0 otherwise)")
    mi = mutual_information(dist, fs, class_var)
    hc = entropy(dist, class_var)
    lower = max(0.0, clip_zero(1.0 - (mi + 1.0) / math.log2(class_card)))
    upper = min(1.0, max(0.0, clip_zero(0.5 * (hc - mi))))
    best: dict[tuple, float] = {}   # max_c p(x, c) for each x
    for state, p in dist.marginal_mass(fs + (class_var,)).items():
        x = state[:-1]
        if p > best.get(x, 0.0):
            best[x] = p
    exact = 1.0 - _sum_in_order(best.values())
    return ErrorBounds(lower=lower, upper=upper, exact=exact, mi=mi,
                       class_entropy=hc,
                       meta={"log_base": 2, "composite_feature": len(fs) > 1})


def feature_bounds_table(ds: _d.Dataset) -> list[dict]:
    """Per-feature bound rows (feature, mi, lower, upper, exact) for a dataset."""
    rows = []
    for f in ds.feature_names:
        b = bayes_error_bounds(ds, [f], ds.target_name)
        rows.append({"feature": f, "mi": b.mi, "lower": b.lower,
                     "upper": b.upper, "exact": b.exact})
    return rows
