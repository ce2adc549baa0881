import builtins
import itertools
import math

import numpy as np
import pytest

from miselect import Dataset, JointDistribution, example1

# Frozen values from an independent brute-force pass over the 8-row
# truth table (direct -sum p log2 p over marginal counts).
H_C = 0.8112781244591328
I_X1_C = 0.3112781244591329
MRMR_X4_GIVEN_X1 = I_X1_C - 1.0  # -0.688722 bits


@pytest.fixture(scope="session")
def ex1():
    dist, ds = example1()
    return dist, ds


def random_distribution(rng, cards, names=None, sparsity=0.0):
    """Random joint distribution via Dirichlet weights over the full support."""
    if names is None:
        names = [f"v{i}" for i in range(len(cards))]
    states = list(itertools.product(*[range(c) for c in cards]))
    w = rng.dirichlet(np.ones(len(states)))
    if sparsity > 0:
        keep = rng.random(len(states)) >= sparsity
        if not keep.any():
            keep[0] = True
        w = w * keep
        w = w / w.sum()
    mass = {s: float(p) for s, p in zip(states, w) if p > 0}
    return JointDistribution(tuple(names), tuple(cards), mass)


def random_dataset(rng, n, m, card=3, class_card=2):
    """Random dataset whose class depends weakly on the first feature."""
    feats = rng.integers(0, card, size=(n, m))
    cls = (feats[:, 0] + rng.integers(0, class_card, size=n)) % class_card
    return Dataset(
        features=feats,
        class_codes=cls,
        feature_cards=(card,) * m,
        class_card=class_card,
        feature_names=tuple(f"f{i}" for i in range(m)),
        target_name="y",
    )


def compensated_sum(items, start=0, _builtin=builtins.sum):
    """The builtin `sum` as Python 3.12 made it for floats: compensated (here
    correctly rounded, by `math.fsum`); as before for anything else."""
    items = list(items)
    if items and all(type(v) is float for v in items):
        return math.fsum([start, *items])
    return _builtin(items, start)
