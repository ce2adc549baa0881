import builtins
import itertools
import math

import numpy as np
import pytest

from miselect import (
    Dataset,
    JointDistribution,
    bayes_error_bounds,
    empirical_distribution,
    example1,
    feature_bounds_table,
    mutual_information,
)

from conftest import compensated_sum, random_distribution, random_dataset


def test_uninformative_feature_binary_class():
    mass = {(i, j): 0.25 for i in (0, 1) for j in (0, 1)}
    d = JointDistribution(("f", "C"), (2, 2), mass)
    b = bayes_error_bounds(d, "f", "C")
    assert b.lower == 0.0
    assert b.upper == pytest.approx(0.5, abs=1e-12)
    assert b.exact == pytest.approx(0.5, abs=1e-12)


def test_deterministic_feature():
    d = JointDistribution(("f", "C"), (2, 2), {(0, 0): 0.3, (1, 1): 0.7})
    b = bayes_error_bounds(d, "f", "C")
    assert b.upper == pytest.approx(0.0, abs=1e-12)
    assert b.exact == pytest.approx(0.0, abs=1e-12)


def test_example1_x1():
    dist, _ = example1()
    b = bayes_error_bounds(dist, "x1", "C")
    assert b.upper == pytest.approx(0.25, abs=1e-9)
    assert b.exact == pytest.approx(0.25, abs=1e-9)
    assert b.lower <= b.exact <= b.upper + 1e-9


def test_class_determined_by_the_feature_has_zero_bounds():
    """H(C|f) = 0, so upper = H(C|f)/2 is clipped to 0.0 like every other
    zero identity, not left at the rounding error of H(C) - I(f;C)."""
    ds = Dataset([[0], [5], [9]], [0, 1, 0], (10,), 2, ("a",), "y")
    row, = feature_bounds_table(ds)
    assert (row["lower"], row["upper"], row["exact"]) == (0.0, 0.0, 0.0)


def test_empty_feature_set_rejected():
    dist, _ = example1()
    with pytest.raises(ValueError, match="feature set must be nonempty"):
        bayes_error_bounds(dist, [], "C")


def test_degenerate_class_rejected():
    d = JointDistribution(("f", "C"), (2, 1), {(0, 0): 0.5, (1, 0): 0.5})
    with pytest.raises(ValueError, match="two states"):
        bayes_error_bounds(d, "f", "C")


def uniform_prior_distribution(rng, feature_card, class_card):
    # random channel p(f|c) with a uniform class prior; the Fano-type lower
    # bound is only guaranteed under uniform priors
    mass = {}
    for c in range(class_card):
        channel = rng.dirichlet(np.ones(feature_card))
        for f in range(feature_card):
            p = channel[f] / class_card
            if p > 0:
                mass[(f, c)] = p
    return JointDistribution(("f", "C"), (feature_card, class_card), mass)


def test_sandwich_on_random_distributions():
    rng = np.random.default_rng(19)
    for _ in range(200):
        fc = int(rng.integers(2, 5))
        cc = int(rng.integers(2, 4))
        b = bayes_error_bounds(uniform_prior_distribution(rng, fc, cc), "f", "C")
        assert 0.0 <= b.lower <= b.upper + 1e-9 <= 1.0 + 1e-9
        assert b.lower - 1e-9 <= b.exact <= b.upper + 1e-9


def test_upper_bound_and_exact_valid_for_skewed_priors():
    rng = np.random.default_rng(23)
    for i in range(100):
        fc = int(rng.integers(2, 5))
        cc = int(rng.integers(2, 4))
        d = random_distribution(rng, [fc, cc], names=["f", "C"],
                                sparsity=0.2 if i % 3 else 0.0)
        b = bayes_error_bounds(d, "f", "C")
        assert b.exact <= b.upper + 1e-9
        assert 0.0 <= b.exact <= 1.0


def test_bounds_monotone_in_mi():
    # mixing a deterministic channel with noise: more MI, tighter bounds
    prev = None
    for lam in np.linspace(0.0, 1.0, 11):
        mass = {}
        for f in (0, 1):
            for c in (0, 1):
                det = 0.5 if f == c else 0.0
                mass[(f, c)] = lam * det + (1 - lam) * 0.25
        d = JointDistribution(("f", "C"), (2, 2), mass)
        b = bayes_error_bounds(d, "f", "C")
        if prev is not None:
            assert b.mi >= prev.mi - 1e-12
            assert b.lower <= prev.lower + 1e-9
            assert b.upper <= prev.upper + 1e-9
        prev = b


def test_composite_feature_flagged():
    dist, _ = example1()
    b = bayes_error_bounds(dist, ["x2", "x3"], "C")
    assert b.meta["composite_feature"]
    assert b.mi == pytest.approx(mutual_information(dist, ["x2", "x3"], "C"),
                                 abs=1e-12)


@pytest.mark.parametrize("f", [["f2"], ["f0", "f3"]])
def test_bounds_of_a_dataset_are_those_of_its_distribution(f):
    ds = random_dataset(np.random.default_rng(17), n=500, m=4, card=4, class_card=3)
    want = bayes_error_bounds(empirical_distribution(ds, f + ["y"]), f, "y")
    assert bayes_error_bounds(ds, f, "y") == want


def test_feature_bounds_table():
    _, ds = example1()
    rows = feature_bounds_table(ds)
    assert [r["feature"] for r in rows] == list(ds.feature_names)
    x1 = rows[0]
    assert x1["upper"] == pytest.approx(0.25, abs=1e-9)
    assert x1["exact"] == pytest.approx(0.25, abs=1e-9)


def _exact_error_cases():
    """Distributions whose exact MAP error was recorded as float.hex before
    `marginal_mass` read the stored states: three with zero-mass states
    among the others, in product order, and two empirical ones."""
    rng = np.random.default_rng(11)
    for cards, with_zeros, swapped in (
            ([2, 3, 2], "0x1.49d7eaac713e8p-4", "0x1.15faa260d5090p-3"),
            ([3, 2, 4, 2], "0x1.41b94a4dfe9fcp-3", "0x1.7d18c14528648p-3"),
            ([4, 4, 3], "0x1.d517fbc4a46e8p-3", "0x1.696b28f798ed4p-2")):
        d = random_distribution(rng, cards, sparsity=0.3)
        mass = {s: d.mass.get(s, 0.0) for s in itertools.product(*map(range, cards))}
        z = JointDistribution(d.variables, d.cardinalities, mass)
        yield z, z.variables[:-1], z.variables[-1], with_zeros
        yield d, d.variables[1:], d.variables[0], swapped
    ds = random_dataset(np.random.default_rng(3), n=500, m=4, card=5, class_card=3)
    dist = empirical_distribution(ds, ["f2", "f0", "f1", "y"])
    yield dist, ("f2", "f0"), "y", "0x1.25e353f7ced90p-1"
    yield dist, ("f1",), "y", "0x1.3e76c8b439580p-1"


def test_exact_error_unchanged_bit_for_bit():
    cases = list(_exact_error_cases())
    assert any(0.0 in d.mass.values() for d, *_ in cases)
    for dist, f, c, expected in cases:
        assert bayes_error_bounds(dist, f, c).exact.hex() == expected


def test_exact_error_independent_of_the_builtin_sum(monkeypatch):
    """The pinned exact errors hold where the builtin sum compensates float
    sums (Python 3.12 and later), which gives other last bits here."""
    cases = list(_exact_error_cases())
    compensated = []
    for dist, f, c, expected in cases:
        best = {}
        for state, p in dist.marginal_mass(tuple(f) + (c,)).items():
            best[state[:-1]] = max(best.get(state[:-1], 0.0), p)
        compensated.append((1.0 - math.fsum(best.values())).hex() != expected)
    assert any(compensated)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for dist, f, c, expected in cases:
        assert bayes_error_bounds(dist, f, c).exact.hex() == expected
