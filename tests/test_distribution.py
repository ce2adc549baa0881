import pickle

import numpy as np
import pytest

from miselect import JointDistribution, mutual_information

from conftest import random_distribution


def test_mass_must_sum_to_one():
    with pytest.raises(ValueError, match="sums to"):
        JointDistribution(("x",), (2,), {(0,): 0.4, (1,): 0.4})


def test_negative_mass_rejected():
    with pytest.raises(ValueError, match="negative"):
        JointDistribution(("x",), (2,), {(0,): 1.2, (1,): -0.2})


def test_wrong_arity_rejected():
    with pytest.raises(ValueError, match="arity"):
        JointDistribution(("x", "y"), (2, 2), {(0,): 1.0})


def test_state_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        JointDistribution(("x",), (2,), {(2,): 1.0})


@pytest.mark.parametrize("mass", [{(0,): float("nan"), (1,): 1.0},
                                  {(0,): float("inf"), (1,): 0.0}])
def test_non_finite_mass_rejected(mass):
    with pytest.raises(ValueError, match="sums to"):
        JointDistribution(("x",), (2,), mass)


@pytest.mark.parametrize("state", [(0.5, 0), (1.0, 0), (np.float64(1), 0), ("1", 0)])
def test_non_integer_state_rejected(state):
    with pytest.raises(ValueError, match="non-integer"):
        JointDistribution(("x", "y"), (2, 2), {state: 0.5, (1, 1): 0.5})


def test_numpy_integer_states_accepted():
    d = JointDistribution(("x",), (2,), {(np.int64(0),): 0.5, (np.int8(1),): 0.5})
    assert d.marginal_mass("x") == {(0,): 0.5, (1,): 0.5}


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        JointDistribution(("x", "x"), (2, 2), {(0, 0): 1.0})


def test_empirical_needs_sample_count():
    with pytest.raises(ValueError, match="sample_count"):
        JointDistribution(("x",), (2,), {(0,): 1.0}, origin="empirical")


def test_unknown_variable():
    d = JointDistribution(("x",), (2,), {(0,): 0.5, (1,): 0.5})
    with pytest.raises(ValueError, match="unknown variable"):
        d.marginal(["z"])


def test_marginal_is_valid_distribution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = random_distribution(rng, [2, 3, 2])
        m = d.marginal(["v2", "v0"])
        assert m.variables == ("v2", "v0")
        assert sum(m.mass.values()) == pytest.approx(1.0, abs=1e-12)
        # re-marginalizing commutes
        assert m.marginal(["v0"]).mass == pytest.approx(d.marginal_mass(["v0"]))


def test_marginal_preserves_requested_order():
    d = JointDistribution(("a", "b"), (2, 2),
                          {(0, 1): 0.25, (1, 0): 0.75})
    m = d.marginal(["b", "a"])
    assert m.mass == {(1, 0): 0.25, (0, 1): 0.75}


def test_measured_distribution_keeps_its_table_and_pickles(ex1):
    """The weighted table is built on the first measure and kept; a
    measured distribution still pickles, and measures the same after."""
    dist, _ = ex1
    before = mutual_information(dist, ["x2", "x3"], "C")
    assert dist._table is dist._table
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and mutual_information(copy, ["x2", "x3"], "C") == before
