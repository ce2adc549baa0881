import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect import Dataset, JointDistribution, mutual_information

from conftest import random_distribution


def test_mass_must_sum_to_one():
    with pytest.raises(ValueError, match="sums to"):
        JointDistribution(("x",), (2,), {(0,): 0.4, (1,): 0.4})


def test_empty_mass_rejected():
    with pytest.raises(ValueError, match="sums to 0.0"):
        JointDistribution(("x",), (2,), {})


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


def test_non_integer_code_named_by_its_column():
    with pytest.raises(ValueError, match="non-integer codes in column 'b'"):
        JointDistribution(("a", "b"), (2, 2), {(1, 0.5): 1.0})


@pytest.mark.parametrize("state,name", [((2**70, 0), "a"), ((0, 2**70), "b"),
                                        ((0, -2**70), "b")])
def test_int_code_past_int64_is_out_of_range(state, name):
    with pytest.raises(ValueError, match=f"codes out of range in column '{name}'"):
        JointDistribution(("a", "b"), (2, 2), {state: 1.0})


def test_numpy_integer_states_accepted():
    d = JointDistribution(("x",), (2,), {(np.int64(0),): 0.5, (np.int8(1),): 0.5})
    assert d.marginal_mass("x") == {(0,): 0.5, (1,): 0.5}


@pytest.mark.parametrize("card", [2.5, 2.0])
@pytest.mark.parametrize("build,name", [
    (lambda card: Dataset(np.array([[0, 1], [1, 0]]), np.array([0, 1]), (card, 2), 2,
                          ("a", "b"), "y"), "a"),
    (lambda card: Dataset(np.array([[0, 1], [1, 0]]), np.array([0, 1]), (2, 2), card,
                          ("a", "b"), "y"), "y"),
    (lambda card: JointDistribution(("a", "b"), (card, 2), {(0, 0): 0.5, (1, 1): 0.5}), "a"),
])
def test_non_integer_cardinality_rejected(build, name, card):
    """A float cardinality, even an integral one, is rejected with its
    column named, by a Dataset and by a distribution; a numpy one passes."""
    with pytest.raises(ValueError, match=re.escape(f"non-integer cardinality {card!r} "
                                                   f"of column {name!r}")):
        build(card)
    build(np.int64(2))


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        JointDistribution(("x", "x"), (2, 2), {(0, 0): 1.0})


@pytest.mark.parametrize("variables, cards, mass, origin, message", [
    (("x", "y"), (2,), {(0, 0): 1.0}, "exact", "variables and cardinalities must have equal length"),
    ((), (), {(): 1.0}, "exact", "a distribution needs at least one variable"),
    (("x",), (0,), {(0,): 1.0}, "exact", "cardinalities must be >= 1"),
    (("x",), (2,), {(0,): 1.0}, "estimated", "unknown origin 'estimated'"),
])
def test_malformed_distribution_rejected(variables, cards, mass, origin, message):
    with pytest.raises(ValueError, match=message):
        JointDistribution(variables, cards, mass, origin=origin)


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


CODE_KINDS = ("int64", "int8", "uint8", "bool", "float", "half", "string", "negative", "too-large")


@st.composite
def code_arrays(draw):
    """n rows of k columns of codes and the k cardinalities: valid int64
    codes recast or with one cell broken as `kind` says."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    cards = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    codes = np.array([[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)])
    kind = draw(st.sampled_from(CODE_KINDS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
    if kind == "negative":
        codes[i, j] = -draw(st.integers(1, 3))
    elif kind == "too-large":
        codes[i, j] = cards[j] + draw(st.integers(0, 2))
    elif kind == "half":
        codes = codes + np.where(np.arange(n * k).reshape(n, k) == i * k + j, 0.5, 0.0)
    elif kind == "string":
        codes = codes.astype(str)
    elif kind != "int64":
        codes = codes.astype(kind)
    return codes, cards


def _error(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(code_arrays(), st.booleans())
def test_dataset_and_distribution_check_codes_alike(case, python_scalars):
    """The same codes, as a Dataset's columns or as a distribution's states
    (numpy or Python scalars), pass or fail alike, with the same message."""
    codes, cards = case
    names = tuple(f"v{j}" for j in range(len(cards)))
    states = dict.fromkeys(map(tuple, codes.tolist() if python_scalars else codes))
    mass = dict.fromkeys(states, 1 / len(states))
    from_dataset = _error(lambda: Dataset(codes[:, :-1], codes[:, -1], tuple(cards[:-1]),
                                          cards[-1], names[:-1], names[-1]))
    from_states = _error(lambda: JointDistribution(names, tuple(cards), mass))
    assert from_dataset == from_states
    valid = codes.dtype.kind in "biu" and bool(((codes >= 0) & (codes < cards)).all())
    assert (from_dataset is None) == valid


def reference_marginal_mass(dist, vars):
    """`marginal_mass` as the dict loop over `mass` it was written as."""
    idx = [dist.index(v) for v in vars]
    out = {}
    for state, p in dist.mass.items():
        if p == 0.0:
            continue
        key = tuple(state[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1), st.data())
def test_marginal_mass_equals_dict_loop(cards, seed, data):
    """Same keys in the same order and the same sums, zero-mass states and
    all, compared with ==."""
    rng = np.random.default_rng(seed)
    states = list(itertools.product(*map(range, cards)))
    order = rng.permutation(len(states))
    w = rng.dirichlet(np.ones(len(states))) * (rng.random(len(states)) >= 0.4)
    w[order[0]] += w.sum() == 0.0
    w /= w.sum()
    names = tuple(f"v{j}" for j in range(len(cards)))
    dist = JointDistribution(names, tuple(cards),
                             {states[i]: float(w[i]) for i in order})
    vs = data.draw(st.permutations(names))[:data.draw(st.integers(0, len(names)))]
    assert list(dist.marginal_mass(vs).items()) == list(reference_marginal_mass(dist, vs).items())
