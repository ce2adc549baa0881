"""Property tests for the information measures and the shared counting kernel."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect import Dataset, composite_view, empirical_distribution
from miselect import data as mdata
from miselect import info

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def datasets(draw):
    """Small datasets whose composites often have more states than rows.

    Declared cardinalities may exceed the observed codes, some by more
    than n, and some so far (2**60) that an unranked product of two of
    them overflows int64.
    """
    n = draw(st.integers(1, 40))
    m = draw(st.integers(2, 5))
    cols, cards = [], []
    for _ in range(m + 1):
        observed = draw(st.integers(1, 6))
        cols.append(draw(st.lists(st.integers(0, observed - 1), min_size=n, max_size=n)))
        cards.append(observed + draw(st.sampled_from([0, 0, 1, 3, 100, 2**60])))
    feats = np.array(cols[:m], dtype=np.int64).T.reshape(n, m)
    return Dataset(feats, np.array(cols[m], dtype=np.int64), tuple(cards[:m]),
                   cards[m], tuple(f"f{j}" for j in range(m)), "y")


@st.composite
def split(draw, with_target=True):
    """A dataset and disjoint nonempty variable sets X, Y (and Z, maybe empty)."""
    ds = draw(datasets())
    names = list(ds.feature_names) + ([ds.target_name] if with_target else [])
    names = draw(st.permutations(names))
    a = draw(st.integers(1, len(names) - 1))
    b = draw(st.integers(a + 1, len(names)))
    c = draw(st.integers(b, len(names)))
    return ds, names[:a], names[a:b], names[b:c]


@SETTINGS
@given(split())
def test_mi_symmetric_and_nonnegative(case):
    ds, x, y, _ = case
    xy = mdata.mutual_information(ds, x, y)
    assert xy >= 0.0
    assert xy == pytest.approx(mdata.mutual_information(ds, y, x), abs=1e-12)


@SETTINGS
@given(split(with_target=False))
def test_chain_rule(case):
    ds, x, y, _ = case
    c = [ds.target_name]
    joint = mdata.mutual_information(ds, x + y, c)
    parts = (mdata.mutual_information(ds, x, c)
             + mdata.conditional_mutual_information(ds, y, c, x))
    assert joint == pytest.approx(parts, abs=1e-9)


@SETTINGS
@given(split())
def test_plug_in_equals_exact_on_empirical(case):
    ds, x, y, z = case
    dist = empirical_distribution(ds, x + y + z)
    assert mdata.entropy(ds, x + y) == pytest.approx(info.entropy(dist, x + y), abs=1e-12)
    assert mdata.mutual_information(ds, x, y) == pytest.approx(
        info.mutual_information(dist, x, y), abs=1e-12)
    assert mdata.conditional_mutual_information(ds, x, y, z) == pytest.approx(
        info.conditional_mutual_information(dist, x, y, z), abs=1e-12)


@SETTINGS
@given(split())
def test_composite_codes_are_lexicographic_ranks(case):
    ds, x, y, _ = case
    names = x + y
    rows = list(zip(*(ds.codes(v)[0].tolist() for v in names)))
    rank = {t: i for i, t in enumerate(sorted(set(rows)))}
    codes, card = composite_view(ds, names)
    assert card == len(rank)
    assert codes.tolist() == [rank[t] for t in rows]


def _loop_cmi(ds, x, y, z):
    """Reference I(X;Y|Z) by dict loops over row tuples (I(X;Y) for empty Z)."""
    def tuples(names):
        return list(zip(*(ds.codes(v)[0].tolist() for v in names))) or [()] * ds.n

    tx, ty, tz = tuples(x), tuples(y), tuples(z)
    xyz, xz, yz, zc = (Counter(zip(tx, ty, tz)), Counter(zip(tx, tz)),
                       Counter(zip(ty, tz)), Counter(tz))
    return sum(c / ds.n * math.log2(c * zc[k] / (xz[a, k] * yz[b, k]))
               for (a, b, k), c in xyz.items())


@SETTINGS
@given(split())
def test_kernel_matches_loop_reference(case):
    ds, x, y, z = case
    assert mdata.conditional_mutual_information(ds, x, y, z) == pytest.approx(
        max(_loop_cmi(ds, x, y, z), 0.0), abs=1e-12)
