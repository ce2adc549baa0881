"""Property tests for the information measures, the shared counting kernel,
and the composites the joint criteria reuse within a search step."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect import CriterionSpec, Dataset, composite_view, empirical_distribution, score_all
from miselect import data as mdata
from miselect import info, search

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


@st.composite
def rows(draw):
    """A dataset, fixed groups Y and Z (Z maybe empty), candidates from the
    other columns, and a block size that splits them into one or more blocks."""
    ds = draw(datasets())
    names = draw(st.permutations(list(ds.feature_names) + [ds.target_name]))
    a = draw(st.integers(1, min(2, len(names) - 1)))
    b = draw(st.integers(a, min(a + 2, len(names) - 1)))
    cands = names[b:]
    block = draw(st.sampled_from([1, ds.n, 2 * ds.n, info.BLOCK_CODES]))
    return ds, cands, names[:a], names[a:b], block


@SETTINGS
@given(rows())
def test_rows_equal_per_call_measures(case):
    """Each batched value is the per-call I(f;Y|Z) bit for bit, across
    blocks holding candidates of mixed cardinalities, some past n."""
    ds, cands, y, z, block = case
    saved = info.BLOCK_CODES
    info.BLOCK_CODES = block
    try:
        got = mdata.mutual_information_row(ds, cands, y, z)
    finally:
        info.BLOCK_CODES = saved
    assert got == [mdata.conditional_mutual_information(ds, [f], y, z) for f in cands]


@pytest.mark.parametrize("block", [1, 3 * 4000, info.BLOCK_CODES])
def test_rows_equal_per_call_measures_on_larger_data(block, monkeypatch):
    """I(f;C), I(f;s), I(f;s|C), I(f;C|s) and I(f;s_t|s_1) over every
    candidate of a larger dataset with mixed cardinalities, compared with ==."""
    monkeypatch.setattr(info, "BLOCK_CODES", block)
    rng = np.random.default_rng(5)
    n, cards = 4000, (2, 3, 5, 7, 13, 300, 5000, 2, 5, 5, 4)
    cols = [rng.integers(0, min(c, n), size=n) for c in cards]
    cols[1] = (cols[0] + rng.integers(0, 2, size=n)) % 3   # dependent pairs
    cols[8] = cols[2] // 2 + rng.integers(0, 3, size=n)
    cls = (cols[0] ^ (cols[2] > 2) ^ (rng.random(n) < 0.1)).astype(np.int64)
    ds = Dataset(np.column_stack(cols), cls, cards, 2,
                 tuple(f"f{j}" for j in range(len(cards))), "y")
    c, s, s1 = ds.target_name, "f2", "f0"
    cands = [f for f in ds.feature_names if f not in (s, s1)]
    for y, z in (([c], []), ([s], []), ([s], [c]), ([c], [s]), ([s], [s1])):
        want = [mdata.conditional_mutual_information(ds, [f], y, z) for f in cands]
        assert mdata.mutual_information_row(ds, cands, y, z) == want, (y, z)


@st.composite
def selections(draw):
    """A dataset and an ordered selected set S of one or more features."""
    ds = draw(datasets())
    names = draw(st.permutations(list(ds.feature_names)))
    return ds, names[:draw(st.integers(1, len(names)))]


@SETTINGS
@given(selections())
def test_leave_one_out_views_equal_composite_views(case):
    ds, S = case
    if len(S) == 1:
        with pytest.raises(ValueError, match="two columns"):
            mdata.leave_one_out_views(ds, S)
        return
    views = mdata.leave_one_out_views(ds, S)
    assert len(views) == len(S)
    for f, view in zip(S, views):
        codes, support = composite_view(ds, [v for v in S if v != f])
        assert view.support == support
        assert view.codes.tolist() == codes.tolist()


@SETTINGS
@given(selections())
def test_removal_scores_equal_per_call_measures(case):
    ds, S = case
    c = [ds.target_name]
    assert search._removal_scores(ds, S) == {
        f: mdata.conditional_mutual_information(ds, [f], c, [v for v in S if v != f])
        for f in S}


def _mmd(ds, cands, joint):
    """I(S,f;C) - I(F\\S\\f;C) for each candidate f, by per-call measures;
    `cands` is every feature outside S."""
    def rest_mi(f):
        rest = [v for v in cands if v != f]
        return mdata.mutual_information(ds, rest, [ds.target_name]) if rest else 0.0

    return {f: joint[f] - rest_mi(f) for f in cands}


@SETTINGS
@given(selections())
@pytest.mark.filterwarnings("ignore:MMD complement set")
def test_joint_criteria_equal_per_call_measures(case):
    """MD and MMD scores over one step, S coded once and the complement
    left out one candidate at a time, equal the measures over the columns."""
    ds, S = case
    S = S[:-1]          # leave at least one candidate
    cands = [f for f in ds.feature_names if f not in S]
    c = [ds.target_name]
    joint = {f: mdata.mutual_information(ds, S + [f], c) for f in cands}
    assert score_all(CriterionSpec("md"), cands, S, ds).scores == joint
    assert score_all(CriterionSpec("mmd"), cands, S, ds).scores == _mmd(ds, cands, joint)


@pytest.mark.filterwarnings("ignore:MMD complement set")
@pytest.mark.parametrize("size", [1, 2, 5, 9])
def test_joint_scores_equal_per_call_measures_on_larger_data(size):
    """Removal, MD and MMD scores, compared with ==, where S\\f, S + f and
    the complement have more distinct tuples than the n=3000 rows."""
    rng = np.random.default_rng(11)
    n, cards = 3000, (2, 3, 5, 7, 13, 300, 5000, 2, 5, 4)
    cols = [rng.integers(0, min(c, n), size=n) for c in cards]
    cols[1] = (cols[0] + rng.integers(0, 2, size=n)) % 3
    cls = (cols[0] ^ (cols[2] > 2) ^ (rng.random(n) < 0.1)).astype(np.int64)
    ds = Dataset(np.column_stack(cols), cls, cards, 2,
                 tuple(f"f{j}" for j in range(len(cards))), "y")
    S = [f"f{j}" for j in rng.permutation(len(cards))[:size]]
    c = [ds.target_name]
    assert search._removal_scores(ds, S) == {
        f: mdata.conditional_mutual_information(ds, [f], c, [v for v in S if v != f])
        for f in S}
    cands = [f for f in ds.feature_names if f not in S]
    joint = {f: mdata.mutual_information(ds, S + [f], c) for f in cands}
    assert score_all(CriterionSpec("md"), cands, S, ds).scores == joint
    assert score_all(CriterionSpec("mmd"), cands, S, ds).scores == _mmd(ds, cands, joint)
