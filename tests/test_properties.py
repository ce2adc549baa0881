"""Property tests for the information measures, the shared counting kernel,
the pair cache's rows, the composites the joint criteria reuse within a
search step, the structure analyses against exhaustive walks, and CSV
loading against the csv module's reading."""

import csv
import math
import warnings
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from miselect import (CriterionSpec, Dataset, QuantizerSpec, RelevanceLevel, StructureReport,
                      analyze, classify_relevance, composite_view, empirical_distribution,
                      find_minimal_markov_blankets, forward_select, is_markov_blanket, load_csv,
                      minimal_sufficient_subsets, plus_l_take_away_r, score, score_all)
from miselect import data as mdata
from miselect import info, search
from miselect.criteria import PairCache
from miselect.structure import (IRRELEVANT, STRONGLY_RELEVANT, WEAKLY_RELEVANT,
                                SufficientSubset)

from conftest import random_distribution

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def datasets(draw, max_n=40, extra=(0, 0, 1, 3, 100, 2**60)):
    """Small datasets whose composites often have more states than rows.

    Declared cardinalities may exceed the observed codes by one of `extra`:
    by default some by more than n, and some so far (2**60) that an
    unranked product of two of them overflows int64.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(2, 5))
    cols, cards = [], []
    for _ in range(m + 1):
        observed = draw(st.integers(1, 6))
        cols.append(draw(st.lists(st.integers(0, observed - 1), min_size=n, max_size=n)))
        cards.append(observed + draw(st.sampled_from(extra)))
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
def group_candidate(draw, ds, columns):
    """A tuple of one to three of `columns`, where a View of the next one or
    two columns may stand in for them."""
    cols = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    group = []
    while cols:
        width = draw(st.integers(0, min(2, len(cols))))   # 0: the column itself
        group.append(mdata.View(*composite_view(ds, cols[:width])) if width else cols[0])
        cols = cols[max(width, 1):]
    return tuple(group)


@st.composite
def rows(draw):
    """A dataset, fixed groups Y and Z (Z maybe empty), candidates from the
    other columns, each a column or a group of them (`group_candidate`), and
    a block size that splits them into one or more blocks."""
    ds = draw(datasets())
    names = draw(st.permutations(list(ds.feature_names) + [ds.target_name]))
    a = draw(st.integers(1, min(2, len(names) - 1)))
    b = draw(st.integers(a, min(a + 2, len(names) - 1)))
    others = names[b:]
    cands = draw(st.lists(st.one_of(st.sampled_from(others), group_candidate(ds, others)),
                          min_size=1, max_size=8, unique=True))
    block = draw(st.sampled_from([1, ds.n, 2 * ds.n, info.BLOCK_CODES]))
    return ds, cands, names[:a], names[a:b], block


def _x(f):
    """The X group of the per-call measure that a row candidate stands for."""
    return list(f) if isinstance(f, tuple) else [f]


@SETTINGS
@given(rows())
def test_rows_equal_per_call_measures(case):
    """Each batched value is the per-call I(f;Y|Z) bit for bit, across
    blocks holding candidates of mixed cardinalities, some past n, and
    groups of columns and Views."""
    ds, cands, y, z, block = case
    saved = info.BLOCK_CODES
    info.BLOCK_CODES = block
    try:
        got = mdata.mutual_information_row(ds, cands, y, z)
    finally:
        info.BLOCK_CODES = saved
    assert got == [mdata.conditional_mutual_information(ds, _x(f), y, z) for f in cands]


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
    view = mdata.View(*composite_view(ds, cands[:2]))
    cands += list(combinations(cands[:6], 2)) + [(view, "f9"), (view,), view, tuple(cands[4:7])]
    for y, z in (([c], []), ([s], []), ([s], [c]), ([c], [s]), ([s], [s1])):
        want = [mdata.conditional_mutual_information(ds, _x(f), y, z) for f in cands]
        assert mdata.mutual_information_row(ds, cands, y, z) == want, (y, z)


@SETTINGS
@given(st.data())
def test_ranks_by_counting_equal_unique(data):
    """Dense ranks of codes below a radix, on both sides of the 2n cap
    where ranking switches from counting to sorting."""
    n = data.draw(st.integers(1, 200))
    radix = data.draw(st.integers(1, 4 * n))
    code = np.array(data.draw(st.lists(st.integers(0, radix - 1), min_size=n, max_size=n)))
    ranks, count = info._ranks(code, radix)
    uniq, inverse = np.unique(code, return_inverse=True)
    assert count == len(uniq)
    assert np.array_equal(ranks, inverse)


@st.composite
def code_tables(draw):
    """(codes, cardinality) columns of n rows, with cardinalities declared
    at or above the codes' (some above n).  Half of the tables hold a
    column of n distinct codes, so that their rows come apart there; in
    half of those whose first two columns' radix is at most 120, n is that
    radix, which an unranked code then reaches with rows that may repeat.
    A larger radix would ask for more rows than Hypothesis can draw."""
    observed = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    cards = [c + draw(st.sampled_from((0, 0, 1, 100))) for c in observed]
    n = draw(st.integers(1, 40))
    if math.prod(cards[:2]) <= 120 and draw(st.booleans()):
        n = math.prod(cards[:2])
    cols = [(np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))), card)
            for c, card in zip(observed, cards)]
    if draw(st.booleans()):
        apart = np.array(draw(st.permutations(range(n))))
        cols.insert(draw(st.integers(0, len(cols))), (apart, n + draw(st.sampled_from((0, 3)))))
    return cols, n


@SETTINGS
@given(code_tables())
def test_code_stops_once_rows_are_apart(case):
    """`_code` stops once its ranks number n; its ranks equal those of a
    loop that codes every column, and its radix is n when the rows are
    all distinct."""
    cols, n = case
    ranks = np.zeros(n, dtype=np.int64)
    for col, _ in cols:
        ranks = np.unique(ranks * (int(col.max()) + 1) + col, return_inverse=True)[1]
    code, radix = info._code(cols, n)
    got, count = info._ranks(code, radix)
    assert np.array_equal(got, ranks)
    distinct = len(set(zip(*(col.tolist() for col, _ in cols))))
    assert count == distinct
    assert radix <= n
    if distinct == n:
        assert radix == n
    event(f"rows apart: {distinct == n}")


def kernel_datasets():
    """Datasets of 1 to 300 rows, so fewer than the 64 rows of one plane
    word and row counts that are no multiple of 64, with small
    cardinalities, some of them 1, and some declared above the codes."""
    return datasets(max_n=300, extra=(0, 0, 1, 3))


@SETTINGS
@given(kernel_datasets(), st.data())
def test_plane_counts_equal_code_counts(ds, data):
    """Popcounts over bit planes give the cells and counts of the bincount
    over block-offset codes, for fixed groups of one or two columns."""
    names = data.draw(st.permutations(list(ds.feature_names) + [ds.target_name]))
    a = data.draw(st.integers(1, min(2, len(names) - 1)))
    b = data.draw(st.integers(a, min(a + 2, len(names) - 1)))
    fixed = [info._code([ds.codes(v) for v in g], ds.n) for g in (names[:a], names[a:b]) if g]
    g, radix = info._code(fixed, ds.n)
    cols = [ds.codes(f) for f in names[b:]]
    cells, counts, card = info._count_codes(cols, g, radix, ds.n)
    planes = np.concatenate([info._planes(*col) for col in cols])   # values 1..card-1
    most = max(c for _, c in cols)
    place = np.concatenate([i * most + np.arange(1, c) for i, (_, c) in enumerate(cols)])
    got = info._count_planes(planes, np.bitwise_count(planes).sum(axis=1), place,
                             len(cols), most, info._planes(g, radix),
                             np.bincount(g, minlength=radix))
    assert np.array_equal(got[1], counts)
    if card == most:   # else ranked: other cell numbers, same order
        assert np.array_equal(got[0], cells)


def _fixed_groups(ds, data):
    """A permutation of the columns and the class, split into fixed groups Y
    (one or two columns) and Z (none to two), and the candidates after them."""
    names = data.draw(st.permutations(list(ds.feature_names) + [ds.target_name]))
    a = data.draw(st.integers(1, min(2, len(names) - 1)))
    b = data.draw(st.integers(a, min(a + 2, len(names) - 1)))
    return [names[:a], names[a:b]], names[b:]


@SETTINGS
@given(kernel_datasets(), st.sampled_from([1, 2, 3, None]), st.data())
def test_complement_planes_count_as_codes(ds, per_block, data):
    """Rows counted over complement planes hold the counts, candidates and
    group codes of the rows counted by codes, block by block, and give the
    same values: for cardinalities that include 1 and some declared above
    the codes, fixed groups that include the class or two columns, and
    candidates split into blocks by BLOCK_CODES."""
    groups, cands = _fixed_groups(ds, data)
    store = ds._table.planes
    saved = info.PLANE_CELLS, info.BLOCK_CODES
    info.PLANE_CELLS = 10**9
    info.BLOCK_CODES = per_block * ds.n if per_block else saved[1]
    try:
        by_planes = list(info._row_tables(ds._table, cands, groups))
        by_codes = list(info._row_tables(ds._table._replace(planes=None), cands, groups))
    finally:
        info.PLANE_CELLS, info.BLOCK_CODES = saved
    assert all(store.built[store.slot[f]] for f in cands)
    for f in cands:   # a column's rows are its `_planes` as they come
        want = info._planes(*ds.codes(f))
        here = slice(store.start[store.slot[f]], store.start[store.slot[f]] + len(want))
        assert np.array_equal(store.planes[here], want)
        assert store.pops[here].tolist() == np.bitwise_count(want).sum(axis=1).tolist()
    unranked = max(ds.codes(f)[1] for f in cands) <= ds.n
    assert len(by_planes) == len(by_codes)
    for got, want in zip(by_planes, by_codes):
        assert got.counts.tolist() == want.counts.tolist()
        assert got.which.tolist() == want.which.tolist()
        for (code, card), (code_want, card_want) in zip(got.comps[1:], want.comps[1:]):
            assert (code.tolist(), card) == (code_want.tolist(), card_want)
        if unranked:   # else the codes are ranked: other values, same order
            assert got.comps[0][0].tolist() == want.comps[0][0].tolist()
        assert got.values().tolist() == want.values().tolist()


@SETTINGS
@given(st.sampled_from([1, 7, 300, 20_000]), st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(20_000, [1, 1], 2, 3)   # cardinalities 2 and 1, radix 18,869: int32 codes
def test_narrow_bincounts_equal_int64_codes(n, scales, radix_scale, seed):
    """One bincount or sort per candidate, of codes in int16 or int32 as its
    layout needs, holds the cells and counts that `np.unique` gives over the
    block's stacked int64 block-offset codes, unweighted and with unit
    weights: for cardinalities 1 to 2n, some ranked past n, group radices 1
    to n, and layouts past 2**15 cells, counted by bincount or by sort."""
    rng = np.random.default_rng(seed)
    size = lambda scale: int(rng.integers(1, [3, n + 1, 2 * n + 1][scale - 1]))
    cols = []
    for scale in scales:
        card = size(scale)
        col = rng.integers(0, card, n)
        cols.append((col.astype(np.int8) if card <= 127 else col, card))
    radix = min(size(radix_scale), n)
    g = rng.integers(0, radix, n)
    ranked = [info._ranks(col, card) if card > n else (col, card) for col, card in cols]
    size = max(card for _, card in ranked) * radix
    codes = [col.astype(np.int64) * radix + g + i * size for i, (col, _) in enumerate(ranked)]
    want_cells, want_counts = np.unique(np.concatenate(codes), return_counts=True)
    for weights in (None, np.ones(n)):
        cells, counts, card = info._count_codes(cols, g, radix, n, weights)
        assert card == max(card for _, card in ranked)
        assert cells.tolist() == want_cells.tolist()
        assert counts.tolist() == want_counts.tolist()


def test_wide_candidate_is_sorted_alone(monkeypatch):
    """A block of five-valued candidates and one of n values sorts only the
    wide one's codes: the others are counted by bincount, as in a block
    of their own."""
    rng = np.random.default_rng(18)
    n = 1000
    cols = [(rng.integers(0, 5, n), 5) for _ in range(3)] + [(rng.permutation(n), n)]
    g = rng.integers(0, 3, n)
    unique, sorted_ = np.unique, []
    monkeypatch.setattr(np, "unique", lambda code, **kw: sorted_.append(len(code))
                        or unique(code, **kw))
    cells, counts, card = info._count_codes(cols, g, 3, n)
    assert (sorted_, card, counts.sum()) == ([n], n, 4 * n)


@SETTINGS
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_equal_segments_sum_as_segment_sums(k, seed):
    """Segments of one length L, summed as the rows of a (k, L) matrix, equal
    `_segment_sums` of them bit for bit, for every L from 1 to 130 (past
    numpy's 128-term block, where its pairwise sum recurses) and for L of a
    few thousand, where it recurses 4 to 7 times; k = 1 is a lone segment."""
    rng = np.random.default_rng(seed)
    for length in [*range(1, 131), 1500, 2500, 5000, 9000, 16000]:
        terms = rng.normal(size=k * length) * 10.0 ** rng.integers(-12, 2, size=k * length)
        bounds = np.arange(k + 1) * length
        assert terms.reshape(k, length).sum(axis=1).view(np.int64).tolist() == \
            info._segment_sums(terms, bounds).view(np.int64).tolist()


@SETTINGS
@given(kernel_datasets(), st.sampled_from([0, info.PLANE_CELLS, 10**9]),
       st.sampled_from([1, info.BLOCK_CODES]), st.booleans(), st.data())
def test_pair_cache_rows_equal_per_call_measures(ds, plane_cells, block, given_first, data):
    """Every statistic of the pair cache equals its per-call measure by ==,
    counted by planes, by codes, or by the cost rule between them, and
    I(f;s) whether it comes from its own count or from the (f, s, C) one."""
    names = data.draw(st.permutations(list(ds.feature_names)))
    S = names[:data.draw(st.integers(1, min(2, len(names) - 1)))]
    cands, s1, s, c = names[len(S):], S[0], S[-1], ds.target_name
    cmi = mdata.conditional_mutual_information

    def per_call(y, z):
        return [cmi(ds, [f], y, z) for f in cands]

    saved = info.PLANE_CELLS, info.BLOCK_CODES
    info.PLANE_CELLS, info.BLOCK_CODES = plane_cells, block
    try:
        cache = PairCache(ds)
        cache.candidates = tuple(cands)
        pairs = [(cache.pair_mi_given_class, per_call([s], [c])),
                 (cache.pair_mi, per_call([s], []))]
        if not given_first:
            pairs.reverse()
        assert [lookup(s).tolist() for lookup, _ in pairs] == [want for _, want in pairs]
        assert cache.relevance().tolist() == per_call([c], [])
        assert cache.class_mi_given(s).tolist() == per_call([c], [s])
        if s1 != s:
            assert cache.chain_mi(s, s1).tolist() == per_call([s], [s1])
    finally:
        info.PLANE_CELLS, info.BLOCK_CODES = saved


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), min_size=3, max_size=5),
       st.sampled_from([0.0, 0.5]), st.sampled_from([1, info.BLOCK_CODES]), st.booleans())
def test_weighted_rows_equal_exact_measures(seed, cards, sparsity, block, given_z):
    """Rows over an exact distribution's weighted table, a block or one
    candidate at a time, equal the per-call exact measures by ==, for
    candidates that are variables or groups of them."""
    dist = random_distribution(np.random.default_rng(seed), cards, sparsity=sparsity)
    *cands, y = dist.variables[:-1] if given_z else dist.variables
    cands += [group for size in (2, 3) for group in combinations(cands, size)]
    groups = [[y], [dist.variables[-1]]] if given_z else [[y]]
    saved, info.BLOCK_CODES = info.BLOCK_CODES, block
    try:
        got = np.concatenate([rows.values() for rows in
                              info._row_tables(dist._table, cands, groups)]).tolist()
    finally:
        info.BLOCK_CODES = saved
    assert got == [info.conditional_mutual_information(dist, _x(f), *groups) if given_z
                   else info.mutual_information(dist, _x(f), groups[0]) for f in cands]


def test_summed_out_counts_keep_candidates_apart():
    """Summing C out of the (f, s, C) counts never merges the last cell of
    one candidate with the first of the next, even where both hold the
    same (f, s) values: here s and f1 are constant and f2 starts at 0."""
    rng = np.random.default_rng(3)
    n = 100
    feats = np.column_stack([np.zeros(n), np.zeros(n), rng.integers(0, 2, n)])
    ds = Dataset(feats.astype(np.int64), rng.integers(0, 2, n), (1, 1, 2), 2,
                 ("f0", "f1", "f2"), "y")
    cache = PairCache(ds)
    cache.candidates = ("f1", "f2")
    cache.pair_mi_given_class("f0")
    assert cache.pair_mi("f0").tolist() == [
        mdata.mutual_information(ds, [f], ["f0"]) for f in cache.candidates] == [0.0, 0.0]


@SETTINGS
@given(st.integers(0, 2**32 - 1),
       st.lists(st.one_of(st.integers(0, 300), st.sampled_from([0, 7, 8, 127, 128, 129]),
                          st.integers(1000, 16000)),
                min_size=1, max_size=12))
@example(seed=0, lengths=[1])
@example(seed=1, lengths=[5000])
def test_segment_sums_equal_numpy_sums(seed, lengths):
    """The segmented sum of a row's terms is np.sum of each segment, and
    after the clip max(clip_zero(np.sum)), 0) of it, bit for bit, on both
    sides of numpy's 8-term and 128-term boundaries, for segments of a few
    thousand terms, where its pairwise sum recurses 3 to 7 times, and for a
    lone segment; terms of mixed sign and scale, with exact and negative
    zeros."""
    rng = np.random.default_rng(seed)
    terms = rng.normal(size=sum(lengths)) * 10.0 ** rng.integers(-12, 3, size=sum(lengths))
    terms[rng.random(len(terms)) < 0.1] = 0.0
    terms[rng.random(len(terms)) < 0.05] = -0.0
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    got = info._segment_sums(terms, bounds)
    segments = [terms[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    assert got.view(np.int64).tolist() == \
        np.array([np.sum(t) for t in segments]).view(np.int64).tolist()
    clipped = np.where(got < info.ZERO_TOL, 0.0, got)
    assert clipped.view(np.int64).tolist() == \
        np.array([max(info.clip_zero(np.sum(t)), 0.0) for t in segments]).view(np.int64).tolist()


PAIRWISE_KINDS = ("mim", "mifs", "mrmr", "jmi", "cife", "cmifs", "cmim", "cmim2", "icap")


class ReferenceCache:
    """The pair statistics as per-call measures, memoized per candidate.

    As the pair cache does, a symmetric pair keeps the value of the
    orientation it was first computed in, with the candidate as X, and a
    miss of I(f;s|C) also stores I(f;s) where it is missing.
    """

    def __init__(self, ds):
        self.ds, self.c = ds, [ds.target_name]
        self.mi, self.mi_given_c = {}, {}

    def _cmi(self, f, y, z=()):
        return mdata.conditional_mutual_information(self.ds, [f], y, list(z))

    def relevance(self, f):
        return self._cmi(f, self.c)

    def pair_mi(self, f, s):
        return self.mi.setdefault(frozenset((f, s)), self._cmi(f, [s]))

    def pair_mi_given_class(self, f, s):
        key = frozenset((f, s))
        if key not in self.mi_given_c:
            self.mi_given_c[key] = self._cmi(f, [s], self.c)
            self.mi.setdefault(key, self._cmi(f, [s]))
        return self.mi_given_c[key]

    def class_mi_given(self, f, s):
        return self._cmi(f, self.c, [s])

    def chain_mi(self, f, s, s1):
        return self._cmi(f, [s], [s1])


def reference_score(spec, f, S, cache):
    """A pairwise criterion's score of candidate f and its terms, one
    candidate at a time, as the if-chain of formulas that the coefficient
    table replaced computed them."""
    kind = spec.kind
    rel = cache.relevance(f)
    if not S:
        return rel, {"relevance": rel}
    p = len(S)
    if kind == "mim":
        return rel, {"relevance": rel}
    if kind in ("mifs", "mrmr"):
        beta = spec.beta if kind == "mifs" else 1.0 / p
        red = -beta * sum(cache.pair_mi(f, s) for s in S)
        return rel + red, {"relevance": rel, "redundancy": red}
    if kind in ("jmi", "cife"):
        coeff = 1.0 / p if kind == "jmi" else 1.0
        comp = coeff * sum(cache.pair_mi_given_class(f, s) for s in S)
        red = -coeff * sum(cache.pair_mi(f, s) for s in S)
        return rel + red + comp, {"relevance": rel, "redundancy": red,
                                  "complementarity": comp}
    if kind == "cmifs":
        if p == 1:
            comp = cache.pair_mi_given_class(f, S[0])
            red = -cache.pair_mi(f, S[0])
            return rel + red + comp, {"relevance": rel, "redundancy": red,
                                      "complementarity": comp}
        s1, st = S[0], S[-1]
        comp = cache.pair_mi_given_class(f, s1) + cache.pair_mi_given_class(f, st)
        red = -cache.pair_mi(f, st)
        chain = -cache.chain_mi(f, st, s1)
        return rel + red + comp + chain, {"relevance": rel, "redundancy": red,
                                          "complementarity": comp,
                                          "chain_correction": chain}
    if kind == "cmim":
        return min(cache.class_mi_given(f, s) for s in S), {}
    if kind == "cmim2":
        return sum(cache.class_mi_given(f, s) for s in S) / p, {}
    if kind == "icap":
        pen = sum(min(0.0, cache.pair_mi_given_class(f, s) - cache.pair_mi(f, s))
                  for s in S)
        return rel + pen, {"relevance": rel, "interaction_penalty": pen}
    raise AssertionError(f"unhandled criterion {kind}")


def _spec(kind, beta=0.37):
    return CriterionSpec(kind, beta=beta if kind == "mifs" else None)


@st.composite
def scoring_datasets(draw):
    """Datasets of up to 400 rows over columns of 1 to 9 values and a class
    of 1 to 4, so that some (f, s, C) tables hold more than 128 cells."""
    n = draw(st.integers(1, 400))
    cards = draw(st.lists(st.integers(1, 9), min_size=2, max_size=6))
    class_card = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = np.column_stack([rng.integers(0, c, n) for c in cards])
    if len(cards) > 2 and n > 1:   # a dependent pair
        feats[:, 1] = (feats[:, 0] + rng.integers(0, 2, n)) % cards[1]
    cls = (feats[:, 0] + rng.integers(0, class_card, n)) % class_card
    return Dataset(feats, cls, tuple(cards), class_card,
                   tuple(f"f{j}" for j in range(len(cards))), "y")


@SETTINGS
@given(scoring_datasets(), st.data())
def test_scores_equal_reference_formulas(ds, data):
    """score_all, its breakdown and a lone score equal the per-candidate
    formulas by ==, for all nine pairwise kinds and |S| from 0 to 4."""
    names = data.draw(st.permutations(list(ds.feature_names)))
    S = names[:data.draw(st.integers(0, min(4, len(names) - 1)))]
    cands = names[len(S):]
    beta = data.draw(st.sampled_from([0.0, 0.37, 1.0, 2.5]))
    for kind in PAIRWISE_KINDS:
        spec = _spec(kind, beta)
        ref = ReferenceCache(ds)
        want = {f: reference_score(spec, f, S, ref) for f in cands}
        board = score_all(spec, cands, S, ds)
        assert board.scores == {f: value for f, (value, _) in want.items()}, kind
        assert board.breakdown == {f: terms for f, (_, terms) in want.items()}, kind
        f = cands[0]
        assert score(spec, f, S, ds) == want[f][0], kind


@SETTINGS
@given(scoring_datasets(), st.data())
def test_shared_cache_scores_equal_reference_formulas(ds, data):
    """Every add step of a plus-2-take-away-1 run, whose one cache serves
    removed features again as candidates, equals the per-candidate
    formulas over one shared reference cache."""
    k = data.draw(st.integers(1, ds.m))
    for kind in PAIRWISE_KINDS:
        spec = _spec(kind)
        trace = plus_l_take_away_r(spec, ds, l=2, r=1, k=k)
        ref, S = ReferenceCache(ds), []
        for step in trace.steps:
            if step.direction == "add":
                cands = [f for f in ds.feature_names if f not in S]
                assert step.scores == {f: reference_score(spec, f, S, ref)[0]
                                       for f in cands}, kind
                S.append(step.chosen)
            else:
                S.remove(step.chosen)


@SETTINGS
@given(kernel_datasets(), st.data())
def test_selection_invariant_under_column_permutation(ds, data):
    """Forward selection with each pairwise criterion gives the same scores
    and choices on the columns in any order, up to the first step whose
    choice the lowest-column-index tie-break made."""
    perm = data.draw(st.permutations(range(ds.m)))
    shuffled = Dataset(ds.features[:, perm], ds.class_codes,
                       tuple(ds.feature_cards[j] for j in perm), ds.class_card,
                       tuple(ds.feature_names[j] for j in perm), ds.target_name)
    for kind in PAIRWISE_KINDS:
        spec = CriterionSpec(kind, beta=0.5 if kind == "mifs" else None)
        a, b = forward_select(spec, ds, k=ds.m), forward_select(spec, shuffled, k=ds.m)
        for x, y in zip(a.steps, b.steps):
            assert x.scores == y.scores, kind
            assert set(x.ties) == set(y.ties), kind
            if len(x.ties) > 1:
                break
            assert x.chosen == y.chosen, kind
        else:
            assert a.selected == b.selected, kind


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


@pytest.mark.parametrize("order, supports", [
    ("copy b1 b2 b3 b4 b5 b0 n1 n2", [64, 54, 54, 52, 57, 55, 64, 64, 64]),
    ("copy b0 b1 b2 b3 b4 b5 n1 n2", [64, 64, 54, 54, 52, 57, 55, 64, 64]),
])
def test_leave_one_out_after_the_prefix_keeps_rows_apart(order, supports):
    """64 rows: the six bits of the row index, b0 the top one, a copy of b0
    and two seeded noise bits.  In the first order the prefix (copy,
    b1..b5) keeps every row apart, so the last three views are that
    prefix.  In the second, the prefix (copy, b0..b4) reaches radix 64
    unranked with only 32 distinct rows, so it is not apart.  In both, the
    five views that leave out one of b1..b5 have fewer distinct rows than
    n, and only they are counted."""
    n = 64
    bits = [(np.arange(n) >> (5 - j)) & 1 for j in range(6)]
    rng = np.random.default_rng(0)
    cols = [bits[0]] + bits + [rng.integers(0, 2, size=n) for _ in range(2)]
    cls = bits[0] | (bits[1] ^ bits[2])
    ds = Dataset(np.column_stack(cols), cls, (2,) * 9, 2,
                 ("copy", "b0", "b1", "b2", "b3", "b4", "b5", "n1", "n2"), "C")
    S = order.split()
    views = mdata.leave_one_out_views(ds, S)
    assert [view.support for view in views] == supports
    for f, view in zip(S, views):
        codes, support = composite_view(ds, [v for v in S if v != f])
        assert view.support == support
        assert view.codes.tolist() == codes.tolist()
    c = [ds.target_name]
    want = {f: mdata.conditional_mutual_information(ds, [f], c, [v for v in S if v != f])
            for f in S}
    with mock.patch.object(mdata, "conditional_mutual_information",
                           wraps=mdata.conditional_mutual_information) as cmi:
        assert search._removal_scores(ds, S) == want
    assert cmi.call_count == 5              # one per view of support < n
    assert want["b1"] > 0 and want["b0"] == 0.0


# The exhaustive structure walks, each subset tested by its own per-call
# measure: the reference the analyses are compared against.

def _all_subsets(items):
    return [S for size in range(len(items) + 1) for S in combinations(items, size)]


def _reference_relevance(ds, f, eps):
    rest, c = [v for v in ds.feature_names if v != f], [ds.target_name]
    if mdata.conditional_mutual_information(ds, [f], c, rest) > eps:
        return RelevanceLevel(STRONGLY_RELEVANT)
    for S in _all_subsets(rest):
        if mdata.conditional_mutual_information(ds, [f], c, list(S)) > eps:
            return RelevanceLevel(WEAKLY_RELEVANT, witness=S)
    return RelevanceLevel(IRRELEVANT)


def _reference_blankets(ds, f, eps):
    """Every inclusion-minimal M with I(f; C u (F \\ f \\ M) | M) <= eps,
    testing all 2^(m-1) subsets of the other features."""
    rest, found = [v for v in ds.feature_names if v != f], []
    for M in _all_subsets(rest):
        if any(set(prev) <= set(M) for prev in found):
            continue
        block = [ds.target_name] + [v for v in rest if v not in M]
        if mdata.conditional_mutual_information(ds, [f], block, list(M)) <= eps:
            found.append(M)
    return tuple(found)


def _reference_sufficiency(ds, eps):
    """The default multiplier, the minimum-cardinality subsets with deficit
    within eps, and the deficit of each feature alone."""
    F, c = list(ds.feature_names), [ds.target_name]
    full = mdata.mutual_information(ds, F, c)
    lagrange = ds.m / full if full > eps else 1.0

    def part(S):
        return mdata.mutual_information(ds, list(S), c) if S else 0.0

    def deficit(S):
        return max(info.clip_zero(full - part(S)), 0.0)

    found = [S for S in _all_subsets(F) if deficit(S) <= eps]
    found = [S for S in found if len(S) == len(found[0])]  # F itself is always found
    sufficient = tuple(
        SufficientSubset(S, deficit(S), part(S), len(S) - lagrange * part(S),
                         mdata.entropy(ds, list(S)) if S else 0.0)
        for S in found)
    return lagrange, sufficient, {f: deficit([f]) for f in F}


@st.composite
def structure_datasets(draw):
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    cards = [draw(st.integers(1, 3)) for _ in range(m + 1)]
    cols = [draw(st.lists(st.integers(0, card - 1), min_size=n, max_size=n))
            for card in cards]
    feats = np.array(cols[:m], dtype=np.int64).T.reshape(n, m)
    return Dataset(feats, np.array(cols[m], dtype=np.int64), tuple(cards[:m]),
                   cards[m], tuple(f"f{j}" for j in range(m)), "y")


@SETTINGS
@given(structure_datasets(), st.sampled_from([0.0, 1e-9, 0.05]))
def test_analyze_equals_exhaustive_reference(ds, eps):
    """`analyze` equals the exhaustive walks, and under those walks no
    strongly relevant feature has a Markov blanket."""
    relevance = {f: _reference_relevance(ds, f, eps) for f in ds.feature_names}
    blankets = {f: _reference_blankets(ds, f, eps) for f in ds.feature_names}
    lagrange, sufficient, dmis = _reference_sufficiency(ds, eps)
    reference = StructureReport(relevance, blankets, sufficient, dmis, eps, lagrange)
    assert analyze(ds, eps).to_dict() == reference.to_dict()
    for f, level in relevance.items():
        if level.level == STRONGLY_RELEVANT:
            assert blankets[f] == (), f


@SETTINGS
@given(structure_datasets(), st.sampled_from([0.0, 1e-9, 0.05]))
def test_standalone_analyses_equal_exhaustive_reference(ds, eps):
    """`classify_relevance` and `find_minimal_markov_blankets`, each called
    on its own, equal the exhaustive walks for every feature."""
    for f in ds.feature_names:
        assert classify_relevance(ds, f, eps) == _reference_relevance(ds, f, eps), f
        assert tuple(find_minimal_markov_blankets(ds, f, eps)) == \
            _reference_blankets(ds, f, eps), f


@SETTINGS
@given(structure_datasets(), st.sampled_from([0.0, 1e-9, 0.05]))
def test_is_markov_blanket_equals_per_call_reference(ds, eps):
    """`is_markov_blanket`, read as the deficit I(f; V \\ f) - I(f; M) from
    one row, decides every M of the other features as the per-call
    I(f; C u R | M) <= eps does, R being the features outside f and M."""
    for f in ds.feature_names:
        rest = [v for v in ds.feature_names if v != f]
        for M in _all_subsets(rest):
            block = [ds.target_name] + [v for v in rest if v not in M]
            want = mdata.conditional_mutual_information(ds, [f], block, list(M)) <= eps
            assert is_markov_blanket(ds, f, M, eps) == want, (f, M)


@SETTINGS
@given(structure_datasets(), st.sampled_from([0.0, 1e-9, 0.05]))
def test_sufficient_subsets_are_least_class_blankets(ds, eps):
    """The minimal sufficient subsets are the least-size Markov blankets of
    C within F: the subsets S whose per-call I(F \\ S; C | S) is within eps,
    F itself counted as one, in `combinations` order."""
    F, c = ds.feature_names, [ds.target_name]

    def blanket(S):
        rest = [v for v in F if v not in S]
        return not rest or mdata.conditional_mutual_information(ds, rest, c, list(S)) <= eps

    blankets = [S for S in _all_subsets(F) if blanket(S)]
    least = [S for S in blankets if len(S) == len(blankets[0])]
    assert [s.features for s in minimal_sufficient_subsets(ds, eps)] == least


# Pieces of CSV text: number parts, quoting and line ends, the missing-value
# and non-finite tokens, a word, a non-ASCII digit (which float() reads and
# numpy's C parser does not), NUL and a separator control (which the C parser
# skips around a number and float() does not).
CSV_PIECES = tuple("0123456789.e-_,\" \t\r\n\x00\x1f") + ("NA", "nan", "red", "٣")


@st.composite
def csv_texts(draw):
    """A CSV text whose columns draw numbers or words.  Half the texts are
    plain: a valid header, rows as wide as it, `\\n` or `\\r\\n` line ends.  The
    others may repeat or lack a name, end lines with a bare `\\r`, add blank
    lines, and hold fields and rows built from `CSV_PIECES`."""
    plain = draw(st.booleans())
    header = draw(st.sampled_from(["a,C", "a,b,C", "C,a,b"] + ([] if plain else ["a,a,C", "a,b"])))
    numbers = st.sampled_from(["0", "1", "-1.5", "2.5e1", " 3 ", "\t4", '"5"'])
    words = st.sampled_from(["red", "blue", " red ", "NA", '"a,b"', '"x""y"', '"p\nq"'])
    noisy = st.one_of(numbers, words, st.sampled_from(["1_0", "٣", "nan", ""]),
                      st.lists(st.sampled_from(CSV_PIECES), max_size=4).map("".join))
    width = header.count(",") + 1
    columns = draw(st.lists(st.sampled_from([numbers, words] if plain else [numbers, words, noisy]),
                            min_size=width, max_size=width))
    rows = st.tuples(*columns).map(",".join)
    if not plain:
        rows = st.one_of(rows, st.lists(noisy, max_size=width + 1).map(",".join))
    body = draw(st.lists(rows, min_size=1, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"] + ([] if plain else ["\r"])))
    last = draw(st.sampled_from([end, ""] + ([] if plain else [end + end])))
    return header + end + end.join(body) + last


def _load_or_error(path, spec):
    try:
        return load_csv(path, "C", spec)
    except ValueError as exc:
        return str(exc)


def _assert_load_csv_equals_csv_module_reading(path, text, strategy, bins):
    path.write_text(text, encoding="utf-8", newline="")
    spec = QuantizerSpec(strategy, bins)
    with warnings.catch_warnings(), \
            mock.patch.object(mdata, "_read_rows", wraps=mdata._read_rows) as csv_module:
        warnings.simplefilter("error")
        got = _load_or_error(path, spec)
    event("csv module" if csv_module.called else "C pass")
    with mock.patch.object(mdata, "_read_numbers", return_value=None):
        want = _load_or_error(path, spec)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for attr in ("features", "class_codes"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert getattr(got, attr).dtype == getattr(want, attr).dtype
    for attr in ("feature_cards", "class_card", "feature_names", "target_name", "meta"):
        assert getattr(got, attr) == getattr(want, attr)


@pytest.mark.parametrize("strategy", ["equal-width", "equal-frequency", "pass-through"])
@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), bins=st.integers(2, 3))
def test_load_csv_equals_csv_module_reading(tmp_path_factory, strategy, bins, text):
    """`load_csv` gives what reading every row with the csv module gives:
    the same codes, cardinalities, names and meta, or the same error."""
    _assert_load_csv_equals_csv_module_reading(
        tmp_path_factory.getbasetemp() / "property.csv", text, strategy, bins)


@pytest.mark.parametrize("strategy", ["equal-width", "equal-frequency", "pass-through"])
@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), bins=st.integers(2, 3), chunk=st.integers(1, 5))
def test_load_csv_equals_csv_module_reading_in_small_chunks(tmp_path_factory, strategy, bins,
                                                            text, chunk):
    """The same, with the body read a few characters at a time and a field
    limit of 12, so that lines, quoted line ends, blank lines, `\\r`,
    separators and over-long lines straddle chunks."""
    limit = csv.field_size_limit(12)
    try:
        with mock.patch.object(mdata, "CHUNK_CHARS", chunk):
            _assert_load_csv_equals_csv_module_reading(
                tmp_path_factory.getbasetemp() / "chunks.csv", text, strategy, bins)
    finally:
        csv.field_size_limit(limit)
