"""Property tests for the information measures, the shared counting kernel,
the pair cache's rows, and the composites the joint criteria reuse within a
search step."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect import (CriterionSpec, Dataset, composite_view, empirical_distribution,
                      forward_select, plus_l_take_away_r, score, score_all)
from miselect import data as mdata
from miselect import info, search
from miselect.criteria import PairCache

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
    cells, counts, cards = info._count_codes(cols, g, radix, ds.n)
    got = info._count_planes(np.concatenate([info._planes(*col) for col in cols]), g, radix)
    assert np.array_equal(got[1], counts)
    if cards == [card for _, card in cols]:   # else ranked: other cell numbers, same order
        assert np.array_equal(got[0], cells)


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
       st.lists(st.one_of(st.integers(0, 300), st.sampled_from([0, 7, 8, 127, 128, 129])),
                min_size=1, max_size=12))
def test_segment_sums_equal_numpy_sums(seed, lengths):
    """The segmented sum of a row's terms is np.sum of each segment, and
    after the clip `_bits` of it, bit for bit, on both sides of numpy's
    8-term and 128-term boundaries; terms of mixed sign and scale, with
    exact and negative zeros."""
    rng = np.random.default_rng(seed)
    terms = rng.normal(size=sum(lengths)) * 10.0 ** rng.integers(-12, 3, size=sum(lengths))
    terms[rng.random(len(terms)) < 0.1] = 0.0
    terms[rng.random(len(terms)) < 0.05] = -0.0
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    got = info._segment_sums(terms, bounds)
    segments = [terms[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    assert got.tolist() == [float(np.sum(t)) for t in segments]
    clipped = np.where(got < info.ZERO_TOL, 0.0, got)
    assert clipped.view(np.int64).tolist() == \
        np.array([info._bits(t) for t in segments]).view(np.int64).tolist()


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
