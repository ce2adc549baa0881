import numpy as np
import pytest

from miselect import CriterionSpec, example1, forward_select, score, score_all
from miselect import data as mdata
from miselect import info
from miselect.criteria import PairCache

from conftest import I_X1_C, MRMR_X4_GIVEN_X1, random_dataset

APPROX = dict(abs=1e-9)


class TestCriterionSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            CriterionSpec("best")

    def test_case_insensitive(self):
        assert CriterionSpec("MRMR").kind == "mrmr"

    def test_beta_only_for_mifs(self):
        with pytest.raises(ValueError):
            CriterionSpec("jmi", beta=0.5)
        with pytest.raises(ValueError):
            CriterionSpec("mifs")
        assert CriterionSpec("mifs", beta=0.5).beta == 0.5

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_mifs_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="finite beta"):
            CriterionSpec("mifs", beta=beta)


class TestScore:
    def test_candidate_in_selected_rejected(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="already selected"):
            score(CriterionSpec("mim"), "x1", ["x1"], ds)

    def test_empty_selected_set_gives_relevance(self):
        _, ds = example1()
        rel = mdata.mutual_information(ds, ["x1"], ["C"])
        for kind in ("mim", "mrmr", "jmi", "cife", "cmifs", "cmim", "cmim2",
                     "icap", "md"):
            assert score(CriterionSpec(kind), "x1", [], ds) == pytest.approx(
                rel, **APPROX)
        assert score(CriterionSpec("mifs", beta=0.7), "x1", [], ds) == pytest.approx(
            rel, **APPROX)

    def test_mrmr_penalizes_duplicate(self):
        _, ds = example1()
        assert score(CriterionSpec("mrmr"), "x4", ["x1"], ds) == pytest.approx(
            MRMR_X4_GIVEN_X1, **APPROX)

    def test_cmim_sees_through_xor_blindness(self):
        _, ds = example1()
        assert score(CriterionSpec("cmim"), "x2", ["x1"], ds) == 0.0

    @pytest.mark.filterwarnings("ignore:MMD complement")
    def test_mmd_balances_joint_against_complement(self):
        _, ds = example1()
        expected = (mdata.mutual_information(ds, ["x1", "x2"], ["C"])
                    - mdata.mutual_information(ds, ["x3", "x4"], ["C"]))
        assert score(CriterionSpec("mmd"), "x2", ["x1"], ds) == pytest.approx(
            expected, **APPROX)
        assert expected == pytest.approx(0.0, **APPROX)

    @pytest.mark.filterwarnings("ignore:MMD complement set")
    def test_mmd_step_codes_no_complement_per_candidate(self, monkeypatch):
        """One MMD step recodes no list of more than two columns, and makes
        O(|complement|) two-column recodings in all."""
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=200, m=9)
        widths = []
        code = info._code

        def counting(cols, n):
            widths.append(len(cols))
            return code(cols, n)

        monkeypatch.setattr(info, "_code", counting)
        S = ["f0", "f1"]
        rest = [f for f in ds.feature_names if f not in S]
        score_all(CriterionSpec("mmd"), rest, S, ds)
        assert max(widths) == 2
        assert widths.count(2) <= 6 * len(rest)

    def test_lone_mmd_score_codes_its_complement_once(self, monkeypatch):
        """`score` without a shared cache codes the complement of S + f as
        one composite, not as the leave-one-out views of every candidate."""
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=200, m=9)
        widths = []
        code = info._code

        def counting(cols, n):
            widths.append(len(cols))
            return code(cols, n)

        monkeypatch.setattr(info, "_code", counting)
        S, f = ["f0", "f1"], "f2"
        rest = [v for v in ds.feature_names if v not in S and v != f]
        with pytest.warns(UserWarning, match="sparse support"):
            value = score(CriterionSpec("mmd"), f, S, ds)
        assert widths.count(len(rest)) == 1
        assert widths.count(2) <= 6
        monkeypatch.setattr(info, "_code", code)
        assert value == (mdata.mutual_information(ds, S + [f], ["y"])
                         - mdata.mutual_information(ds, rest, ["y"]))

    def test_mmd_warns_on_sparse_complement_support(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, n=30, m=6, card=4)
        with pytest.warns(UserWarning, match="sparse support"):
            score(CriterionSpec("mmd"), "f0", [], ds)


class TestScoreAll:
    def test_example1_mim_board(self):
        _, ds = example1()
        board = score_all(CriterionSpec("mim"), list(ds.feature_names), [], ds)
        assert board.scores["x1"] == pytest.approx(I_X1_C, **APPROX)
        assert board.scores["x2"] == 0.0
        assert board.scores["x3"] == 0.0
        assert board.scores["x4"] == pytest.approx(I_X1_C, **APPROX)

    def test_md_with_empty_set_matches_mim(self):
        _, ds = example1()
        mim = score_all(CriterionSpec("mim"), list(ds.feature_names), [], ds)
        md = score_all(CriterionSpec("md"), list(ds.feature_names), [], ds)
        assert md.scores == pytest.approx(mim.scores, abs=1e-9)

    def test_overlap_rejected(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="overlap"):
            score_all(CriterionSpec("mim"), ["x1", "x2"], ["x1"], ds)

    def test_empty_candidates_empty_board(self):
        _, ds = example1()
        board = score_all(CriterionSpec("mim"), [], ["x1"], ds)
        assert board.scores == {}

    def test_breakdown_sums_to_score_for_linear_criteria(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=120, m=5)
        for kind in ("mim", "mrmr", "jmi", "cife", "cmifs", "icap"):
            board = score_all(CriterionSpec(kind), ["f3", "f4"], ["f0", "f1", "f2"], ds)
            for f, terms in board.breakdown.items():
                assert sum(terms.values()) == pytest.approx(board.scores[f], **APPROX)


@pytest.fixture(scope="module")
def boards():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(15):
        m = int(rng.integers(3, 7))
        ds = random_dataset(rng, n=int(rng.integers(50, 500)), m=m)
        k = int(rng.integers(1, m))
        S = [f"f{i}" for i in range(k)]
        cand = [f"f{i}" for i in range(k, m)]
        cases.append((ds, S, cand))
    return cases


class TestReductionIdentities:
    """The low-order-approximation family collapses as the theory says."""

    def test_mifs_with_beta_inverse_size_is_mrmr(self, boards):
        for ds, S, cand in boards:
            mifs = score_all(CriterionSpec("mifs", beta=1.0 / len(S)), cand, S, ds)
            mrmr = score_all(CriterionSpec("mrmr"), cand, S, ds)
            assert mifs.scores == pytest.approx(mrmr.scores, abs=1e-9)

    def test_jmi_minus_mrmr_is_average_class_conditional_mi(self, boards):
        for ds, S, cand in boards:
            jmi = score_all(CriterionSpec("jmi"), cand, S, ds)
            mrmr = score_all(CriterionSpec("mrmr"), cand, S, ds)
            for f in cand:
                comp = sum(mdata.conditional_mutual_information(
                    ds, [f], [s], [ds.target_name]) for s in S) / len(S)
                assert jmi.scores[f] - mrmr.scores[f] == pytest.approx(comp, **APPROX)

    def test_cife_is_jmi_with_unit_coefficients(self, boards):
        for ds, S, cand in boards:
            cife = score_all(CriterionSpec("cife"), cand, S, ds)
            jmi = score_all(CriterionSpec("jmi"), cand, S, ds)
            for f in cand:
                rel = mdata.mutual_information(ds, [f], [ds.target_name])
                assert cife.scores[f] - rel == pytest.approx(
                    len(S) * (jmi.scores[f] - rel), **APPROX)

    def test_single_selected_feature_collapse(self, boards):
        # with |S| = 1 the whole family equals I(f;C|s1)
        for ds, _, _ in boards:
            S = ["f0"]
            cand = [f for f in ds.feature_names if f not in S]
            expected = {f: mdata.conditional_mutual_information(
                ds, [f], [ds.target_name], S) for f in cand}
            for kind in ("jmi", "cife", "cmim", "cmim2", "cmifs"):
                board = score_all(CriterionSpec(kind), cand, S, ds)
                assert board.scores == pytest.approx(expected, abs=1e-9)


class TestOrderingInvariants:
    def test_icap_never_exceeds_mim(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ds = random_dataset(rng, n=80, m=5)
            S = ["f0", "f1"]
            cand = ["f2", "f3", "f4"]
            icap = score_all(CriterionSpec("icap"), cand, S, ds)
            mim = score_all(CriterionSpec("mim"), cand, S, ds)
            for f in cand:
                assert icap.scores[f] <= mim.scores[f] + 1e-12

    def test_cmim_never_exceeds_cmim2(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ds = random_dataset(rng, n=80, m=5)
            S = ["f0", "f1", "f2"]
            cand = ["f3", "f4"]
            cmim = score_all(CriterionSpec("cmim"), cand, S, ds)
            cmim2 = score_all(CriterionSpec("cmim2"), cand, S, ds)
            for f in cand:
                assert cmim.scores[f] <= cmim2.scores[f] + 1e-12

    def test_evaluation_order_does_not_change_values(self):
        _, ds = example1()
        a = score_all(CriterionSpec("jmi"), ["x2", "x3", "x4"], ["x1"], ds)
        b = score_all(CriterionSpec("jmi"), ["x4", "x3", "x2"], ["x1"], ds)
        assert a.scores == pytest.approx(b.scores, abs=0)


class TestPairCache:
    def test_lookups_defined_on_the_class(self):
        # the benchmark's tracer wraps these in vars(PairCache)
        for name in ("relevance", "pair_mi", "pair_mi_given_class", "class_mi_given"):
            assert callable(vars(PairCache)[name])

    def test_rows_filled_in_one_pass_per_selected_feature(self, monkeypatch):
        """One counting pass per row, by codes or by bit planes, and no
        per-call measure."""
        calls = {"count": 0, "single": 0}

        def counting(module, name, key):
            real = getattr(module, name)

            def wrapper(*args):
                calls[key] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("_count_codes", "_count_planes"):
            counting(info, name, "count")
        for name in ("mutual_information", "conditional_mutual_information"):
            counting(mdata, name, "single")
        passes = {
            # the relevance row, then one row per selected feature scored
            # against (the fourth is never scored against): JMI, CIFE and
            # ICAP take I(f;s) from the (f, s, C) count of I(f;s|C)
            "mrmr": 1 + 3, "jmi": 1 + 3, "cife": 1 + 3, "icap": 1 + 3, "cmim": 1 + 3,
            # relevance; (f, s1, C); then per step (f, st, C) and the
            # chain term I(f;st|s1)
            "cmifs": 1 + 1 + 2 * 2,
        }
        rng = np.random.default_rng(6)
        for card in (2, 5):     # five values: the chain term is counted by codes
            ds = random_dataset(rng, n=300, m=8, card=card)
            for kind, want in passes.items():
                calls.update(count=0, single=0)
                forward_select(CriterionSpec(kind), ds, k=4)
                assert calls == {"count": want, "single": 0}, (kind, card)

    def test_shared_count_keeps_cached_pairs(self):
        """A miss of I(f;s|C) stores I(f;s) only where it is missing: a pair
        cached with the other feature as X keeps that value."""
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=100, m=4)
        cache = PairCache(ds)
        score_all(CriterionSpec("mrmr"), ["f1", "f2", "f3"], ["f0"], ds, cache)
        first = _pair(cache, "I(f;s)", "f0", "f1")
        score_all(CriterionSpec("jmi"), ["f0", "f2", "f3"], ["f1"], ds, cache)
        assert _pair(cache, "I(f;s)", "f1", "f0") == first
        for c in ("f2", "f3"):
            assert _pair(cache, "I(f;s)", "f1", c) == mdata.mutual_information(ds, [c], ["f1"])
            assert _pair(cache, "I(f;s|C)", "f1", c) == \
                mdata.conditional_mutual_information(ds, [c], ["f1"], ["y"])

    def test_cached_pair_keeps_its_first_orientation(self, monkeypatch):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=100, m=4)
        cache = PairCache(ds)
        score_all(CriterionSpec("mrmr"), ["f1", "f2", "f3"], ["f0"], ds, cache)
        first = _pair(cache, "I(f;s)", "f0", "f1")
        # f0 comes back as a candidate against f1: (f0, f1), cached with f1
        # as X, is not recomputed with f0 as X; only missing pairs are filled
        seen = []
        rows = mdata._row_tables
        monkeypatch.setattr(mdata, "_row_tables",
                            lambda ds_, cands, y, z=(), planes=None: seen.append((cands, y))
                            or rows(ds_, cands, y, z, planes))
        score_all(CriterionSpec("mrmr"), ["f0", "f2", "f3"], ["f1"], ds, cache)
        assert _pair(cache, "I(f;s)", "f1", "f0") == first
        assert seen == [(["f0"], ["y"]), (["f2", "f3"], ["f1"])]

    def test_rows_hold_selected_times_features_floats(self):
        """After JMI to k=3 over m=2000 columns the cache holds a few rows of
        m floats each, O(k m) in all, and no m x m array."""
        rng = np.random.default_rng(9)
        m, k = 2000, 3
        ds = random_dataset(rng, n=60, m=m, card=2)
        cache = PairCache(ds)
        S = []
        for _ in range(k):
            cands = [f for f in ds.feature_names if f not in S]
            board = score_all(CriterionSpec("jmi"), cands, S, ds, cache)
            S.append(max(board.scores, key=board.scores.get))
        floats = [a for a in _arrays(vars(cache)) if a.dtype.kind == "f"]
        # I(f;C), then I(f;s) and I(f;s|C) for the two features scored against
        assert len(floats) == 1 + 2 * (k - 1)
        assert max(a.size for a in floats) == m
        assert sum(a.size for a in floats) <= (1 + 2 * k) * m


def _pair(cache, stat, s, f):
    """The entry of candidate f in the row of s of a PairCache statistic."""
    return cache._rows[(stat, s)][cache.ds.column_index(f)]


def _arrays(obj):
    """Every numpy array reachable from obj through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
