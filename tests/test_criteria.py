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
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n=300, m=8)
        calls = {"row": 0, "single": 0}
        row, single = mdata.mutual_information_row, mdata.conditional_mutual_information

        def count_row(*args):
            calls["row"] += 1
            return row(*args)

        def count_single(*args):
            calls["single"] += 1
            return single(*args)

        monkeypatch.setattr(mdata, "mutual_information_row", count_row)
        monkeypatch.setattr(mdata, "conditional_mutual_information", count_single)
        forward_select(CriterionSpec("jmi"), ds, k=4)
        # the relevance vector, then I(f;s) and I(f;s|C) for three of the
        # selected features (the fourth is never scored against)
        assert calls == {"row": 1 + 2 * 3, "single": 0}
        calls["row"] = 0
        forward_select(CriterionSpec("cmifs"), ds, k=4)
        # relevance; I(f;s1), I(f;s1|C); then per step I(f;st), I(f;st|C)
        # and the chain term I(f;st|s1)
        assert calls == {"row": 1 + 2 + 3 * 2, "single": 0}

    def test_cached_pair_keeps_its_first_orientation(self, monkeypatch):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=100, m=4)
        cache = PairCache(ds)
        score_all(CriterionSpec("mrmr"), ["f1", "f2", "f3"], ["f0"], ds, cache)
        first = dict(cache._mi)
        # f0 comes back as a candidate against f1: (f0, f1), cached with f1
        # as X, is not recomputed with f0 as X; only missing pairs are filled
        seen = []
        row = mdata.mutual_information_row
        monkeypatch.setattr(mdata, "mutual_information_row",
                            lambda ds_, cands, y, z=(): seen.append((cands, y)) or row(
                                ds_, cands, y, z))
        score_all(CriterionSpec("mrmr"), ["f0", "f2", "f3"], ["f1"], ds, cache)
        assert cache._mi[("f0", "f1")] == first[("f0", "f1")]
        assert seen == [(["f0"], ["y"]), (["f2", "f3"], ["f1"])]
