import tracemalloc

import numpy as np
import pytest

from miselect import (
    Dataset,
    SyntheticSpec,
    analyze,
    classify_relevance,
    dmi,
    example1,
    find_minimal_markov_blankets,
    generate,
    is_markov_blanket,
    minimal_sufficient_subsets,
)
from miselect import data as mdata
from miselect.structure import IRRELEVANT, STRONGLY_RELEVANT, WEAKLY_RELEVANT

from conftest import H_C, I_X1_C


@pytest.fixture(scope="module")
def ex1_with_noise():
    # the 8-row table extended with one independent binary column
    ds, roles = generate(SyntheticSpec(
        relevant=1, xor_groups=1, redundant_copies=1, noise=1, exhaustive=True))
    assert roles["x5"] == "noise"
    return ds


class TestClassifyRelevance:
    def test_xor_members_are_strong(self):
        _, ds = example1()
        assert classify_relevance(ds, "x2").level == STRONGLY_RELEVANT
        assert classify_relevance(ds, "x3").level == STRONGLY_RELEVANT

    def test_duplicates_are_weak_with_empty_witness(self):
        _, ds = example1()
        for f in ("x1", "x4"):
            rl = classify_relevance(ds, f)
            assert rl.level == WEAKLY_RELEVANT
            assert rl.witness == ()

    def test_noise_is_irrelevant(self, ex1_with_noise):
        assert classify_relevance(ex1_with_noise, "x5").level == IRRELEVANT

    def test_invariant_to_column_order(self):
        _, ds = example1()
        reordered = Dataset(
            features=ds.features[:, ::-1],
            class_codes=ds.class_codes,
            feature_cards=ds.feature_cards[::-1],
            class_card=2,
            feature_names=ds.feature_names[::-1],
            target_name="C",
        )
        for f in ds.feature_names:
            assert classify_relevance(ds, f).level == \
                classify_relevance(reordered, f).level

    def test_all_features_classified(self, ex1_with_noise):
        levels = {f: classify_relevance(ex1_with_noise, f).level
                  for f in ex1_with_noise.feature_names}
        assert set(levels.values()) <= {STRONGLY_RELEVANT, WEAKLY_RELEVANT,
                                        IRRELEVANT}

    def test_size_bound(self):
        rng = np.random.default_rng(0)
        feats = rng.integers(0, 2, size=(10, 21))
        ds = Dataset(feats, rng.integers(0, 2, 10), (2,) * 21, 2,
                     tuple(f"f{i}" for i in range(21)), "C")
        with pytest.raises(ValueError, match="greedy criteria"):
            classify_relevance(ds, "f0")


class TestMarkovBlanket:
    def test_duplicate_blanketed_by_original(self):
        _, ds = example1()
        assert is_markov_blanket(ds, "x4", ["x1"])
        assert not is_markov_blanket(ds, "x4", [])

    def test_blanket_containing_feature_rejected(self):
        _, ds = example1()
        with pytest.raises(ValueError):
            is_markov_blanket(ds, "x4", ["x4"])

    def test_full_rest_blankets_noise(self, ex1_with_noise):
        rest = [f for f in ex1_with_noise.feature_names if f != "x5"]
        assert is_markov_blanket(ex1_with_noise, "x5", rest)

    def test_minimal_blankets_of_duplicate(self):
        _, ds = example1()
        assert find_minimal_markov_blankets(ds, "x4") == [("x1",)]

    def test_strongly_relevant_has_no_blanket(self):
        _, ds = example1()
        assert find_minimal_markov_blankets(ds, "x2") == []

    def test_two_feature_duplication(self):
        feats = np.array([[0, 0], [1, 1]])
        ds = Dataset(feats, np.array([0, 1]), (2, 2), 2, ("a", "b"), "C")
        assert find_minimal_markov_blankets(ds, "b") == [("a",)]

    def test_memory_scales_with_n(self):
        # the dense ca*cb*cz table would hold 5.8e7 cells here (0.43 GiB)
        rng = np.random.default_rng(3)
        n, m = 5000, 12
        feats = rng.integers(0, 5, size=(n, m))
        ds = Dataset(feats, (feats[:, 0] + feats[:, 1]) % 2, (5,) * m, 2,
                     tuple(f"f{i}" for i in range(m)), "C")
        tracemalloc.start()
        try:
            is_markov_blanket(ds, "f0", ["f1", "f2", "f3", "f4", "f5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_eliminating_blanketed_feature_keeps_dmi(self):
        _, ds = example1()
        # x4 has blanket {x1}: dropping x4 keeps the deficit of the rest at 0
        assert dmi(ds, ["x1", "x2", "x3"]) == pytest.approx(0.0, abs=1e-9)


class TestDmi:
    def test_full_set_has_zero_deficit(self):
        _, ds = example1()
        assert dmi(ds, list(ds.feature_names)) == 0.0

    def test_functional_triple_is_sufficient(self):
        _, ds = example1()
        assert dmi(ds, ["x1", "x2", "x3"]) == pytest.approx(0.0, abs=1e-9)

    def test_single_duplicate_deficit(self):
        _, ds = example1()
        assert dmi(ds, ["x1"]) == pytest.approx(H_C - I_X1_C, abs=1e-9)


class TestMinimalSufficientSubsets:
    def test_example1_two_solutions(self):
        _, ds = example1()
        subsets = [s.features for s in minimal_sufficient_subsets(ds)]
        assert subsets == [("x1", "x2", "x3"), ("x2", "x3", "x4")]

    def test_class_copy_singleton(self):
        feats = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        ds = Dataset(feats, feats[:, 0], (2, 2), 2, ("a", "b"), "C")
        subsets = [s.features for s in minimal_sufficient_subsets(ds)]
        assert subsets == [("a",)]

    def test_all_noise_gives_empty_set(self):
        ds, _ = generate(SyntheticSpec(relevant=1, noise=2, exhaustive=True))
        # drop the relevant column so only noise remains
        noise = Dataset(ds.features[:, 1:], ds.features[:, 0],
                        ds.feature_cards[1:], 2, ds.feature_names[1:], "C")
        # the "class" here is the old relevant column: independent of all noise
        subsets = [s.features for s in minimal_sufficient_subsets(noise)]
        assert subsets == [()]

    def test_lagrangian_reported(self):
        _, ds = example1()
        results = minimal_sufficient_subsets(ds, lagrange=2.0)
        for s in results:
            assert s.lagrangian == pytest.approx(
                len(s.features) - 2.0 * s.mi_with_class, abs=1e-12)

    def test_contains_all_strongly_relevant(self):
        _, ds = example1()
        strong = {f for f in ds.feature_names
                  if classify_relevance(ds, f).level == STRONGLY_RELEVANT}
        for s in minimal_sufficient_subsets(ds):
            assert strong <= set(s.features)


class TestAnalyze:
    @pytest.mark.parametrize("param", [{"eps": float("nan")}, {"eps": float("inf")},
                                       {"lagrange": float("nan")},
                                       {"lagrange": float("-inf")}])
    def test_parameters_must_be_finite(self, ex1_with_noise, param):
        with pytest.raises(ValueError, match="must be finite"):
            analyze(ex1_with_noise, **param)

    def test_full_report_on_example1_with_noise(self, ex1_with_noise):
        report = analyze(ex1_with_noise)
        levels = {f: rl.level for f, rl in report.relevance.items()}
        assert levels == {
            "x1": WEAKLY_RELEVANT, "x2": STRONGLY_RELEVANT,
            "x3": STRONGLY_RELEVANT, "x4": WEAKLY_RELEVANT,
            "x5": IRRELEVANT,
        }
        assert report.markov_blankets["x4"] == (("x1",),)
        assert [s.features for s in report.sufficient_subsets] == \
            [("x1", "x2", "x3"), ("x2", "x3", "x4")]

    def test_full_set_mi_computed_once(self, ex1_with_noise, monkeypatch):
        full = []
        mi = mdata.mutual_information

        def counting(ds, x, y):
            if list(x) == list(ds.feature_names):
                full.append(tuple(x))
            return mi(ds, x, y)

        monkeypatch.setattr(mdata, "mutual_information", counting)
        report = analyze(ex1_with_noise)
        assert len(full) == 1
        assert report.dmi_per_feature == {f: dmi(ex1_with_noise, [f])
                                          for f in ex1_with_noise.feature_names}

    def test_report_serializes(self, ex1_with_noise):
        doc = analyze(ex1_with_noise).to_dict()
        assert doc["relevance"]["x5"]["level"] == IRRELEVANT
        assert doc["markov_blankets"]["x4"] == [["x1"]]
        assert doc["epsilon"] == 1e-9
