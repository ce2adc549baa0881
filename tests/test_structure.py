import tracemalloc
from collections import defaultdict

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
from miselect import structure
from miselect.structure import IRRELEVANT, STRONGLY_RELEVANT, WEAKLY_RELEVANT

from conftest import H_C, I_X1_C


@pytest.fixture(scope="module")
def ex1_with_noise():
    # the 8-row table extended with one independent binary column
    ds, roles = generate(SyntheticSpec(
        relevant=1, xor_groups=1, redundant_copies=1, noise=1, exhaustive=True))
    assert roles["x5"] == "noise"
    return ds


@pytest.fixture
def no_per_call_measures(monkeypatch):
    """Per-call MI and CMI raise: the analyses read only rows."""
    def per_call(*args):
        raise AssertionError("per-call measure")

    for name in ("mutual_information", "conditional_mutual_information"):
        monkeypatch.setattr(mdata, name, per_call)


@pytest.fixture
def rows(monkeypatch, no_per_call_measures):
    """Each row measured, as (target, candidates), in call order."""
    seen = []
    row = mdata.mutual_information_row

    def recording(ds, candidates, y, z=()):
        seen.append((tuple(y), list(candidates)))
        return row(ds, candidates, y, z)

    monkeypatch.setattr(mdata, "mutual_information_row", recording)
    return seen


def _holds_view(candidate) -> bool:
    return isinstance(candidate, tuple) and any(isinstance(v, mdata.View) for v in candidate)


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

    def test_other_features_measured_once(self, ex1_with_noise, rows):
        """F \\ x5 is coded once, as a View, and one row of I(x5; F \\ x5, C)
        and I(x5; F \\ x5) decides strong relevance.  The empty set is then a
        blanket of x5, so the walk skips every other subset: no more rows."""
        assert classify_relevance(ex1_with_noise, "x5").level == IRRELEVANT
        (target, cands), = rows
        view = cands[1][0]
        assert target == ("x5",)
        assert cands == [(view, "C"), (view,)]
        rest = mdata.composite_view(ex1_with_noise, ["x1", "x2", "x3", "x4"])
        assert (view.codes.tolist(), view.support) == (rest[0].tolist(), rest[1])

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

    def test_strongly_relevant_tests_one_blanket(self, rows):
        # x2 is strongly relevant, so the other features are no blanket and
        # neither is any subset of them: the one row of F \ x2 decides both
        _, ds = example1()
        assert classify_relevance(ds, "x2").level == STRONGLY_RELEVANT
        assert find_minimal_markov_blankets(ds, "x2") == []
        assert [(target, len(cands)) for target, cands in rows] == [(("x2",), 2)] * 2
        assert all(map(_holds_view, (c for _, cands in rows for c in cands)))

    @pytest.mark.parametrize("M,message", [
        (["x4"], "overlap on 'x4'"), (["C"], "overlap on 'C'"),
        (["x1", "x1"], "overlap on 'x1'"), (["zz"], "unknown column 'zz'")])
    def test_candidate_blanket_must_be_other_features(self, M, message):
        """M may hold neither f, the class, a repeated name nor an unknown one."""
        _, ds = example1()
        with pytest.raises(ValueError, match=message):
            is_markov_blanket(ds, "x4", M)

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

    def test_one_row_per_subset_size(self, rows):
        """I(F;C) is one row, and I(S;C) over all subsets of one size is one
        row, up to the first size with a sufficient subset (3 of example1's
        4 features); the empty set is measured by no row."""
        _, ds = example1()
        assert len(minimal_sufficient_subsets(ds)) == 2
        assert [target for target, _ in rows] == [("C",)] * 4
        full, *sizes = [cands for _, cands in rows]
        assert full == [ds.feature_names]
        assert [len(cands) for cands in sizes] == [4, 6, 4]
        assert all(len(S) == size for size, cands in enumerate(sizes, 1) for S in cands)

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


# each structure analysis, called on example1() with keyword arguments, and
# the parameters it takes
STRUCTURE_CALLS = {
    "classify_relevance": (lambda ds, **kw: classify_relevance(ds, "x2", **kw), ("eps",)),
    "is_markov_blanket": (lambda ds, **kw: is_markov_blanket(ds, "x4", ["x1"], **kw), ("eps",)),
    "find_minimal_markov_blankets": (
        lambda ds, **kw: find_minimal_markov_blankets(ds, "x4", **kw), ("eps",)),
    "minimal_sufficient_subsets": (minimal_sufficient_subsets, ("eps", "lagrange")),
    "analyze": (analyze, ("eps", "lagrange")),
}


@pytest.mark.parametrize("name,param,value", [
    (name, param, value)
    for name, (_, params) in STRUCTURE_CALLS.items() for param in params
    for value in (float("nan"), float("inf"), float("-inf"))
] + [(name, "eps", -1.0) for name in STRUCTURE_CALLS])
def test_structure_parameters_must_be_finite(name, param, value):
    """Every structure analysis rejects a non-finite or negative eps, and a
    non-finite lagrange where it takes one, before it decides anything."""
    _, ds = example1()
    call, _ = STRUCTURE_CALLS[name]
    message = "must be non-negative" if value == -1.0 else "must be finite"
    with pytest.raises(ValueError, match=message):
        call(ds, **{param: value})


class TestAnalyze:
    @pytest.mark.parametrize("param", [{"eps": float("nan")}, {"eps": float("inf")},
                                       {"lagrange": float("nan")},
                                       {"lagrange": float("-inf")}])
    def test_parameters_must_be_finite(self, ex1_with_noise, param):
        with pytest.raises(ValueError, match="must be finite"):
            analyze(ex1_with_noise, **param)

    def test_full_report_on_example1_with_noise(self, ex1_with_noise, no_per_call_measures):
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

    def test_full_set_mi_computed_once(self, ex1_with_noise, rows):
        F = ex1_with_noise.feature_names
        report = analyze(ex1_with_noise)
        assert [S for target, cands in rows for S in cands if S == F] == [F]
        assert report.dmi_per_feature == {f: dmi(ex1_with_noise, [f])
                                          for f in ex1_with_noise.feature_names}

    def test_other_features_tested_once_per_feature(self, ex1_with_noise, rows,
                                                     monkeypatch):
        """F \\ f is coded once per feature, and one row of it decides strong
        relevance and whether there are blankets to walk; no walk measures
        F \\ f again."""
        F = ex1_with_noise.feature_names
        coded = []
        view = mdata.composite_view
        monkeypatch.setattr(mdata, "composite_view",
                            lambda ds, vars: coded.append(tuple(vars)) or view(ds, vars))
        analyze(ex1_with_noise)
        assert sorted(coded) == sorted(tuple(v for v in F if v != f) for f in F)
        full = [target for target, cands in rows if any(map(_holds_view, cands))]
        assert sorted(full) == sorted((f,) for f in F)
        assert not [S for (f,), cands in rows if f != "C" for S in cands
                    if isinstance(S, tuple) and set(S) >= set(F) - {f}]

    def test_walk_skips_supersets_of_blankets(self, rows):
        """On the m=9 truth table each feature takes one row of F \\ f (two
        candidates).  The XOR pair is strongly relevant and the noise
        features stop at their empty blanket: no more rows.  Each duplicate
        then takes a witness row at size 0, where I(f;C) > 0, and one row
        per size of the subsets that are no superset of its twin: the twin,
        and the C(7, size) subsets that lack it.  276 subsets in 25 rows."""
        ds, _ = generate(SyntheticSpec(relevant=1, xor_groups=1, redundant_copies=1,
                                       noise=5, exhaustive=True))
        report = analyze(ds)
        assert report.markov_blankets["x5"] == ((),)
        assert report.markov_blankets["x1"] == (("x4",),)
        walks = defaultdict(list)
        for (target,), cands in rows:
            if target != ds.target_name:
                walks[target].append(len(cands))
        assert walks.pop("x1") == walks.pop("x4") == [2, 1, 8, 21, 35, 35, 21, 7, 1]
        assert walks == {f: [2] for f in ("x2", "x3", "x5", "x6", "x7", "x8", "x9")}

    def test_walk_stops_at_first_size_with_nothing_to_test(self, monkeypatch):
        """Each subset of a size past one whose subsets all hold a blanket
        holds one too, so the walk lists no later size: the noise feature
        x5 of the m=9 truth table, with the blanket (), lists sizes 0 and 1."""
        ds, _ = generate(SyntheticSpec(relevant=1, xor_groups=1, redundant_copies=1,
                                       noise=5, exhaustive=True))
        sizes = []
        combos = structure.combinations
        monkeypatch.setattr(structure, "combinations",
                            lambda names, size: sizes.append(size) or combos(names, size))
        assert find_minimal_markov_blankets(ds, "x5") == [()]
        assert sizes == [0, 1]

    @pytest.mark.parametrize("column,level,blankets", [
        ([0, 1, 0, 1], STRONGLY_RELEVANT, ()),
        ([0, 0, 1, 1], IRRELEVANT, ((),)),
    ])
    def test_one_feature(self, column, level, blankets, no_per_call_measures):
        """With one feature F \\ f is empty: I(f;C) alone decides it, and
        an irrelevant f has the empty blanket."""
        ds = Dataset(np.array(column).reshape(4, 1), np.array([0, 1, 0, 1]),
                     (2,), 2, ("a",), "C")
        report = analyze(ds)
        assert report.relevance == {"a": classify_relevance(ds, "a")}
        assert report.relevance["a"].level == level
        assert report.markov_blankets == {"a": blankets}
        assert find_minimal_markov_blankets(ds, "a") == list(blankets)
        assert is_markov_blanket(ds, "a", []) == (level == IRRELEVANT)

    def test_report_serializes(self, ex1_with_noise):
        doc = analyze(ex1_with_noise).to_dict()
        assert doc["relevance"]["x5"]["level"] == IRRELEVANT
        assert doc["markov_blankets"]["x4"] == [["x1"]]
        assert doc["epsilon"] == 1e-9
