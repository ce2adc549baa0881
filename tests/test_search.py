import json
import warnings

import numpy as np
import pytest

from miselect import (
    CriterionSpec,
    SyntheticSpec,
    backward_eliminate,
    example1,
    forward_select,
    generate,
    plus_l_take_away_r,
    score_all,
)
from miselect import data as mdata
from miselect import search, structure

from conftest import H_C


class TestForwardSelect:
    def test_md_solves_example1(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("md"), ds, k=3)
        assert trace.selected == ("x1", "x2", "x3")
        assert trace.stop_reason == "reached-k"
        assert mdata.mutual_information(ds, list(trace.selected), ["C"]) == \
            pytest.approx(H_C, abs=1e-9)
        # x2 wins the step-2 tie among {x2,x3,x4}
        assert trace.steps[1].ties == ("x2", "x3", "x4")

    def test_mim_picks_the_redundant_pair(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("mim"), ds, k=2)
        assert trace.selected == ("x1", "x4")

    def test_k_equal_m_exhausts_features(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("jmi"), ds, k=4)
        assert sorted(trace.selected) == ["x1", "x2", "x3", "x4"]

    def test_invalid_k(self):
        _, ds = example1()
        with pytest.raises(ValueError):
            forward_select(CriterionSpec("mim"), ds, k=0)
        with pytest.raises(ValueError):
            forward_select(CriterionSpec("mim"), ds, k=5)

    def test_threshold_stop(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("mrmr"), ds, threshold=0.1)
        assert trace.stop_reason == "threshold"
        # after x1 the best mrmr score is 0 (x2/x3 add nothing one at a time,
        # x4 is pure redundancy), which is below the threshold
        assert trace.selected == ("x1",)

    def test_default_threshold_without_k(self):
        # with neither k nor threshold the search stops below 1e-6 bits:
        # alone, each XOR member and the noise column carry no MI about C
        ds, _ = generate(SyntheticSpec(relevant=1, xor_groups=1, noise=1, exhaustive=True))
        trace = forward_select(CriterionSpec("mim"), ds)
        assert trace.meta["threshold"] == search.DEFAULT_THRESHOLD == 1e-6
        assert trace.stop_reason == "threshold"
        assert trace.selected == ("x1",)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_threshold_must_be_finite(self, threshold):
        _, ds = example1()
        with pytest.raises(ValueError, match="threshold must be finite"):
            forward_select(CriterionSpec("mrmr"), ds, threshold=threshold)

    def test_replay_reproduces_selection(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("jmi"), ds, k=3)
        assert trace.replay() == trace.selected

    def test_chosen_attains_extremum_and_ties_recorded(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("md"), ds, k=4)
        for step in trace.steps:
            best = max(step.scores.values())
            assert step.scores[step.chosen] == pytest.approx(best, abs=1e-9)
            for f, v in step.scores.items():
                assert (f in step.ties) == (abs(v - best) <= 1e-9)

    def test_md_joint_mi_is_monotone(self):
        rng = np.random.default_rng(12)
        from conftest import random_dataset
        ds = random_dataset(rng, n=200, m=6)
        trace = forward_select(CriterionSpec("md"), ds, k=6)
        prev = 0.0
        for t in range(1, 7):
            cur = mdata.mutual_information(ds, list(trace.selected[:t]),
                                           [ds.target_name])
            assert cur >= prev - 1e-9
            prev = cur

    def test_md_step_equals_cmi_argmax(self):
        # the forward MD rule and the conditional-MI rule pick the same ties
        _, ds = example1()
        trace = forward_select(CriterionSpec("md"), ds, k=4)
        S = []
        for step in trace.steps:
            cmi_scores = {
                f: mdata.conditional_mutual_information(ds, [f], ["C"], S)
                for f in ds.feature_names if f not in S
            }
            best = max(cmi_scores.values())
            cmi_ties = tuple(sorted(
                (f for f, v in cmi_scores.items() if abs(v - best) <= 1e-9),
                key=ds.column_index))
            assert cmi_ties == step.ties
            S.append(step.chosen)


class TestBackwardEliminate:
    def test_only_md_supported(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="MD"):
            backward_eliminate(CriterionSpec("jmi"), ds, k=2)

    def test_example1_drops_a_duplicate(self):
        _, ds = example1()
        trace = backward_eliminate(CriterionSpec("md"), ds, k=3)
        assert trace.steps[0].chosen == "x1"  # x1/x4 tie, lowest index removed
        assert set(trace.selected) == {"x2", "x3", "x4"}
        assert mdata.mutual_information(ds, list(trace.selected), ["C"]) == \
            pytest.approx(H_C, abs=1e-9)

    def test_k_equal_m_removes_nothing(self):
        _, ds = example1()
        trace = backward_eliminate(CriterionSpec("md"), ds, k=4)
        assert trace.steps == ()
        assert trace.selected == ds.feature_names
        assert trace.replay() == ds.feature_names

    def test_replay_starts_from_full_set(self):
        _, ds = example1()
        trace = backward_eliminate(CriterionSpec("md"), ds, k=2)
        assert trace.start == ds.feature_names
        assert trace.replay() == trace.selected
        assert "start" not in trace.to_dict()

    def test_noise_column_removed_first(self):
        ds, roles = generate(SyntheticSpec(relevant=2, noise=1, exhaustive=True))
        noise_cols = [f for f, role in roles.items() if role == "noise"]
        trace = backward_eliminate(CriterionSpec("md"), ds, k=ds.m - 1)
        assert trace.steps[0].chosen in noise_cols


class TestPlusLTakeAwayR:
    def test_l_equals_r_rejected(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="net progress"):
            plus_l_take_away_r(CriterionSpec("mim"), ds, l=1, r=1, k=2)

    def test_unreachable_k_rejected(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="unreachable"):
            plus_l_take_away_r(CriterionSpec("mim"), ds, l=3, r=1, k=3)

    def test_k_unreachable_from_the_full_set_rejected(self):
        _, ds = example1()   # 4 columns: removing 2 net per round never leaves 1
        with pytest.raises(ValueError, match="k=1 unreachable with net step 2 from the full set"):
            plus_l_take_away_r(CriterionSpec("md"), ds, l=0, r=2, k=1)

    @pytest.mark.parametrize("l, r", [(-1, 1), (2, -1)])
    def test_negative_l_or_r_rejected(self, l, r):
        _, ds = example1()
        with pytest.raises(ValueError, match="l and r must be non-negative"):
            plus_l_take_away_r(CriterionSpec("md"), ds, l=l, r=r, k=1)

    def test_remove_from_an_empty_set_is_skipped(self):
        # r = 4 removes on 3 columns: the fourth finds S empty and makes no
        # step, then the two adds run; the next round ends on the same S
        ds, _ = generate(SyntheticSpec(relevant=1, xor_groups=1, exhaustive=True))
        trace = plus_l_take_away_r(CriterionSpec("md"), ds, l=2, r=4, k=1)
        directions = [s.direction for s in trace.steps]
        assert directions[:5] == ["remove"] * 3 + ["add"] * 2
        assert trace.stop_reason == "exhausted"
        assert len(trace.selected) == 2
        assert trace.replay() == trace.selected

    def test_degenerate_forward(self):
        _, ds = example1()
        for k in (1, 3, 4):
            a = plus_l_take_away_r(CriterionSpec("jmi"), ds, l=1, r=0, k=k)
            b = forward_select(CriterionSpec("jmi"), ds, k=k)
            assert a.steps == b.steps  # scores and ties too
            assert (a.selected, a.stop_reason) == (b.selected, b.stop_reason)

    def test_degenerate_backward(self):
        _, ds = example1()
        for k in (1, 2, ds.m):
            a = plus_l_take_away_r(CriterionSpec("md"), ds, l=0, r=1, k=k)
            b = backward_eliminate(CriterionSpec("md"), ds, k=k)
            assert a.steps == b.steps  # scores and ties too
            assert (a.selected, a.stop_reason) == (b.selected, b.stop_reason)

    @pytest.mark.parametrize("l, r", [(0, 1), (1, 2), (2, 5)])
    def test_shrinking_to_k_equal_m_makes_no_step(self, l, r):
        ds, _ = generate(SyntheticSpec(relevant=2, xor_groups=1, noise=2,
                                       exhaustive=True))
        trace = plus_l_take_away_r(CriterionSpec("md"), ds, l=l, r=r, k=ds.m)
        assert trace.steps == ()
        assert trace.stop_reason == "reached-k"
        assert trace.selected == ds.feature_names
        assert trace.replay() == trace.selected

    def test_exhausted_add_does_not_end_the_round(self):
        # l = 5 adds run out of candidates after four; the round's remove
        # still runs, so each later round adds one back and removes one
        _, ds = example1()
        trace = plus_l_take_away_r(CriterionSpec("mim"), ds, l=5, r=1, k=4)
        directions = [s.direction for s in trace.steps]
        assert directions[:5] == ["add"] * 4 + ["remove"]
        assert trace.stop_reason == "exhausted"
        assert len(trace.selected) == 3
        assert trace.replay() == trace.selected

    def test_removal_step_fixes_mim_redundancy(self):
        _, ds = example1()
        trace = plus_l_take_away_r(CriterionSpec("mim"), ds, l=2, r=1, k=2)
        assert set(trace.selected) != {"x1", "x4"}
        assert len(trace.selected) == 2
        assert set(trace.selected) & {"x1", "x4"}
        directions = [s.direction for s in trace.steps]
        assert "remove" in directions  # unlike pure forward traces

    def test_shrinking_trace_replays(self):
        ds, _ = generate(SyntheticSpec(relevant=2, xor_groups=1, noise=2,
                                       exhaustive=True))
        trace = plus_l_take_away_r(CriterionSpec("md"), ds, l=1, r=2, k=3)
        assert trace.start == ds.feature_names
        assert trace.replay() == trace.selected

    def test_growing_trace_starts_empty(self):
        _, ds = example1()
        trace = plus_l_take_away_r(CriterionSpec("mim"), ds, l=2, r=1, k=2)
        assert trace.start == ()
        assert trace.replay() == trace.selected

    def test_forward_traces_never_remove(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("mim"), ds, k=3)
        assert all(s.direction == "add" for s in trace.steps)


class TestTraceSerialization:
    def test_json_round_trip(self):
        _, ds = example1()
        trace = forward_select(CriterionSpec("md"), ds, k=2)
        doc = json.loads(trace.to_json())
        assert doc["selected"] == ["x1", "x2"]
        assert doc["stop_reason"] == "reached-k"
        assert doc["steps"][0]["direction"] == "add"
        assert set(doc["steps"][0]["scores"]) == {"x1", "x2", "x3", "x4"}
        assert doc["steps"][0]["ties"] == ["x1", "x4"]

    def test_determinism(self):
        _, ds = example1()
        a = forward_select(CriterionSpec("jmi"), ds, k=3).to_json()
        b = forward_select(CriterionSpec("jmi"), ds, k=3).to_json()
        assert a == b


class TestBoardReuse:
    """An add at the S of the last add, as after a remove that takes that add
    back, gives the last board again instead of scoring it anew."""

    SPEC = SyntheticSpec(n=2000, relevant=3, xor_groups=2, redundant_copies=3, noise=20,
                         flip_prob=0.05, seed=1)

    @staticmethod
    def _adds(trace):
        """The S before each add step, from the trace."""
        S, out = list(trace.start), []
        for step in trace.steps:
            if step.direction == "add":
                out.append(tuple(S))
                S.append(step.chosen)
            else:
                S.remove(step.chosen)
        return out

    @pytest.mark.parametrize("kind, reused", [("md", 6), ("jmi", 2)])
    def test_scores_once_per_distinct_selected_set(self, kind, reused, monkeypatch):
        ds, _ = generate(self.SPEC)
        scored = []
        score_all = search.score_all

        def counting(spec, candidates, S, *args, **kwargs):
            scored.append(tuple(S))
            return score_all(spec, candidates, S, *args, **kwargs)
        monkeypatch.setattr(search, "score_all", counting)
        trace = plus_l_take_away_r(CriterionSpec(kind), ds, l=2, r=1, k=8)
        adds = self._adds(trace)
        assert len(adds) == 16 and len(adds) - len(set(adds)) == reused
        assert scored == list(dict.fromkeys(adds))
        # JMI's scores keep each pair's first orientation in the search's cache
        if kind == "md":
            for S, step in zip(adds, (st for st in trace.steps if st.direction == "add")):
                candidates = [f for f in ds.feature_names if f not in S]
                assert step.scores == score_all(CriterionSpec(kind), candidates, S, ds).scores

    def test_reused_board_warns_again(self):
        """MMD's sparse-support warnings of a reused board come again, in
        order: the search warns what scoring each add anew would."""
        ds, _ = generate(SyntheticSpec(n=60, relevant=2, xor_groups=1, noise=5, seed=3))
        spec = CriterionSpec("mmd")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = plus_l_take_away_r(spec, ds, l=2, r=1, k=4)
        got = [str(w.message) for w in caught]
        adds = self._adds(trace)
        assert len(set(adds)) < len(adds)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for S in adds:
                score_all(spec, [f for f in ds.feature_names if f not in S], S, ds)
        want = [str(w.message) for w in caught]
        assert want and got == want
