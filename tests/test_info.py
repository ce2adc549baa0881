import ast
import builtins
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import miselect
from miselect import data as mdata
from miselect import (
    JointDistribution,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    interaction_information,
    joint_mi_by_decomposition,
    mutual_information,
    total_correlation,
)

from conftest import H_C, I_X1_C, compensated_sum, random_distribution

APPROX = dict(abs=1e-9)


def fair_coin():
    return JointDistribution(("x",), (2,), {(0,): 0.5, (1,): 0.5})


def coin_with_copy():
    return JointDistribution(("x", "y"), (2, 2), {(0, 0): 0.5, (1, 1): 0.5})


def independent_pair():
    mass = {(i, j): 0.5 * (0.3 if j == 0 else 0.7) for i in (0, 1) for j in (0, 1)}
    return JointDistribution(("x", "y"), (2, 2), mass)


class TestEntropy:
    def test_fair_binary_is_one_bit(self):
        assert entropy(fair_coin(), "x") == pytest.approx(1.0, **APPROX)

    def test_constant_variable_is_zero(self):
        d = JointDistribution(("x",), (3,), {(1,): 1.0})
        assert entropy(d, "x") == 0.0

    def test_example1_class_entropy(self, ex1):
        dist, _ = ex1
        assert entropy(dist, "C") == pytest.approx(H_C, **APPROX)

    def test_empty_vars_rejected(self, ex1):
        with pytest.raises(ValueError):
            entropy(ex1[0], [])

    def test_unknown_variable_rejected(self, ex1):
        with pytest.raises(ValueError):
            entropy(ex1[0], ["nope"])

    def test_repeated_name_rejected(self, ex1):
        with pytest.raises(ValueError, match="variable sets overlap on 'x1'"):
            entropy(ex1[0], ["x1", "x1"])


class TestConditionalEntropy:
    def test_self_overlap_rejected(self, ex1):
        with pytest.raises(ValueError, match="overlap"):
            conditional_entropy(ex1[0], "x1", "x1")

    def test_copy_leaves_no_uncertainty(self):
        assert conditional_entropy(coin_with_copy(), "x", "y") == 0.0

    def test_independence_gives_marginal_entropy(self):
        d = independent_pair()
        assert conditional_entropy(d, "x", "y") == pytest.approx(
            entropy(d, "x"), **APPROX)

    def test_example1_class_given_x1(self, ex1):
        assert conditional_entropy(ex1[0], "C", "x1") == pytest.approx(0.5, **APPROX)

    def test_matches_joint_entropy_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = random_distribution(rng, [2, 3, 2])
            direct = conditional_entropy(d, ["v0"], ["v1", "v2"])
            via_joint = entropy(d, ["v0", "v1", "v2"]) - entropy(d, ["v1", "v2"])
            assert direct == pytest.approx(via_joint, **APPROX)


class TestMutualInformation:
    def test_independent_is_zero(self):
        assert mutual_information(independent_pair(), "x", "y") == 0.0

    def test_copy_gives_marginal_entropy(self):
        d = coin_with_copy()
        assert mutual_information(d, "x", "y") == pytest.approx(
            entropy(d, "x"), **APPROX)

    def test_example1_pair_values(self, ex1):
        dist, _ = ex1
        assert mutual_information(dist, "x2", "C") == 0.0
        assert mutual_information(dist, ["x2", "x3"], "C") == pytest.approx(
            I_X1_C, **APPROX)

    def test_overlap_rejected(self, ex1):
        with pytest.raises(ValueError, match="overlap"):
            mutual_information(ex1[0], ["x1", "x2"], ["x2"])

    def test_identities_and_bounds_on_random_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = random_distribution(rng, [3, 2, 2], sparsity=0.3)
            i_direct = mutual_information(d, ["v0"], ["v1", "v2"])
            hx = entropy(d, "v0")
            hy = entropy(d, ["v1", "v2"])
            hxy = entropy(d, ["v0", "v1", "v2"])
            assert i_direct == pytest.approx(hx + hy - hxy, **APPROX)
            assert i_direct == pytest.approx(
                hx - conditional_entropy(d, "v0", ["v1", "v2"]), **APPROX)
            assert i_direct == pytest.approx(
                hy - conditional_entropy(d, ["v1", "v2"], "v0"), **APPROX)
            assert 0 <= i_direct <= min(hx, hy) + 1e-9
            # joint-entropy sandwich
            assert max(hx, hy) - 1e-9 <= hxy <= hx + hy + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_distribution(rng, [3, 3])
            assert mutual_information(d, "v0", "v1") == pytest.approx(
                mutual_information(d, "v1", "v0"), **APPROX)


class TestConditionalMutualInformation:
    def test_empty_conditioning_reduces_to_mi(self, ex1):
        dist, _ = ex1
        assert conditional_mutual_information(dist, "x1", "C", []) == pytest.approx(
            mutual_information(dist, "x1", "C"), **APPROX)

    def test_xor_pair_unlocked_by_partner(self, ex1):
        assert conditional_mutual_information(ex1[0], "x2", "C", "x3") == pytest.approx(
            I_X1_C, **APPROX)

    def test_duplicate_is_useless_given_original(self, ex1):
        assert conditional_mutual_information(ex1[0], "x4", "C", "x1") == 0.0

    def test_chain_rule_over_bipartitions(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            d = random_distribution(rng, [2, 2, 2, 2, 2],
                                    names=["a", "b", "c", "d", "y"])
            feats = ["a", "b", "c", "d"]
            full = mutual_information(d, feats, "y")
            for size in range(len(feats) + 1):
                for s in itertools.combinations(feats, size):
                    rest = [f for f in feats if f not in s]
                    lhs = 0.0
                    if s:
                        lhs += mutual_information(d, list(s), "y")
                    if rest:
                        lhs += conditional_mutual_information(d, rest, "y", list(s))
                    assert lhs == pytest.approx(full, **APPROX)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = random_distribution(rng, [2, 3, 2], sparsity=0.4)
            assert conditional_mutual_information(d, "v0", "v1", "v2") >= 0.0


class TestInteractionInformation:
    def test_needs_two_groups(self, ex1):
        with pytest.raises(ValueError):
            interaction_information(ex1[0], [["x1"]])

    def test_overlap_rejected(self, ex1):
        with pytest.raises(ValueError, match="overlap"):
            interaction_information(ex1[0], [["x1"], ["x1", "x2"]])

    def test_empty_group_rejected(self, ex1):
        with pytest.raises(ValueError, match="groups must be nonempty"):
            interaction_information(ex1[0], [["x1"], []])

    def test_two_groups_is_plain_mi(self, ex1):
        dist, _ = ex1
        assert interaction_information(dist, [["x2", "x3"], ["C"]]) == pytest.approx(
            mutual_information(dist, ["x2", "x3"], "C"), **APPROX)

    def test_example1_signs(self, ex1):
        dist, _ = ex1
        assert interaction_information(dist, [["x2"], ["x3"], ["C"]]) == pytest.approx(
            I_X1_C, **APPROX)
        assert interaction_information(dist, [["x1"], ["x4"], ["C"]]) == pytest.approx(
            -I_X1_C, **APPROX)
        assert interaction_information(dist, [["x1"], ["x2"], ["C"]]) == 0.0

    def test_three_way_matches_textbook_form(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = random_distribution(rng, [2, 3, 2])
            lhs = interaction_information(d, [["v0"], ["v1"], ["v2"]])
            rhs = (mutual_information(d, ["v0", "v1"], "v2")
                   - mutual_information(d, "v0", "v2")
                   - mutual_information(d, "v1", "v2"))
            assert lhs == pytest.approx(rhs, **APPROX)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            d = random_distribution(rng, [2, 2, 2, 2])
            groups = [["v0"], ["v1"], ["v2"], ["v3"]]
            base = interaction_information(d, groups)
            for perm in itertools.permutations(groups):
                assert interaction_information(d, list(perm)) == pytest.approx(
                    base, **APPROX)


class TestTotalCorrelation:
    def test_singleton_rejected(self, ex1):
        with pytest.raises(ValueError):
            total_correlation(ex1[0], ["x1"])

    def test_repeated_name_rejected(self, ex1):
        with pytest.raises(ValueError, match="variable sets overlap on 'x1'"):
            total_correlation(ex1[0], ["x1", "x1"])

    def test_independent_variables_are_uncorrelated(self):
        assert total_correlation(independent_pair(), ["x", "y"]) == 0.0

    def test_two_copies_of_a_fair_coin(self):
        assert total_correlation(coin_with_copy(), ["x", "y"]) == pytest.approx(
            1.0, **APPROX)

    def test_example1_triple(self, ex1):
        assert total_correlation(ex1[0], ["x1", "x4", "C"]) == pytest.approx(
            1.0 + I_X1_C, **APPROX)

    def test_pair_case_is_mi(self, ex1):
        dist, _ = ex1
        assert total_correlation(dist, ["x1", "C"]) == pytest.approx(
            mutual_information(dist, "x1", "C"), **APPROX)

    def test_entropies_summed_in_order(self, monkeypatch):
        """sum_i H(f_i) is summed left to right, also where the builtin sum
        compensates float sums (Python 3.12 and later), which gives other
        last bits on some of these distributions."""
        dists = [random_distribution(np.random.default_rng(seed), [2, 3, 2, 3, 2])
                 for seed in range(10)]
        want, differs = [], []
        for d in dists:
            hs = [entropy(d, v) for v in d.variables]
            in_order = 0.0
            for h in hs:
                in_order += h
            want.append(in_order - entropy(d, d.variables))
            differs.append(in_order != math.fsum(hs))
        assert any(differs)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert [total_correlation(d, d.variables) for d in dists] == want


class TestJointMiDecomposition:
    def test_single_variable_reduces_to_mi(self, ex1):
        dist, _ = ex1
        assert joint_mi_by_decomposition(dist, ["x1"], "C") == pytest.approx(
            mutual_information(dist, "x1", "C"), **APPROX)

    def test_example1_xor_pair(self, ex1):
        assert joint_mi_by_decomposition(ex1[0], ["x2", "x3"], "C") == pytest.approx(
            I_X1_C, **APPROX)

    def test_size_bound(self, ex1):
        dist = JointDistribution(
            tuple(f"v{i}" for i in range(14)), (1,) * 14, {(0,) * 14: 1.0})
        with pytest.raises(ValueError, match="limited"):
            joint_mi_by_decomposition(dist, [f"v{i}" for i in range(13)], "v13")

    def test_no_variables_rejected(self, ex1):
        with pytest.raises(ValueError, match="vars must be nonempty"):
            joint_mi_by_decomposition(ex1[0], [], "C")

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_direct_joint_mi(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(10):
            d = random_distribution(rng, [2] * m + [2], sparsity=0.3)
            feats = [f"v{i}" for i in range(m)]
            assert joint_mi_by_decomposition(d, feats, f"v{m}") == pytest.approx(
                mutual_information(d, feats, f"v{m}"), **APPROX)


def test_relabeling_invariance():
    # bijective recoding of any variable's states leaves every measure unchanged
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = random_distribution(rng, [3, 2, 2])
        perm = list(rng.permutation(3))
        mass = {(perm[s[0]], s[1], s[2]): p for s, p in d.mass.items()}
        d2 = JointDistribution(d.variables, d.cardinalities, mass)
        assert entropy(d2, "v0") == pytest.approx(entropy(d, "v0"), abs=1e-12)
        assert mutual_information(d2, "v0", "v1") == pytest.approx(
            mutual_information(d, "v0", "v1"), abs=1e-12)
        assert conditional_mutual_information(d2, "v0", "v1", "v2") == pytest.approx(
            conditional_mutual_information(d, "v0", "v1", "v2"), abs=1e-12)
        assert interaction_information(d2, [["v0"], ["v1"], ["v2"]]) == pytest.approx(
            interaction_information(d, [["v0"], ["v1"], ["v2"]]), abs=1e-12)


def test_measures_take_a_dataset(ex1):
    """On a Dataset, info's H, I and CMI equal the plug-in measures of
    `miselect.data` by ==, and the composite measures, which call them,
    equal their values on example1's distribution, of which the Dataset is
    the truth table."""
    dist, ds = ex1
    names = [*ds.feature_names, ds.target_name]
    for x, y, z in itertools.permutations(names, 3):
        assert entropy(ds, [x, y]) == mdata.entropy(ds, [x, y])
        assert mutual_information(ds, x, [y, z]) == mdata.mutual_information(ds, x, [y, z])
        assert conditional_mutual_information(ds, x, y, z) == \
            mdata.conditional_mutual_information(ds, x, y, z)
        assert conditional_entropy(ds, x, [y, z]) == pytest.approx(
            conditional_entropy(dist, x, [y, z]), **APPROX)
        assert interaction_information(ds, [[x], [y], [z]]) == pytest.approx(
            interaction_information(dist, [[x], [y], [z]]), **APPROX)
        assert total_correlation(ds, [x, y, z]) == pytest.approx(
            total_correlation(dist, [x, y, z]), **APPROX)
    feats = list(ds.feature_names)
    assert joint_mi_by_decomposition(ds, feats, ds.target_name) == pytest.approx(
        joint_mi_by_decomposition(dist, feats, ds.target_name), **APPROX)


# The counting kernel's steps, which only `info._row_tables` may call: every
# H, I and CMI, per call or as a row, is counted there.
KERNEL_STEPS = {"_count_codes", "_count_planes", "_layout", "_rows"}


def _kernel_references(tree):
    """(top-level name, kernel step) for each reference to a kernel step in a
    module: a bare name, `info.step` or `_info.step`, or an imported name."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name = node.attr if node.value.id in ("info", "_info") else None
            else:
                name = node.name if isinstance(node, ast.alias) else None
            if name in KERNEL_STEPS:
                yield getattr(top, "name", None), name


def test_counting_has_one_entry_point():
    found = {}
    for path in sorted(Path(miselect.__file__).parent.glob("*.py")):
        for where, name in _kernel_references(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault((path.name, where), set()).add(name)
    assert found == {("info.py", "_row_tables"): KERNEL_STEPS}
