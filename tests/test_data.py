import csv

import numpy as np
import pytest

from miselect import (
    Dataset,
    QuantizerSpec,
    composite_view,
    empirical_distribution,
    example1,
    load_csv,
)
from miselect import data as mdata
from miselect.data import quantize_column

EX1_CSV = """x1,x2,x3,x4,C
0,0,0,0,0
1,0,0,1,1
0,1,0,0,1
1,1,0,1,1
0,0,1,0,1
1,0,1,1,1
0,1,1,0,0
1,1,1,1,1
"""


@pytest.fixture()
def ex1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    path.write_text(EX1_CSV)
    return path


class TestQuantizerSpec:
    def test_bins_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            QuantizerSpec("equal-width", bins=1)

    def test_pass_through_ignores_bins(self):
        QuantizerSpec("pass-through", bins=1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            QuantizerSpec("magic")


class TestQuantizeColumn:
    def test_equal_frequency_balanced_bins(self):
        rng = np.random.default_rng(0)
        for n in (10, 23, 100):
            values = rng.permutation(np.linspace(0, 1, n))
            codes, card = quantize_column(values, QuantizerSpec("equal-frequency", 5))
            counts = np.bincount(codes, minlength=card)
            assert counts.max() - counts.min() <= 1

    def test_equal_width_edges(self):
        values = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        codes, card = quantize_column(values, QuantizerSpec("equal-width", 2))
        assert list(codes) == [0, 0, 1, 1, 1]

    def test_constant_column_single_code(self):
        codes, card = quantize_column(np.full(10, 3.7), QuantizerSpec("equal-width", 5))
        assert card == 1 and set(codes) == {0}

    def test_pass_through_requires_integers(self):
        with pytest.raises(ValueError):
            quantize_column(np.array([0.5, 1.0]), QuantizerSpec("pass-through"))


class TestLoadCsv:
    def test_example1_roundtrip(self, ex1_csv):
        ds = load_csv(ex1_csv, "C", QuantizerSpec("pass-through"))
        assert ds.n == 8 and ds.m == 4 and ds.class_card == 2
        _, ref = example1()
        assert np.array_equal(np.sort(ds.features, axis=0),
                              np.sort(ref.features, axis=0))

    def test_missing_target(self, ex1_csv):
        with pytest.raises(ValueError, match="target"):
            load_csv(ex1_csv, "label")

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,C\n1,2,0\n1,2\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(p, "C")

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,C\n1,0\n,1\n")
        with pytest.raises(ValueError, match="missing value"):
            load_csv(p, "C")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, token):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"a,b,C\n1.0,0.5,0\n{token},1.5,1\n2.0,2.5,0\n3.0,0.1,1\n")
        with pytest.raises(ValueError, match="non-finite value .* in column 'a'"):
            load_csv(p, "C", QuantizerSpec("equal-width", 2))

    @pytest.mark.parametrize("token", ["NA", "na", "N/A", "null", "None"])
    def test_missing_token_in_numeric_column_rejected(self, tmp_path, token):
        p = tmp_path / "na.csv"
        p.write_text(f"a,C\n1,0\n10,1\n{token},0\n2,1\n")
        with pytest.raises(ValueError, match=f"missing value '{token}' in numeric column 'a'"):
            load_csv(p, "C")

    def test_missing_token_in_string_column_is_a_label(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("a,C\nred,0\nNA,1\nblue,0\n")
        ds = load_csv(p, "C")
        assert list(ds.features[:, 0]) == [2, 0, 1]

    def test_byte_order_mark_ignored(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("C,x1\n0,0\n1,1\n1,0\n", encoding="utf-8-sig")
        ds = load_csv(p, "C", QuantizerSpec("pass-through"))
        assert ds.target_name == "C" and ds.feature_names == ("x1",)
        assert list(ds.class_codes) == [0, 1, 1]

    def test_string_column_lexicographic(self, tmp_path):
        p = tmp_path / "str.csv"
        p.write_text("color,C\nred,0\nblue,1\ngreen,0\nred,1\n")
        ds = load_csv(p, "C")
        j = ds.column_index("color")
        # blue=0, green=1, red=2
        assert list(ds.features[:, j]) == [2, 0, 1, 2]
        assert ds.feature_cards[j] == 3

    def test_numbers_parse_as_float_does(self, tmp_path):
        """Whitespace around a number, digit separators and non-ASCII
        digits read as numbers; only a column that fails to parse as a
        whole is read token by token."""
        p = tmp_path / "float.csv"
        p.write_text("a,b,C\n 1 ,1_000,0\n\t2\u00a0,\u0662,1\n3,\u0663 ,0\n",
                     encoding="utf-8")
        ds = load_csv(p, "C", QuantizerSpec("pass-through"))
        assert ds.feature_cards == (3, 3)
        assert list(ds.features[:, 0]) == [0, 1, 2]
        assert list(ds.features[:, 1]) == [2, 0, 1]

    def test_non_finite_token_reported_stripped(self, tmp_path):
        p = tmp_path / "nonfinite.csv"
        p.write_text("a,C\n1,0\n  inf ,1\n2,0\n")
        with pytest.raises(ValueError, match="non-finite value 'inf' in column 'a'"):
            load_csv(p, "C")

    def test_empty_reported_before_missing_token(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("a,C\n1,0\nNA,1\n ,0\n2,1\n")
        with pytest.raises(ValueError, match="^missing value in column 'a'$"):
            load_csv(p, "C")

    def test_unparsable_line_names_the_line(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("a,C\n1,0\n" + "x" * (csv.field_size_limit() + 1) + ",1\n")
        with pytest.raises(ValueError, match="CSV line 3: field larger than field limit"):
            load_csv(p, "C")

    @pytest.mark.parametrize("header", ["a,C,C", "a, C ,C", "b,a,C,b"])
    def test_repeated_header_name_rejected(self, tmp_path, header):
        repeated = "b" if header.startswith("b") else "C"
        p = tmp_path / "repeat.csv"
        width = header.count(",") + 1
        p.write_text(header + "\n" + ",".join(["1"] * width) + "\n")
        with pytest.raises(ValueError, match=f"column name '{repeated}' repeated"):
            load_csv(p, "C")

    def test_target_only_header_rejected(self, tmp_path):
        p = tmp_path / "target.csv"
        p.write_text("C\n0\n1\n")
        with pytest.raises(ValueError, match="^CSV has no feature columns$"):
            load_csv(p, "C")

    def test_constant_column_cardinality_one(self, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("a,b,C\n5,1,0\n5,2,1\n5,3,0\n")
        ds = load_csv(p, "C", QuantizerSpec("pass-through"))
        assert ds.feature_cards[ds.column_index("a")] == 1
        assert mdata.mutual_information(ds, ["a"], ["C"]) == 0.0


class TestDataset:
    def test_immutable_arrays(self, ex1_csv):
        ds = load_csv(ex1_csv, "C", QuantizerSpec("pass-through"))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(np.array([[3]]), np.array([0]), (2,), 2, ("a",), "C")

    def test_codes_narrow_column_major_read_only(self):
        rng = np.random.default_rng(1)
        feats = rng.integers(0, 5, size=(10_000, 100))
        cls = rng.integers(0, 2, size=10_000)
        ds = Dataset(feats, cls, (5,) * 100, 2, tuple(f"f{j}" for j in range(100)), "y")
        assert ds.features.shape == (10_000, 100)
        assert ds.features.flags.f_contiguous
        assert ds.features.dtype == np.int8 and ds.class_codes.dtype == np.int8
        assert ds.features.nbytes == 1_000_000
        assert not ds.features.flags.writeable and not ds.class_codes.flags.writeable
        assert np.array_equal(ds.features, feats) and np.array_equal(ds.class_codes, cls)
        assert ds.codes("f3")[0].flags.c_contiguous
        assert feats.flags.writeable  # the caller's array is copied, not frozen

    @pytest.mark.parametrize("card, dtype", [
        (127, np.int8), (128, np.int16), (2**15, np.int32), (2**31, np.int64),
        (2**60, np.int64)])
    def test_narrowest_signed_dtype_holding_cardinality(self, card, dtype):
        ds = Dataset(np.array([[0, 1], [1, 0]]), np.array([0, 1]), (2, card), card,
                     ("a", "b"), "C")
        assert ds.features.dtype == dtype and ds.class_codes.dtype == dtype


class TestEmpiricalDistribution:
    def test_example1_marginal(self):
        _, ds = example1()
        d = empirical_distribution(ds, ["x1"])
        assert d.mass == {(0,): 0.5, (1,): 0.5}
        assert d.origin == "empirical" and d.sample_count == 8

    def test_support_bounded_by_n(self):
        rng = np.random.default_rng(1)
        feats = rng.integers(0, 4, size=(30, 5))
        ds = Dataset(feats, rng.integers(0, 2, 30), (4,) * 5, 2,
                     tuple("abcde"), "C")
        d = empirical_distribution(ds, list("abcde"))
        assert len(d.mass) <= 30

    def test_duplicated_rows_same_distribution(self):
        _, ds = example1()
        doubled = Dataset(np.vstack([ds.features, ds.features]),
                          np.concatenate([ds.class_codes, ds.class_codes]),
                          ds.feature_cards, ds.class_card,
                          ds.feature_names, ds.target_name)
        a = empirical_distribution(ds, ["x1", "C"])
        b = empirical_distribution(doubled, ["x1", "C"])
        assert a.mass == pytest.approx(b.mass)


class TestCompositeView:
    def test_xor_pair_has_four_codes(self):
        _, ds = example1()
        _, card = composite_view(ds, ["x2", "x3"])
        assert card == 4

    def test_duplicate_pair_has_two_codes(self):
        _, ds = example1()
        _, card = composite_view(ds, ["x1", "x4"])
        assert card == 2

    def test_singleton_identity(self):
        _, ds = example1()
        codes, card = composite_view(ds, ["x1"])
        assert card == 2
        assert np.array_equal(codes, ds.features[:, 0])

    def test_grouping_commutes_with_mi(self):
        # MI computed via composite codes equals MI from the joint distribution
        rng = np.random.default_rng(5)
        from miselect import mutual_information as dist_mi
        for _ in range(10):
            feats = rng.integers(0, 3, size=(40, 3))
            ds = Dataset(feats, rng.integers(0, 2, 40), (3, 3, 3), 2,
                         ("a", "b", "c"), "y")
            fast = mdata.mutual_information(ds, ["a", "b"], ["y"])
            exact = dist_mi(empirical_distribution(ds, ["a", "b", "y"]),
                            ["a", "b"], "y")
            assert fast == pytest.approx(exact, abs=1e-12)


class TestFastEstimators:
    def test_cmi_matches_distribution_route(self):
        rng = np.random.default_rng(8)
        from miselect import conditional_mutual_information as dist_cmi
        for _ in range(10):
            feats = rng.integers(0, 3, size=(50, 3))
            ds = Dataset(feats, rng.integers(0, 2, 50), (3, 3, 3), 2,
                         ("a", "b", "c"), "y")
            fast = mdata.conditional_mutual_information(ds, ["a"], ["y"], ["b", "c"])
            exact = dist_cmi(empirical_distribution(ds, ["a", "b", "c", "y"]),
                             "a", "y", ["b", "c"])
            assert fast == pytest.approx(exact, abs=1e-12)

    def test_entropy_matches_distribution_route(self):
        _, ds = example1()
        from miselect import entropy as dist_entropy
        assert mdata.entropy(ds, ["C"]) == pytest.approx(
            dist_entropy(empirical_distribution(ds, ["C"]), "C"), abs=1e-12)


class TestOverlapRejected:
    def test_mi_overlap(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="overlap"):
            mdata.mutual_information(ds, ["x1"], ["x1"])

    def test_cmi_condition_overlaps_x(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="overlap"):
            mdata.conditional_mutual_information(ds, ["x1", "x2"], ["C"], ["x2"])
