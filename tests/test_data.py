import csv
import io
import tracemalloc
from unittest import mock

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
from miselect import info
from miselect.data import quantize_column

from conftest import random_dataset

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

    @pytest.mark.parametrize("values, codes", [
        ([-1e308, 0.0, 1e308, 0.0], [0, 1, 2, 1]),     # hi - lo overflows
        ([0.0, 5e-324, 1e-323], [0, 1, 2]),            # (hi - lo) / bins underflows to 0
        ([-1.7976931348623157e308, 1.7976931348623157e308], [0, 1]),
    ])
    def test_equal_width_extreme_ranges(self, values, codes):
        """Binned as on values scaled by a power of two: 5 bins over [lo, hi]
        put lo, the midpoint and hi in bins 0, 2 and 4, ranked 0, 1, 2."""
        got, card = quantize_column(np.array(values), QuantizerSpec("equal-width", 5))
        assert list(got) == codes and card == len(set(codes))

    def test_constant_column_single_code(self):
        codes, card = quantize_column(np.full(10, 3.7), QuantizerSpec("equal-width", 5))
        assert card == 1 and set(codes) == {0}

    def test_pass_through_requires_integers(self):
        with pytest.raises(ValueError):
            quantize_column(np.array([0.5, 1.0]), QuantizerSpec("pass-through"))

    @pytest.mark.parametrize("strategy", mdata.STRATEGIES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, strategy, bad):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_column([1.0, bad, 2.0, 3.0], QuantizerSpec(strategy, 2))

    @pytest.mark.parametrize("values, spec, dtype", [
        (np.arange(1000.0), QuantizerSpec("equal-frequency", 5), np.int8),
        (np.arange(1000.0), QuantizerSpec("equal-width", 5), np.int8),
        (np.full(10, 3.7), QuantizerSpec("equal-width", 5), np.int8),
        (np.arange(127.0), QuantizerSpec("pass-through"), np.int8),
        (np.arange(128.0), QuantizerSpec("pass-through"), np.int16),
        (np.arange(40_000.0), QuantizerSpec("pass-through"), np.int32),
    ])
    def test_codes_in_narrowest_dtype(self, values, spec, dtype):
        """The codes come in the narrowest signed dtype that holds the
        cardinality, as a Dataset holds them."""
        codes, card = quantize_column(values, spec)
        assert codes.dtype == dtype == mdata._code_dtype([card])


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

    def test_pass_through_keeps_values_past_int64_apart(self, tmp_path):
        """Integer-valued floats beyond the int64 range keep distinct codes."""
        p = tmp_path / "huge.csv"
        p.write_text("a,C\n1e20,1e20\n2e20,2e20\n-3e19,1e20\n1e20,2e20\n")
        ds = load_csv(p, "C", QuantizerSpec("pass-through"))
        assert ds.class_card == 2 and list(ds.class_codes) == [0, 1, 0, 1]
        assert ds.feature_cards == (3,) and list(ds.features[:, 0]) == [1, 2, 0, 1]

    def test_constant_column_cardinality_one(self, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("a,b,C\n5,1,0\n5,2,1\n5,3,0\n")
        ds = load_csv(p, "C", QuantizerSpec("pass-through"))
        assert ds.feature_cards[ds.column_index("a")] == 1
        assert mdata.mutual_information(ds, ["a"], ["C"]) == 0.0


class TestCsvFastPassGuards:
    """`load_csv` reads the body of a CSV in one `np.loadtxt` pass, and reads
    it again with the csv module where that pass would read it differently.
    Each case is one such difference; the results are the csv module's."""

    @staticmethod
    def _write(tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8", newline="")
        return p

    @pytest.mark.parametrize("text, row", [("a,C\n1,0\n\n2,1\n", 3),
                                           ("a,C\n1,0\n2,1\n\n", 4),
                                           ("a,C\r\n1,0\r\n\r\n2,1\r\n", 3)])
    def test_blank_line_is_a_ragged_row(self, tmp_path, text, row):
        with pytest.raises(ValueError, match=f"^ragged row {row}: expected 2 fields, got 0$"):
            load_csv(self._write(tmp_path, text), "C")

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_carriage_return_line_ends(self, tmp_path, end):
        text = end.join(["a,b,C", "10,red,0", "9,blue,1", "2,red,1", ""])
        ds = load_csv(self._write(tmp_path, text), "C")
        assert ds.n == 3 and ds.feature_cards == (3, 2) and ds.class_card == 2
        assert list(ds.features[:, 0]) == [2, 1, 0]
        assert list(ds.features[:, 1]) == [1, 0, 1]
        assert list(ds.class_codes) == [0, 1, 1]

    @pytest.mark.parametrize("quoted, other", [('"x,y"', "x;y"), ('"x""y"', "x#y"),
                                               ('"two\nlines"', "twoa")])
    def test_quoted_label(self, tmp_path, quoted, other):
        """The quoted label sorts before `other` only as the csv module reads
        it: with its comma, with one quote, with its newline."""
        text = f"a,b,C\n1,{quoted},0\n2,{other},1\n3,{quoted},0\n"
        ds = load_csv(self._write(tmp_path, text), "C")
        assert ds.n == 3 and ds.feature_cards == (3, 2)
        assert list(ds.features[:, 1]) == [0, 1, 0]

    @pytest.mark.parametrize("field", ["x", "0"])
    def test_field_larger_than_limit_names_the_line(self, tmp_path, field):
        """A label, or a number the C parser would read, past
        `csv.field_size_limit()`."""
        big = field * csv.field_size_limit() + "1"
        text = f"a,b,C\n{field},1,0\n{big},2,1\n"
        with pytest.raises(ValueError, match="^CSV line 3: field larger than field limit"):
            load_csv(self._write(tmp_path, text), "C")

    def test_number_then_word_is_label_encoded(self, tmp_path):
        ds = load_csv(self._write(tmp_path, "a,C\n10,0\nred,1\n9,0\n"), "C")
        assert ds.feature_cards == (3,) and list(ds.features[:, 0]) == [0, 2, 1]

    @pytest.mark.parametrize("control", ["\x00", "\x1c", "\x1f"])
    def test_number_beside_a_control_character_is_a_label(self, tmp_path, control):
        """numpy's parser skips the separators \\x1c-\\x1f as whitespace and
        float() does not, so "9\\x1f" is a word and the column labels."""
        ds = load_csv(self._write(tmp_path, f"a,C\n10,0\n9{control},1\n2,0\n"), "C")
        assert ds.feature_cards == (3,) and list(ds.features[:, 0]) == [0, 2, 1]

    @pytest.mark.parametrize("text", ["a,C\n", "a,C"])
    def test_header_without_rows(self, tmp_path, text):
        with pytest.raises(ValueError, match="^CSV has a header but no data rows$"):
            load_csv(self._write(tmp_path, text), "C")

    def test_one_data_row(self, tmp_path):
        ds = load_csv(self._write(tmp_path, "a,b,C\n1.5,red,0\n"), "C")
        assert ds.n == 1 and ds.feature_cards == (1, 1) and ds.class_card == 1

    def test_plain_numeric_csv_is_read_in_one_c_pass(self, tmp_path, monkeypatch):
        """Real-valued columns and a string label, as the CLI's usual input,
        take the C pass: the csv module reads the header line and no more."""
        rng = np.random.default_rng(0)
        values = rng.normal(size=(200, 4))
        labels = np.where(values[:, 0] > 0.5, "high", np.where(values[:, 0] < -0.5, "low", "mid"))
        lines = ["v0,v1,v2,v3,label"] + [",".join(map(repr, map(float, row))) + "," + lab
                                         for row, lab in zip(values, labels)]
        p = self._write(tmp_path, "\n".join(lines) + "\n")
        with mock.patch.object(mdata, "_read_numbers", return_value=None):
            want = load_csv(p, "label")
        reader = csv.reader

        def header_only(*args, **kwargs):
            rows = reader(*args, **kwargs)
            yield next(rows)
            raise AssertionError("the csv module read past the header")

        monkeypatch.setattr(csv, "reader", header_only)
        got = load_csv(p, "label")
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.class_codes, want.class_codes)
        assert got.feature_cards == want.feature_cards == (5,) * 4 and got.class_card == 3


    @pytest.mark.parametrize("fault", ["", "\r", "4,\"two\nlines\",0", "5,6\x1f,1",
                                       "7," + "8" * 40 + ",0"])
    def test_fault_in_a_later_chunk_falls_back(self, tmp_path, monkeypatch, fault):
        """A blank line, a line equal to `\\r`, a quoted line end, a separator
        and an over-long line, each first read chunks after the start of the
        body: the C pass has read lines by then, and the result is still the
        csv module's."""
        monkeypatch.setattr(mdata, "CHUNK_CHARS", 16)
        limit = csv.field_size_limit(32)
        try:
            rows = [f"{i % 7},{(i * 3) % 5}.5,{i % 2}" for i in range(40)]
            p = self._write(tmp_path, "a,b,C\n" + "\n".join(rows[:30] + [fault] + rows[30:]) + "\n")
            with mock.patch.object(mdata, "_read_rows", wraps=mdata._read_rows) as csv_module:
                got = _load_or_error(p)
            with mock.patch.object(mdata, "_read_numbers", return_value=None):
                want = _load_or_error(p)
        finally:
            csv.field_size_limit(limit)
        assert csv_module.called
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got.features, want.features) and got.n == want.n
            assert got.feature_cards == want.feature_cards

    def test_over_long_line_stops_the_read_before_it_ends(self, monkeypatch):
        """A line past the field limit is a fault as soon as its read part
        is: the rest of it is never read."""
        monkeypatch.setattr(mdata, "CHUNK_CHARS", 8)
        fh = io.StringIO("1,0\n" + "9" * 1000)
        limit = csv.field_size_limit(32)
        try:
            with pytest.raises(ValueError):
                list(mdata._Lines(fh))
        finally:
            csv.field_size_limit(limit)
        assert fh.tell() <= 4 + 32 + 8

    def test_load_csv_memory_peak(self, tmp_path):
        """On a CSV shaped like the benchmark's (20k rows of 12 full-precision
        floats and a 3-valued label, 4.8 MB), load_csv holds no copy of the
        text: its traced peak is the float64 values, the codes and one chunk
        (about 3 MB; 14 MB when the body was read whole)."""
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20_000, 12))
        labels = np.array(["high", "low", "mid"])[rng.integers(0, 3, 20_000)]
        lines = [",".join([f"v{j}" for j in range(12)] + ["label"])]
        lines += [",".join(map(repr, row.tolist())) + "," + lab for row, lab in zip(values, labels)]
        p = self._write(tmp_path, "\n".join(lines) + "\n")
        del values, labels, lines
        tracemalloc.start()
        try:
            ds = load_csv(p, "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == 20_000 and ds.feature_cards == (5,) * 12 and ds.class_card == 3
        assert peak <= 6_000_000, peak

    def test_load_csv_memory_per_column(self, tmp_path):
        """Past 32,767 rows too, load_csv holds per feature column its float64
        values and its narrow codes, about 9 bytes a row: it writes no
        int32 code matrix for Dataset to narrow (about 12 bytes a row)."""
        n, rng, peaks = 33_000, np.random.default_rng(1), {}
        for m in (2, 10):
            values = np.column_stack([rng.normal(size=(n, m)), rng.integers(0, 3, n)])
            path = tmp_path / f"m{m}.csv"
            np.savetxt(path, values, delimiter=",", fmt=["%.17g"] * m + ["%d"], comments="",
                       header=",".join([f"v{j}" for j in range(m)] + ["C"]))
            del values
            tracemalloc.start()
            try:
                ds = load_csv(path, "C")
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ds.features.dtype == np.int8 and ds.feature_cards == (5,) * m
        per_row_and_column = (peaks[10] - peaks[2]) / (8 * n)
        assert per_row_and_column <= 10, per_row_and_column


def _load_or_error(path):
    try:
        return load_csv(path, "C")
    except ValueError as exc:
        return str(exc)


class TestDataset:
    def test_immutable_arrays(self, ex1_csv):
        ds = load_csv(ex1_csv, "C", QuantizerSpec("pass-through"))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1

    @pytest.mark.parametrize("feats, cls, cards, names, message", [
        ([0, 1], [0, 1], (2,), ("a",), "features must be 2-D and class_codes 1-D"),
        ([[0, 1]], [[0]], (2, 2), ("a", "b"), "features must be 2-D and class_codes 1-D"),
        (np.zeros((0, 1), dtype=int), [], (2,), ("a",), "need at least one sample and one feature"),
        (np.zeros((2, 0), dtype=int), [0, 1], (), (), "need at least one sample and one feature"),
        ([[0], [1]], [0], (2,), ("a",), "class column length mismatch"),
        ([[0], [1]], [0, 1], (2,), ("a", "b"), "feature names/cardinalities mismatch"),
        ([[0], [1]], [0, 1], (2, 2), ("a",), "feature names/cardinalities mismatch"),
        ([[0, 1]], [0], (2, 2), ("a", "a"), "column names must be distinct"),
        ([[0]], [0], (2,), ("C",), "column names must be distinct"),
    ])
    def test_malformed_dataset_rejected(self, feats, cls, cards, names, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.array(feats), np.array(cls), cards, 2, names, "C")

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(np.array([[3]]), np.array([0]), (2,), 2, ("a",), "C")

    @pytest.mark.parametrize("code", [0.5, 1.0, "1"])
    def test_non_integer_codes_rejected(self, code):
        """A float or string code is rejected, not truncated or parsed."""
        with pytest.raises(ValueError, match="non-integer codes in column 'a'"):
            Dataset(np.array([[code], [0]]), np.array([0, 1]), (2,), 2, ("a",), "C")
        with pytest.raises(ValueError, match="non-integer codes in column 'C'"):
            Dataset(np.array([[0], [1]]), np.array([code, 0]), (2,), 2, ("a",), "C")

    def test_class_codes_out_of_range_name_the_target(self):
        with pytest.raises(ValueError, match="codes out of range in column 'C'"):
            Dataset(np.array([[0], [1]]), np.array([0, 2]), (2,), 2, ("a",), "C")

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

    def test_datasets_compare_by_identity(self):
        """Two Datasets built alike are distinct objects: == is identity,
        never an elementwise compare of their code arrays."""
        a, b = (random_dataset(np.random.default_rng(5), 50, 3, 2) for _ in range(2))
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2

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

    def test_row_counts_binary_columns_by_planes(self, monkeypatch):
        """`mutual_information_row` takes the same plane rule as the pair
        cache, and its values equal the per-call measures by ==."""
        rng = np.random.default_rng(12)
        feats = rng.integers(0, 2, size=(500, 6))
        ds = Dataset(feats, (feats[:, 0] ^ rng.integers(0, 2, 500)) & feats[:, 1], (2,) * 6,
                     2, tuple(f"f{j}" for j in range(6)), "y")
        counted = []
        count_planes = info._count_planes
        monkeypatch.setattr(info, "_count_planes",
                            lambda *args: counted.append(1) or count_planes(*args))
        names = list(ds.feature_names)
        for y, z in ((["y"], []), (["f5"], []), (["y"], ["f5"])):
            counted.clear()
            got = mdata.mutual_information_row(ds, names[:5], y, z)
            assert counted == [1]
            assert got == [mdata.conditional_mutual_information(ds, [f], y, z)
                           for f in names[:5]]


    def test_row_over_one_column_builds_its_planes_only(self, monkeypatch):
        """The Dataset builds a column's complement planes the first time a
        row counts it by planes, and no other column's."""
        ds = random_dataset(np.random.default_rng(13), n=300, m=6, card=3)
        built = []
        planes = info._planes
        monkeypatch.setattr(info, "_planes", lambda code, card: built.append(
            np.shares_memory(code, ds.features)) or planes(code, card))
        store = ds._table.planes
        for _ in range(2):
            mdata.mutual_information_row(ds, ["f3"], ["y"])
        assert built.count(True) == 1
        assert [v for v in store.names if store.built[store.slot[v]]] == ["f3"]

    def test_group_planes_built_once_per_row(self, monkeypatch):
        """A row whose candidates fill a block each builds the fixed group's
        planes once, not once per block."""
        ds = random_dataset(np.random.default_rng(16), n=300, m=7, card=3)
        names = list(ds.feature_names[:6])
        monkeypatch.setattr(info, "BLOCK_CODES", ds.n)
        mdata.mutual_information_row(ds, names, ["y"])    # builds the candidates' planes
        built = []
        planes = info._planes
        monkeypatch.setattr(info, "_planes", lambda code, card: built.append(card)
                            or planes(code, card))
        assert mdata.mutual_information_row(ds, names, ["f6"]) == [
            mdata.mutual_information(ds, [f], ["f6"]) for f in names]
        assert built == [3]   # the radix of the group f6: planes of its values 1 and 2

    def test_one_valued_candidate_costs_one_plane_value(self, monkeypatch):
        """In the plane rule a one-valued candidate costs as one value, so
        against a group of n values it is counted by codes and builds no
        plane per group value; against the class it is still counted by
        planes."""
        n = 5000
        rng = np.random.default_rng(15)
        feats = np.column_stack([np.zeros(n, dtype=np.int64), rng.permutation(n),
                                 rng.integers(0, 2, n)])
        ds = Dataset(feats, rng.integers(0, 2, n), (1, n, 2), 2, ("const", "id", "b"), "y")
        by_planes = []
        count_planes = info._count_planes
        monkeypatch.setattr(info, "_count_planes", lambda *args: (   # radix: the group's counts
            by_planes.append(len(args[-1])) or count_planes(*args)))
        for cands in (["const"], ["const", "b"]):
            assert mdata.mutual_information_row(ds, cands, ["id"]) == [
                mdata.mutual_information(ds, [f], ["id"]) for f in cands]
        assert by_planes == []
        mdata.mutual_information_row(ds, ["const", "b"], ["y"])
        assert by_planes == [2]

    def test_plane_memory(self):
        """A Dataset's planes take (card - 1) * ceil(n / 64) * 8 bytes for each
        column: value 0 has no plane."""
        rng = np.random.default_rng(14)
        feats = np.column_stack([rng.integers(0, c, 1000) for c in (2, 3, 5, 1)])
        ds = Dataset(feats, rng.integers(0, 2, 1000), (2, 3, 5, 1), 2,
                     ("a", "b", "c", "d"), "y")
        mdata.mutual_information_row(ds, ["a", "b", "c", "d"], ["y"])
        store = ds._table.planes
        assert store.planes.nbytes == (1 + 2 + 4 + 0 + 1) * -(-1000 // 64) * 8


class TestOverlapRejected:
    def test_entropy_repeated_name(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="variable sets overlap on 'x1'"):
            mdata.entropy(ds, ["x1", "x1"])

    def test_mi_overlap(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="overlap"):
            mdata.mutual_information(ds, ["x1"], ["x1"])

    def test_cmi_condition_overlaps_x(self):
        _, ds = example1()
        with pytest.raises(ValueError, match="overlap"):
            mdata.conditional_mutual_information(ds, ["x1", "x2"], ["C"], ["x2"])
