import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miselect import SyntheticSpec, classify_relevance, datagen, example1, generate
from miselect import data as mdata
from miselect.structure import IRRELEVANT, minimal_sufficient_subsets

GOLDEN = Path(__file__).parent / "golden"


def reference_example1_rows():
    """The review's table built by hand: every (x1, x2, x3) in
    itertools.product order, C = x1 OR (x2 XOR x3) and x4 = x1."""
    return [(x1, x2, x3, x1, x1 | (x2 ^ x3))
            for x1, x2, x3 in itertools.product((0, 1), repeat=3)]


class TestExample1:
    def test_equals_hand_built_reference(self):
        dist, ds = example1()
        rows = reference_example1_rows()
        assert dist.variables == ("x1", "x2", "x3", "x4", "C")
        assert dist.cardinalities == (2, 2, 2, 2, 2)
        assert list(dist.mass.items()) == [(row, 1 / 8) for row in rows]
        assert dist.origin == "exact"
        assert dist.sample_count is None
        arr = np.array(rows)
        assert np.array_equal(ds.features, arr[:, :4])
        assert np.array_equal(ds.class_codes, arr[:, 4])
        assert ds.features.dtype == ds.class_codes.dtype == np.int8
        assert ds.features.flags.f_contiguous
        assert ds.feature_names == ("x1", "x2", "x3", "x4")
        assert ds.target_name == "C"
        assert ds.feature_cards == (2, 2, 2, 2)
        assert ds.class_card == 2
        assert ds.meta == {"fixture": "example1"}

    def test_truth_table_row(self):
        dist, _ = example1()
        assert dist.mass[(1, 1, 0, 1, 1)] == pytest.approx(1 / 8)
        assert (0, 1, 1, 0, 1) not in dist.mass  # x2 xor x3 = 0, x1 = 0 -> C = 0

    def test_class_prior(self):
        dist, _ = example1()
        assert dist.marginal_mass(["C"])[(1,)] == pytest.approx(0.75)

    def test_duplicates_equally_relevant(self):
        _, ds = example1()
        a = mdata.mutual_information(ds, ["x1"], ["C"])
        b = mdata.mutual_information(ds, ["x4"], ["C"])
        assert a == pytest.approx(b, abs=1e-12)
        assert a > 0

    def test_dataset_matches_distribution(self):
        dist, ds = example1()
        emp = mdata.empirical_distribution(ds, list(ds.feature_names) + ["C"])
        assert emp.mass == pytest.approx(dict(dist.mass), abs=1e-12)


class TestSyntheticSpec:
    def test_needs_signal(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, noise=3)

    def test_flip_prob_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, relevant=1, flip_prob=0.5)

    def test_copies_need_a_source(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, xor_groups=1, redundant_copies=1)

    def test_sampling_needs_n(self):
        with pytest.raises(ValueError):
            SyntheticSpec(relevant=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            SyntheticSpec(n=10, relevant=1, noise=-1)

    def test_exhaustive_base_columns_bounded(self):
        # 1 + 2*2 + 16 = 21 base columns: rejected before any row is built
        with pytest.raises(ValueError, match=r"21 base columns .* 2\*\*21 = 2,097,152 rows"):
            SyntheticSpec(relevant=1, xor_groups=2, noise=16, exhaustive=True)


class TestGenerate:
    def test_exhaustive_reconstructs_example1(self):
        spec = SyntheticSpec(relevant=1, xor_groups=1, redundant_copies=1,
                             exhaustive=True)
        ds, roles = generate(spec)
        dist, ref = example1()
        assert ds.feature_names == ref.feature_names
        assert roles == {"x1": "relevant", "x2": "xor", "x3": "xor",
                         "x4": "redundant:x1"}
        emp = mdata.empirical_distribution(ds, list(ds.feature_names) + ["C"])
        assert emp.mass == pytest.approx(dict(dist.mass), abs=1e-12)

    def test_reproducible_for_fixed_seed(self):
        spec = SyntheticSpec(n=500, relevant=2, noise=3, flip_prob=0.1, seed=99)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.class_codes, b.class_codes)

    def test_different_seed_differs(self):
        a, _ = generate(SyntheticSpec(n=500, relevant=1, noise=2, seed=1))
        b, _ = generate(SyntheticSpec(n=500, relevant=1, noise=2, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_noise_is_irrelevant_in_exact_mode(self):
        ds, roles = generate(SyntheticSpec(relevant=1, xor_groups=1, noise=1,
                                           exhaustive=True))
        noise = [f for f, r in roles.items() if r == "noise"]
        for f in noise:
            assert classify_relevance(ds, f).level == IRRELEVANT

    def test_redundant_copy_shares_full_entropy(self):
        ds, roles = generate(SyntheticSpec(relevant=1, xor_groups=1,
                                           redundant_copies=1, exhaustive=True))
        copy = next(f for f, r in roles.items() if r.startswith("redundant:"))
        source = roles[copy].split(":", 1)[1]
        assert mdata.mutual_information(ds, [copy], [source]) == pytest.approx(
            mdata.entropy(ds, [source]), abs=1e-12)

    def test_sufficient_subsets_drop_noise_and_extra_copies(self):
        ds, roles = generate(SyntheticSpec(relevant=1, xor_groups=1,
                                           redundant_copies=1, noise=2,
                                           exhaustive=True))
        noise = {f for f, r in roles.items() if r == "noise"}
        duplicates = {"x1", "x4"}
        for s in minimal_sufficient_subsets(ds):
            chosen = set(s.features)
            assert not (chosen & noise)
            assert len(chosen & duplicates) <= 1

    def test_codes_do_not_depend_on_the_draw_block(self, monkeypatch):
        """Base columns drawn as int64 a few rows at a time continue one
        stream: the codes equal those of one whole draw, label flips too."""
        spec = SyntheticSpec(n=1000, relevant=2, xor_groups=1, redundant_copies=1, noise=3,
                             flip_prob=0.2, seed=4)
        whole, roles = generate(spec)
        for rows in (1, 3, 333):
            monkeypatch.setattr(datagen, "DRAW_VALUES", 7 * rows)   # 7 base columns
            ds, again = generate(spec)
            assert np.array_equal(ds.features, whole.features) and again == roles
            assert np.array_equal(ds.class_codes, whole.class_codes)

    def test_golden_gen_csv_reproduced(self):
        """tests/golden/gen.csv holds the codes generate draws for this spec."""
        ds, _ = generate(SyntheticSpec(n=400, relevant=2, xor_groups=2, redundant_copies=2,
                                       noise=5, flip_prob=0.1, seed=7))
        want = np.loadtxt(GOLDEN / "gen.csv", delimiter=",", skiprows=1, dtype=np.int64)
        assert np.array_equal(ds.features, want[:, :-1])
        assert np.array_equal(ds.class_codes, want[:, -1])

    def test_memory_peak(self):
        """The codes are drawn into an int8 matrix: at n=10k, m=100 the traced
        peak is a few bytes per code (17 MiB, 18 per code, when an int64 base
        and an int64 column stack came first)."""
        tracemalloc.start()
        try:
            ds, _ = generate(SyntheticSpec(n=10_000, relevant=3, xor_groups=2,
                                           redundant_copies=3, noise=90, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.m == 100 and peak <= 4 * ds.n * ds.m, peak

    def test_metadata_records_generator(self):
        ds, _ = generate(SyntheticSpec(n=50, relevant=1, seed=5))
        assert ds.meta["generator"] == "numpy-pcg64"
        assert ds.meta["seed"] == 5


def reference_truth_table(spec):
    """The features and labels of an exhaustive spec, one tuple per row from
    itertools.product, with the label flips drawn from the seed's stream."""
    r, x, copies = spec.relevant, spec.xor_groups, spec.redundant_copies
    signal = r + 2 * x
    base = np.array(list(itertools.product((0, 1), repeat=signal + spec.noise)))
    feats = np.column_stack([base[:, :signal], base[:, [j % r for j in range(copies)]],
                             base[:, signal:]])
    c = np.zeros(len(base), dtype=np.int64)
    for j in range(r):
        c |= base[:, j]
    for g in range(x):
        c |= base[:, r + 2 * g] ^ base[:, r + 2 * g + 1]
    if spec.flip_prob > 0:
        flips = np.random.default_rng(spec.seed).random(len(base)) < spec.flip_prob
        c = np.where(flips, 1 - c, c)
    return feats, c


@st.composite
def exhaustive_specs(draw):
    relevant = draw(st.integers(0, 12))
    xor_groups = draw(st.integers(0 if relevant else 1, (12 - relevant) // 2))
    noise = draw(st.integers(0, 12 - relevant - 2 * xor_groups))
    return SyntheticSpec(relevant=relevant, xor_groups=xor_groups, noise=noise,
                         redundant_copies=draw(st.integers(0, 3 if relevant else 0)),
                         flip_prob=draw(st.sampled_from([0.0, 0.05])),
                         seed=draw(st.integers(0, 2**32 - 1)), exhaustive=True)


@settings(max_examples=60, deadline=None)
@given(exhaustive_specs(), st.sampled_from([1, 12, 1000, datagen.DRAW_VALUES]))
def test_truth_table_equals_itertools_product(spec, draw_values):
    """Row i of a truth table is the bits of i in every block size, the
    copies and the class follow, and the label flips are the seed's."""
    with mock.patch.object(datagen, "DRAW_VALUES", draw_values):
        ds, _ = generate(spec)
    feats, c = reference_truth_table(spec)
    assert np.array_equal(ds.features, feats)
    assert np.array_equal(ds.class_codes, c)


def test_truth_table_memory_peak():
    """A truth table is written into the int8 matrix a block of rows at a
    time: at 16 base columns the traced peak is a few bytes per code."""
    spec = SyntheticSpec(relevant=2, xor_groups=2, redundant_copies=2, noise=10,
                         exhaustive=True)
    tracemalloc.start()
    try:
        ds, _ = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 2**16 and ds.m == 18 and peak <= 4 * ds.n * ds.m, peak
