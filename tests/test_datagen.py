import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from miselect import SyntheticSpec, classify_relevance, datagen, example1, generate
from miselect import data as mdata
from miselect.structure import IRRELEVANT, minimal_sufficient_subsets

GOLDEN = Path(__file__).parent / "golden"


class TestExample1:
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
