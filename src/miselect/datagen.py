"""Ground-truth fixtures: the XOR/OR truth-table example and synthetic data.

The canonical fixture is the 8-row system C = x1 OR (x2 XOR x3) with
x4 = x1: a weakly relevant pair of duplicates plus a synergistic XOR pair.
`generate` plants configurable relevant, XOR, redundant and noise columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .distribution import JointDistribution
from .structure import MAX_EXHAUSTIVE_FEATURES

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 0                 # ignored in exhaustive mode
    relevant: int = 0          # binary features OR-ed into the class
    xor_groups: int = 0        # feature pairs whose XOR is OR-ed into the class
    redundant_copies: int = 0  # duplicates of relevant features (cycled)
    noise: int = 0             # independent binary features
    flip_prob: float = 0.0     # label-noise probability
    seed: int = 0
    exhaustive: bool = False   # emit the full truth table instead of sampling

    def __post_init__(self):
        if self.relevant < 1 and self.xor_groups < 1:
            raise ValueError("need at least one relevant feature or XOR group")
        if not (0.0 <= self.flip_prob < 0.5):
            raise ValueError("flip_prob must be in [0, 0.5)")
        if self.redundant_copies > 0 and self.relevant < 1:
            raise ValueError("redundant copies require at least one relevant feature")
        if any(v < 0 for v in (self.relevant, self.xor_groups,
                               self.redundant_copies, self.noise)):
            raise ValueError("counts must be non-negative")
        base = self.relevant + 2 * self.xor_groups + self.noise
        if self.exhaustive and base > MAX_EXHAUSTIVE_FEATURES:
            raise ValueError(
                f"an exhaustive table of {base} base columns (relevant + 2*xor_groups"
                f" + noise) has 2**{base} = {2 ** base:,} rows; at most"
                f" {MAX_EXHAUSTIVE_FEATURES} base columns are allowed")
        if not self.exhaustive and self.n < 1:
            raise ValueError("n must be >= 1 when sampling")


def example1() -> tuple[JointDistribution, Dataset]:
    """The canonical 8-row truth table, as exact distribution and dataset:
    the exhaustive table of one relevant feature, one XOR pair and one copy."""
    ds, _ = generate(SyntheticSpec(relevant=1, xor_groups=1, redundant_copies=1,
                                   exhaustive=True))
    rows = map(tuple, np.column_stack([ds.features, ds.class_codes]).tolist())
    dist = JointDistribution(
        variables=ds.feature_names + (ds.target_name,),
        cardinalities=ds.feature_cards + (ds.class_card,),
        mass=dict.fromkeys(rows, 1 / ds.n),
        origin="exact",
    )
    return dist, replace(ds, meta={"fixture": "example1"})


# Base-column values written at a time, a block of whole rows; int64 draws in
# blocks continue one stream, so the codes do not depend on the block size.
DRAW_VALUES = 1 << 16


def generate(spec: SyntheticSpec) -> tuple[Dataset, dict[str, str]]:
    """Synthetic dataset with planted feature roles.

    Column order: relevant features, XOR pair members, redundant copies,
    noise.  C = OR(relevant) OR OR(xor of each pair), then flipped with
    probability flip_prob.  Deterministic for a fixed seed.  The base
    columns go a block of rows at a time straight into the int8 feature
    matrix: int64 draws, or in a truth table the bits of the row index.
    """
    r, x = spec.relevant, spec.xor_groups
    signal, copies = r + 2 * x, spec.redundant_copies
    n_base = signal + spec.noise
    rng = np.random.default_rng(spec.seed)
    n = 2 ** n_base if spec.exhaustive else spec.n
    feats = np.empty((n, n_base + copies), dtype=np.int8, order="F")
    step = max(1, DRAW_VALUES // n_base)
    for i in range(0, n, step):
        rows = min(step, n - i)
        if spec.exhaustive:    # truth-table row i is the bits of i
            base = (np.arange(i, i + rows)[:, None] >> np.arange(n_base - 1, -1, -1)) & 1
        else:
            base = rng.integers(0, 2, size=(rows, n_base), dtype=np.int64)
        feats[i:i + rows, :signal] = base[:, :signal]
        feats[i:i + rows, signal + copies:] = base[:, signal:]
    feats[:, signal:signal + copies] = feats[:, np.arange(copies) % r]

    xor = feats[:, r:signal:2] ^ feats[:, r + 1:signal:2]
    c = np.bitwise_or.reduce(feats[:, :r], axis=1) | np.bitwise_or.reduce(xor, axis=1)
    if spec.flip_prob > 0:
        flips = rng.random(n) < spec.flip_prob
        c = np.where(flips, 1 - c, c)

    names = [f"x{j + 1}" for j in range(feats.shape[1])]
    roles = dict.fromkeys(names[:r], "relevant")
    roles.update(dict.fromkeys(names[r:signal], "xor"))
    roles.update({names[signal + j]: f"redundant:{names[j % r]}" for j in range(copies)})
    roles.update(dict.fromkeys(names[signal + copies:], "noise"))
    cards = tuple(int(feats[:, j].max()) + 1 for j in range(feats.shape[1]))
    ds = Dataset(
        features=feats,
        class_codes=c,
        feature_cards=cards,
        class_card=2,
        feature_names=tuple(names),
        target_name="C",
        meta={
            "seed": spec.seed,
            "generator": GENERATOR_NAME,
            "exhaustive": spec.exhaustive,
            "flip_prob": spec.flip_prob,
        },
    )
    return ds, roles
