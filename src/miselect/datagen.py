"""Ground-truth fixtures: the XOR/OR truth-table example and synthetic data.

The canonical fixture is the 8-row system C = x1 OR (x2 XOR x3) with
x4 = x1: a weakly relevant pair of duplicates plus a synergistic XOR pair.
`generate` plants configurable relevant, XOR, redundant and noise columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    """The canonical 8-row truth table, as exact distribution and dataset."""
    rows = []
    for x1, x2, x3 in itertools.product((0, 1), repeat=3):
        c = 1 if (x1 or (x2 ^ x3)) else 0
        rows.append((x1, x2, x3, x1, c))
    dist = JointDistribution(
        variables=("x1", "x2", "x3", "x4", "C"),
        cardinalities=(2, 2, 2, 2, 2),
        mass={row: 1 / 8 for row in rows},
        origin="exact",
    )
    arr = np.array(rows, dtype=np.int64)
    ds = Dataset(
        features=arr[:, :4],
        class_codes=arr[:, 4],
        feature_cards=(2, 2, 2, 2),
        class_card=2,
        feature_names=("x1", "x2", "x3", "x4"),
        target_name="C",
        meta={"fixture": "example1"},
    )
    return dist, ds


def generate(spec: SyntheticSpec) -> tuple[Dataset, dict[str, str]]:
    """Synthetic dataset with planted feature roles.

    Column order: relevant features, XOR pair members, redundant copies,
    noise.  C = OR(relevant) OR OR(xor of each pair), then flipped with
    probability flip_prob.  Deterministic for a fixed seed.
    """
    n_base = spec.relevant + 2 * spec.xor_groups + spec.noise
    rng = np.random.default_rng(spec.seed)
    if spec.exhaustive:
        base = np.array(list(itertools.product((0, 1), repeat=n_base)), dtype=np.int64)
    else:
        base = rng.integers(0, 2, size=(spec.n, n_base), dtype=np.int64)
    n = base.shape[0]

    rel = base[:, :spec.relevant]
    xor_members = base[:, spec.relevant:spec.relevant + 2 * spec.xor_groups]
    noise = base[:, spec.relevant + 2 * spec.xor_groups:]

    c = np.zeros(n, dtype=np.int64)
    for j in range(spec.relevant):
        c |= rel[:, j]
    for g in range(spec.xor_groups):
        c |= xor_members[:, 2 * g] ^ xor_members[:, 2 * g + 1]
    if spec.flip_prob > 0:
        flips = rng.random(n) < spec.flip_prob
        c = np.where(flips, 1 - c, c)

    columns = []
    roles: dict[str, str] = {}
    names: list[str] = []

    def add(col, role):
        names.append(f"x{len(names) + 1}")
        columns.append(col)
        roles[names[-1]] = role

    for j in range(spec.relevant):
        add(rel[:, j], "relevant")
    for g in range(spec.xor_groups):
        add(xor_members[:, 2 * g], "xor")
        add(xor_members[:, 2 * g + 1], "xor")
    for j in range(spec.redundant_copies):
        src = names[j % spec.relevant]
        add(columns[j % spec.relevant].copy(), f"redundant:{src}")
    for j in range(spec.noise):
        add(noise[:, j], "noise")

    feats = np.column_stack(columns)
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
