"""Dataset ingestion, quantization and empirical distributions."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import info as _info
from .distribution import JointDistribution, _as_vars

STRATEGIES = ("equal-width", "equal-frequency", "pass-through")


@dataclass(frozen=True)
class QuantizerSpec:
    """How to turn a raw numeric column into discrete codes."""

    strategy: str = "equal-frequency"
    bins: int = 5

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown quantizer strategy {self.strategy!r}")
        if self.strategy != "pass-through" and self.bins < 2:
            raise ValueError("bins must be >= 2")


def _code_dtype(cards) -> np.dtype:
    """The narrowest signed integer dtype that holds every cardinality.

    Signed, because uint64 codes promote to float64 against int64.
    """
    top = max(cards)
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """n samples of m discrete-coded feature columns plus a class column.

    Immutable after construction.  The codes are read-only copies in the
    narrowest signed integer dtype that holds the cardinalities, the
    features column-major, so reading one column is one contiguous read.
    """

    features: np.ndarray              # (n, m) integer codes
    class_codes: np.ndarray           # (n,)
    feature_cards: tuple[int, ...]
    class_card: int
    feature_names: tuple[str, ...]
    target_name: str
    meta: dict = field(default_factory=dict)
    _index: dict = field(init=False, repr=False, compare=False)   # name -> column

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.int64)
        cls = np.asarray(self.class_codes, dtype=np.int64)
        if feats.ndim != 2 or cls.ndim != 1:
            raise ValueError("features must be 2-D and class_codes 1-D")
        n, m = feats.shape
        if n < 1 or m < 1:
            raise ValueError("need at least one sample and one feature")
        if cls.shape[0] != n:
            raise ValueError("class column length mismatch")
        if len(self.feature_names) != m or len(self.feature_cards) != m:
            raise ValueError("feature names/cardinalities mismatch")
        if len(set(self.feature_names)) != m or self.target_name in self.feature_names:
            raise ValueError("column names must be distinct")
        for j, card in enumerate(self.feature_cards):
            col = feats[:, j]
            if col.min() < 0 or col.max() >= card:
                raise ValueError(f"codes out of range in column {self.feature_names[j]!r}")
        if cls.min() < 0 or cls.max() >= self.class_card:
            raise ValueError("class codes out of range")
        feats = np.array(feats, dtype=_code_dtype(self.feature_cards), order="F")
        cls = np.array(cls, dtype=_code_dtype([self.class_card]))
        feats.setflags(write=False)
        cls.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "class_codes", cls)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "feature_cards", tuple(self.feature_cards))
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))
        object.__setattr__(self, "_index", {name: j for j, name in enumerate(self.feature_names)})

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown column {name!r}") from None

    def codes(self, name: str) -> tuple[np.ndarray, int]:
        """Codes and cardinality for a feature column or the target."""
        if name == self.target_name:
            return self.class_codes, self.class_card
        j = self.column_index(name)
        return self.features[:, j], self.feature_cards[j]


def quantize_column(values: np.ndarray, spec: QuantizerSpec) -> tuple[np.ndarray, int]:
    """Discretize one numeric column into dense codes."""
    values = np.asarray(values, dtype=float)
    if spec.strategy == "pass-through":
        if not np.all(values == np.floor(values)):
            raise ValueError("pass-through quantizer requires integer-valued column")
        return _info._ranks(values.astype(np.int64))
    lo, hi = values.min(), values.max()
    if lo == hi:
        return np.zeros(len(values), dtype=np.int64), 1
    if spec.strategy == "equal-width":
        width = (hi - lo) / spec.bins
        raw = np.minimum((values - lo) // width, spec.bins - 1).astype(np.int64)
        return _info._ranks(raw, spec.bins)
    # equal-frequency: thresholds at order statistics so that, for all-distinct
    # values, per-bin counts differ by at most 1
    order = np.sort(values)
    n = len(values)
    cuts = [order[int(np.ceil(n * i / spec.bins)) - 1] for i in range(1, spec.bins)]
    raw = np.searchsorted(np.asarray(cuts), values, side="left").astype(np.int64)
    return _info._ranks(raw, spec.bins)


# Tokens read as a missing value, not as a label, in a column whose other
# tokens are numbers (compared case-insensitively).
MISSING_TOKENS = frozenset({"na", "n/a", "null", "none"})


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _encode_column(raw: tuple[str, ...], name: str, spec: QuantizerSpec) -> tuple[np.ndarray, int]:
    try:
        # one pass with float() semantics: surrounding whitespace, digit
        # separators and non-ASCII digits parse as they do there
        numeric = np.array(raw, dtype=np.float64)
    except ValueError:
        return _encode_tokens(raw, name)
    bad = np.flatnonzero(~np.isfinite(numeric))
    if len(bad):
        raise ValueError(f"non-finite value {raw[bad[0]].strip()!r} in column {name!r}")
    return quantize_column(numeric, spec)


def _encode_tokens(raw: tuple[str, ...], name: str) -> tuple[np.ndarray, int]:
    """Label codes of a column that does not parse as numbers, or the error
    of a numeric column with a missing value."""
    stripped = [v.strip() for v in raw]
    if "" in stripped:
        raise ValueError(f"missing value in column {name!r}")
    words = sorted(v for v in set(stripped) if not _is_number(v))
    if all(w.lower() in MISSING_TOKENS for w in words):
        raise ValueError(f"missing value {words[0]!r} in numeric column {name!r}")
    # string column: deterministic lexicographic label encoding
    labels = sorted(set(stripped))
    table = {lab: i for i, lab in enumerate(labels)}
    return np.array([table[v] for v in stripped], dtype=np.int64), len(labels)


def load_csv(path, target_name: str,
             quantizer: QuantizerSpec = QuantizerSpec()) -> Dataset:
    """Load an RFC-4180-style CSV with a header row into a Dataset.

    Numeric feature columns are quantized per `quantizer`; string columns
    are label-encoded in lexicographic order.  The target column is never
    binned (pass-through for numeric targets).  A column of numbers with a
    non-finite value (nan, inf) or a missing-value token (MISSING_TOKENS,
    such as NA) is rejected, and so is a line the csv module cannot parse,
    a header that repeats a name, or one that holds only the target.
    """
    # utf-8-sig drops a byte-order mark, which would hide the first header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValueError("empty CSV file")
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        repeated = next(h for i, h in enumerate(header) if h in header[:i])
        raise ValueError(f"column name {repeated!r} repeated in header")
    if target_name not in header:
        raise ValueError(f"target column {target_name!r} not found in header")
    if len(header) == 1:
        raise ValueError("CSV has no feature columns")
    if not rows:
        raise ValueError("CSV has a header but no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged row {i + 2}: expected {width} fields, got {len(row)}")
    columns = dict(zip(header, zip(*rows)))
    feat_names = [h for h in header if h != target_name]
    codes = []
    cards = []
    for name in feat_names:
        col, card = _encode_column(columns[name], name, quantizer)
        codes.append(col)
        cards.append(card)
    cls, class_card = _encode_column(
        columns[target_name], target_name, QuantizerSpec("pass-through", 2))
    return Dataset(
        features=np.column_stack(codes),
        class_codes=cls,
        feature_cards=tuple(cards),
        class_card=class_card,
        feature_names=tuple(feat_names),
        target_name=target_name,
        meta={"source": str(path), "quantizer": quantizer.strategy, "bins": quantizer.bins},
    )


def composite_view(ds: Dataset, vars) -> tuple[np.ndarray, int]:
    """Map each distinct observed tuple of `vars` to a distinct code.

    Codes are the lexicographic ranks of the tuples, so the cardinality
    equals the number of distinct observed tuples.
    """
    cell, counts = _info._cells([ds.codes(v) for v in _as_vars(vars)], ds.n)
    return cell, len(counts)


@dataclass(frozen=True, eq=False)
class View:
    """A precomputed composite (codes, support), such as `composite_view` gives.

    In a variable group of `mutual_information`, `conditional_mutual_information`
    or `entropy`, a View stands for the columns it was built from, at its
    place in the group: as a whole Z group, say, or as the leading columns
    of an X group.  The value is then equal, bit for bit, to the one over
    the columns, because the view's codes order the rows as the columns'
    mixed-radix code does.  Views compare by identity, so one never equals
    a column name.
    """

    codes: np.ndarray
    support: int


def leave_one_out_views(ds: Dataset, vars) -> list[View]:
    """The View of `vars` without v, for each v of `vars` in turn.

    Each holds what `composite_view` of those columns gives, equal by ==,
    but the whole list is built from the prefix and suffix codes of `vars`
    in O(len(vars)) two-column recodings, not one per column per view.
    Needs at least two variables.
    """
    views = []
    for code in _info._leave_one_out([ds.codes(v) for v in _as_vars(vars)], ds.n):
        cell, counts = _info._cells([code], ds.n)
        views.append(View(cell, len(counts)))
    return views


def empirical_distribution(ds: Dataset, vars) -> JointDistribution:
    """Plug-in joint distribution of the named columns (counts / n)."""
    cols = [ds.codes(v) for v in _as_vars(vars)]
    cell, counts = _info._cells(cols, ds.n)
    states = np.empty((len(counts), len(cols)), dtype=np.int64)
    states[cell] = np.column_stack([c for c, _ in cols])
    return JointDistribution(
        variables=_as_vars(vars),
        cardinalities=tuple(card for _, card in cols),
        mass={tuple(int(v) for v in state): int(cnt) / ds.n
              for state, cnt in zip(states, counts)},
        origin="empirical",
        sample_count=ds.n,
    )


def _table(ds: Dataset):
    """The counting kernel's table over `ds`, reading a View as its codes."""
    def column(v):
        return (v.codes, v.support) if isinstance(v, View) else ds.codes(v)

    return column, ds.n, None


def mutual_information(ds: Dataset, x, y) -> float:
    """Plug-in I(X;Y) in bits; X and Y are disjoint sets of columns or Views."""
    return _info._mutual_information(_table(ds), x, y)


def conditional_mutual_information(ds: Dataset, x, y, z) -> float:
    """Plug-in I(X;Y|Z) in bits; empty Z reduces to mutual_information."""
    return _info._conditional_mutual_information(_table(ds), x, y, z)


def entropy(ds: Dataset, vars) -> float:
    """Plug-in H(vars) in bits."""
    return _info._entropy(_table(ds), vars)


def _row_tables(ds: Dataset, candidates, y, z=(), planes=None):
    """The joint of (f, Y, Z) for each candidate column f, counted a block
    at a time (`info._row_tables`), after checking every candidate's groups
    as the per-call measures do."""
    cands = list(candidates)
    ys, zs = _info._check_disjoint(y, z)
    if not ys:
        raise ValueError("information measures need nonempty variable sets")
    fixed = set(ys) | set(zs)
    for f in cands:
        if f in fixed:
            raise ValueError(f"variable sets overlap on {f!r}")
    return _info._row_tables(ds.codes, ds.n, cands, [g for g in (ys, zs) if g], planes)


def mutual_information_row(ds: Dataset, candidates, y, z=()) -> list[float]:
    """Plug-in I(f;Y|Z) for each candidate column f, or I(f;Y) for empty Z.

    Equal, bit for bit, to `conditional_mutual_information(ds, [f], y, z)`
    for each f, but counts a block of candidates in one pass.
    """
    return _row_values(_row_tables(ds, candidates, y, z)).tolist()


def _row_values(tables) -> np.ndarray:
    """The values of `_row_tables`' blocks, as one float64 vector."""
    return np.concatenate([rows.values() for rows in tables] or [np.empty(0)])
