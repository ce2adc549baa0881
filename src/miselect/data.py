"""Dataset ingestion, quantization, empirical distributions, and the plug-in
measures: each a row of the one counting kernel, `info._row_tables`."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import info as _info
from .distribution import JointDistribution, _as_vars, _check_codes

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples of m discrete-coded feature columns plus a class column.

    Immutable after construction.  The codes are read-only copies in the
    narrowest signed integer dtype that holds the cardinalities, the
    features column-major, so reading one column is one contiguous read.
    Datasets compare by identity.  Codes must be of an integer or bool dtype
    (`distribution._check_codes`, as for a `JointDistribution`'s states).
    """

    features: np.ndarray              # (n, m) integer codes
    class_codes: np.ndarray           # (n,)
    feature_cards: tuple[int, ...]
    class_card: int
    feature_names: tuple[str, ...]
    target_name: str
    meta: dict = field(default_factory=dict)
    _index: dict = field(init=False, repr=False)   # name -> column
    _table: tuple = field(init=False, compare=False, repr=False)   # the kernel's `info._Table`

    def __post_init__(self):
        feats, cls = np.asarray(self.features), np.asarray(self.class_codes)
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
        _check_codes(feats.T, self.feature_cards, self.feature_names)
        _check_codes([cls], [self.class_card], [self.target_name])
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
        planes = _info._PlaneStore(self.feature_names + (self.target_name,),
                                   self.feature_cards + (self.class_card,), self.codes, n)
        object.__setattr__(self, "_table", _info._Table(self._column, n, None, planes))

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

    def _column(self, v) -> tuple[np.ndarray, int]:
        """`codes` of a column name, or the codes and support of a View."""
        return (v.codes, v.support) if isinstance(v, View) else self.codes(v)


def quantize_column(values: np.ndarray, spec: QuantizerSpec) -> tuple[np.ndarray, int]:
    """Discretize one numeric column into dense codes, in the narrowest
    signed integer dtype that holds them (`_code_dtype`)."""
    codes, card = _quantize(values, spec)
    return codes.astype(_code_dtype([card]), copy=False), card


def _quantize(values, spec: QuantizerSpec) -> tuple[np.ndarray, int]:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize a non-finite value (nan, inf or -inf)")
    if spec.strategy == "pass-through":
        if not np.all(values == np.floor(values)):
            raise ValueError("pass-through quantizer requires integer-valued column")
        # ranked as floats: an int64 cast maps every value past 2**63 to one code
        return _info._ranks(values)
    lo, hi = values.min(), values.max()
    if lo == hi:
        return np.zeros(len(values), dtype=np.int8), 1
    if spec.strategy == "equal-width":
        # binned after an exact scaling by a power of two that brings the
        # largest magnitude into [0.5, 1): hi - lo cannot overflow then, nor
        # its width underflow to 0, and other columns keep their codes
        scale = -np.frexp(max(abs(lo), abs(hi)))[1]
        values, lo, hi = np.ldexp(values, scale), np.ldexp(lo, scale), np.ldexp(hi, scale)
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


def _encode_column(values: np.ndarray, tokens, name: str,
                   spec: QuantizerSpec) -> tuple[np.ndarray, int]:
    """Codes of a column as either reader gives it: its float64 values (all
    finite) where `tokens` is None, else each row's index into `tokens`, the
    column's distinct raw tokens in the order first read."""
    if tokens is not None:
        tokens = list(tokens)
        ids = values.astype(np.intp)
        try:
            # one pass with float() semantics: surrounding whitespace, digit
            # separators and non-ASCII digits parse as they do there
            numeric = np.array(tokens, dtype=np.float64)
        except ValueError:
            return _encode_tokens(ids, tokens, name)
        values = numeric[ids]
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"non-finite value {tokens[ids[bad[0]]].strip()!r} in column {name!r}")
    if spec.strategy == "pass-through":
        bad = np.flatnonzero(values != np.floor(values))
        if len(bad):
            raise ValueError("pass-through quantizer requires integer-valued column "
                             f"{name!r}, got {float(values[bad[0]])!r}")
    return quantize_column(values, spec)


def _encode_tokens(ids: np.ndarray, tokens: list, name: str) -> tuple[np.ndarray, int]:
    """Label codes of a column that does not parse as numbers, or the error
    of a numeric column with a missing value; `tokens` are its distinct raw
    tokens and `ids` each row's index into them."""
    stripped = [v.strip() for v in tokens]
    if "" in stripped:
        raise ValueError(f"missing value in column {name!r}")
    words = sorted(v for v in set(stripped) if not _is_number(v))
    if words and all(w.lower() in MISSING_TOKENS for w in words):
        raise ValueError(f"missing value {words[0]!r} in numeric column {name!r}")
    # string column: deterministic lexicographic label encoding
    labels = sorted(set(stripped))
    table = {lab: i for i, lab in enumerate(labels)}
    codes = np.array([table[v] for v in stripped], dtype=_code_dtype([len(labels)]))
    return codes[ids], len(labels)


def _token_coder(tokens: dict):
    """A converter that reads each raw token as its index among the distinct
    tokens read so far, kept in first-read order in `tokens`."""
    def convert(token):
        return tokens.setdefault(token, len(tokens))
    return convert


def _check_header(header, target_name: str) -> list[str]:
    """The stripped column names, or the error of a header load_csv rejects."""
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
    return header


def _read_rows(path, target_name: str) -> tuple[list[str], np.ndarray, dict]:
    """Header, token ids and distinct tokens of every column, read by the csv
    module: the reference reading, and the one whose errors load_csv
    reports."""
    # utf-8-sig drops a byte-order mark, which would hide the first header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    header = _check_header(header, target_name)
    if not rows:
        raise ValueError("CSV has a header but no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged row {i + 2}: expected {width} fields, got {len(row)}")
    tokens = {j: {} for j in range(width)}
    ids = np.empty((len(rows), width))
    for j, column in enumerate(zip(*rows)):
        ids[:, j] = list(map(_token_coder(tokens[j]), column))
    return header, ids, tokens


# The ASCII file, group, record and unit separators: loadtxt's number parser
# skips them as whitespace, and float() does not.
_NOT_SPACE_TO_FLOAT = "\x1c\x1d\x1e\x1f"
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)

# Characters of a CSV body that `_read_numbers` reads at a time.
CHUNK_CHARS = 1 << 16


class _Lines:
    """The lines of the rest of a text file, as `fh.read().split("\\n")`
    gives them less an empty last one, read `CHUNK_CHARS` characters at a
    time; `count` is the number yielded so far.

    Raises ValueError, and so stops, at the first chunk that holds what the
    C pass cannot vouch for (see `_read_numbers`): a blank line, a line
    equal to `\\r`, one longer than `csv.field_size_limit()` (found before
    the line ends, so no line is held past it), or one of `\\x1c`-`\\x1f`.
    """

    def __init__(self, fh):
        self.fh = fh
        self.count = 0

    def __iter__(self):
        limit = csv.field_size_limit()
        head, size = [], 0            # the pieces of a line not yet ended
        while chunk := self.fh.read(CHUNK_CHARS):
            if any(c in chunk for c in _NOT_SPACE_TO_FLOAT):
                raise ValueError("a separator the C pass reads as whitespace")
            *lines, rest = chunk.split("\n")
            if lines:
                head.append(lines[0])
                lines[0] = "".join(head)
                head, size = [], 0
            head.append(rest)
            size += len(rest)
            yield from self._vouched(lines, size, limit)
        yield from self._vouched(["".join(head)] if size else [], 0, limit)

    def _vouched(self, lines, size, limit):
        if ("" in lines or "\r" in lines or size > limit
                or (lines and max(map(len, lines)) > limit)):
            raise ValueError("a line the C pass cannot vouch for")
        self.count += len(lines)
        return lines


def _read_numbers(path, target_name: str):
    """Header, values and distinct tokens from one `np.loadtxt` pass over the
    body, or None where that pass might read the file otherwise than
    `_read_rows` does.

    The body streams through the pass in chunks (`_Lines`), so no copy of
    its text is held.  A column whose first value is a number comes back as
    float64 from numpy's C parser, with no Python object per field; each
    other column is read as token ids, keeping only its distinct tokens.
    Besides loadtxt raising nothing, the pass needs:
    - no blank line, which loadtxt skips and csv reports as a ragged row;
    - one record per line, since loadtxt joins the lines of a record with a
      line end inside quotes, dropping that line end: the row count falls
      short of the line count;
    - no line longer than `csv.field_size_limit()`, which loadtxt does not
      enforce;
    - every number finite, since the error of a non-finite one names its
      token.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            body = _Lines(fh)
            lines = iter(body)
            first = next(lines, None)
            if first is None:
                return None
            kinds = np.loadtxt([first], dtype=object, **_LOADTXT)[0]
            tokens = {j: {} for j, token in enumerate(kinds) if not _is_number(token)}
            values = np.loadtxt(itertools.chain([first], lines), dtype=np.float64, **_LOADTXT,
                                converters={j: _token_coder(t) for j, t in tokens.items()})
    except (csv.Error, ValueError):   # a UnicodeDecodeError is a ValueError
        return None
    if values.shape != (body.count, len(header)) or not np.isfinite(values).all():
        return None
    return _check_header(header, target_name), values, tokens


def load_csv(path, target_name: str,
             quantizer: QuantizerSpec = QuantizerSpec()) -> Dataset:
    """Load an RFC-4180-style CSV with a header row into a Dataset.

    Numeric feature columns are quantized per `quantizer`; string columns
    are label-encoded in lexicographic order.  The target column is never
    binned (pass-through for numeric targets).  A column of numbers with a
    non-finite value (nan, inf) or a missing-value token (MISSING_TOKENS,
    such as NA) is rejected, and so is a line the csv module cannot parse,
    a header that repeats a name, or one that holds only the target.

    The body is read in one C pass (`_read_numbers`); a file that pass cannot
    vouch for is read again, row by row, by the csv module (`_read_rows`),
    which gives the same result and reports the errors.
    """
    header, values, tokens = (_read_numbers(path, target_name)
                              or _read_rows(path, target_name))
    feat_names = [h for h in header if h != target_name]
    # each column's codes come narrow, and the values go before they are stacked
    columns, cards = [], []
    for name in feat_names:
        j = header.index(name)
        codes, card = _encode_column(values[:, j], tokens.get(j), name, quantizer)
        columns.append(codes)
        cards.append(card)
    j = header.index(target_name)
    cls, class_card = _encode_column(values[:, j], tokens.get(j), target_name,
                                     QuantizerSpec("pass-through", 2))
    del values
    return Dataset(
        features=np.column_stack(columns),
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
    return _info._ranks(*_info._code([ds.codes(v) for v in _as_vars(vars)], ds.n))


@dataclass(frozen=True, eq=False)
class View:
    """A precomputed composite (codes, support), such as `composite_view` gives.

    In a variable group of `mutual_information`, `conditional_mutual_information`
    or `entropy`, or as a candidate of `mutual_information_row` or in a group
    candidate there, a View stands for the columns it was built from, at its
    place in the group: as a whole Z group, say, or as the leading columns of
    an X group.  The value is then equal, bit for bit, to the one over the
    columns, because the view's codes order the rows as the columns'
    mixed-radix code does.  Views compare by identity, so one never equals a
    column name.
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
    return [View(*_info._ranks(*code))
            for code in _info._leave_one_out([ds.codes(v) for v in _as_vars(vars)], ds.n)]


def empirical_distribution(ds: Dataset, vars) -> JointDistribution:
    """Plug-in joint distribution of the named columns (counts / n)."""
    cols = [ds.codes(v) for v in _as_vars(vars)]
    cell, k = _info._ranks(*_info._code(cols, ds.n))
    states = np.empty((k, len(cols)), dtype=np.int64)
    states[cell] = np.column_stack([c for c, _ in cols])
    return JointDistribution(
        variables=_as_vars(vars),
        cardinalities=tuple(card for _, card in cols),
        mass=dict(zip(map(tuple, states.tolist()), (np.bincount(cell) / ds.n).tolist())),
        origin="empirical",
        sample_count=ds.n,
    )


def mutual_information(ds: Dataset, x, y) -> float:
    """Plug-in I(X;Y) in bits; X and Y are disjoint sets of columns or Views."""
    return _info._measure(ds._table, x, y)


def conditional_mutual_information(ds: Dataset, x, y, z) -> float:
    """Plug-in I(X;Y|Z) in bits; empty Z reduces to mutual_information."""
    return _info._measure(ds._table, x, y, z)


def entropy(ds: Dataset, vars) -> float:
    """Plug-in H(vars) in bits."""
    return _info._measure(ds._table, vars, terms=_info._h_terms)


def mutual_information_row(ds: Dataset, candidates, y, z=()) -> list[float]:
    """Plug-in I(f;Y|Z) for each candidate f, or I(f;Y) for empty Z.

    A candidate is a column or View, or a tuple of them.  Equal, bit for bit,
    to `conditional_mutual_information(ds, f, y, z)` for each (`[f]` for a
    column or View), but counts a block of candidates in one pass.
    """
    return _info._row_values(_info._row_tables(ds._table, list(candidates), [y, z])).tolist()
