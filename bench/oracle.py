"""Plug-in information measures and reference formulas, written apart from miselect.

Everything here works on raw integer code arrays with numpy counts, so a
fault in miselect's estimators, criteria or quantizers cannot hide in the
reference.  Measures are built from entropies of joint codes,
I(X;Y|Z) = H(XZ) + H(YZ) - H(XYZ) - H(Z), which is a different route from
miselect's contingency tables.  All values are in bits.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9          # absolute tolerance for comparing bits and error rates
_RADIX_LIMIT = 1 << 40


def joint_codes(columns) -> np.ndarray:
    """One int64 code per row identifying the tuple of the given columns."""
    columns = list(columns)
    code = np.zeros(len(columns[0]), dtype=np.int64)
    radix = 1
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        card = int(col.max()) + 1
        if radix * card >= _RADIX_LIMIT:
            _, code = np.unique(code, return_inverse=True)
            code = code.astype(np.int64)
            radix = int(code.max()) + 1
        code = code * card + col
        radix *= card
    return code


def entropy(columns) -> float:
    """Plug-in H of the tuple of `columns`; H of no columns is 0."""
    columns = list(columns)
    if not columns:
        return 0.0
    _, counts = np.unique(joint_codes(columns), return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def mi(x, y) -> float:
    """I(X;Y) for lists of columns X and Y."""
    return entropy(x) + entropy(y) - entropy(list(x) + list(y))


def cmi(x, y, z) -> float:
    """I(X;Y|Z) for lists of columns; an empty Z gives I(X;Y)."""
    x, y, z = list(x), list(y), list(z)
    return entropy(x + z) + entropy(y + z) - entropy(x + y + z) - entropy(z)


def map_error(x, c) -> float:
    """Exact error of the MAP rule predicting column c from column x."""
    x = np.asarray(x, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    table = np.zeros((int(x.max()) + 1, int(c.max()) + 1))
    np.add.at(table, (x, c), 1.0)
    return 1.0 - table.max(axis=1).sum() / len(x)


def equal_frequency_codes(values: np.ndarray, bins: int) -> np.ndarray:
    """Rank-based equal-frequency bins for all-distinct values.

    A value of rank r (0-based) falls in bin #{i in 1..bins-1 :
    ceil(n*i/bins) - 1 < r}, so the bin sizes differ by at most one.
    """
    n = len(values)
    if len(np.unique(values)) != n:
        raise ValueError("equal-frequency reference needs all-distinct values")
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(values, kind="stable")] = np.arange(n)
    edges = np.array([-(-n * i // bins) - 1 for i in range(1, bins)], dtype=np.int64)
    return (ranks[:, None] > edges[None, :]).sum(axis=1).astype(np.int64)


def equal_width_codes(values: np.ndarray, bins: int) -> np.ndarray:
    """Bins of width (max - min) / bins, the top edge closed."""
    lo, hi = values.min(), values.max()
    width = (hi - lo) / bins
    return np.minimum(np.floor_divide(values - lo, width), bins - 1).astype(np.int64)


def dense(codes: np.ndarray) -> np.ndarray:
    """Relabel codes to 0..K-1."""
    return np.unique(codes, return_inverse=True)[1].astype(np.int64)


class Reference:
    """Memoized plug-in measures over one dataset's feature and class codes."""

    def __init__(self, names, features: np.ndarray, classes: np.ndarray):
        # views, not copies: joint_codes converts one column at a time
        self.cols = {name: features[:, j] for j, name in enumerate(names)}
        self.names = tuple(names)
        self.c = classes
        self._memo: dict = {}

    def _cols(self, names):
        return [self.cols[v] for v in names]

    def rel(self, f: str) -> float:
        """I(f;C)."""
        return self._get(("rel", f), lambda: mi([self.cols[f]], [self.c]))

    def pair(self, f: str, s: str) -> float:
        """I(f;s)."""
        key = ("pair",) + tuple(sorted((f, s)))
        return self._get(key, lambda: mi([self.cols[f]], [self.cols[s]]))

    def pair_given_c(self, f: str, s: str) -> float:
        """I(f;s|C)."""
        key = ("pairc",) + tuple(sorted((f, s)))
        return self._get(key, lambda: cmi([self.cols[f]], [self.cols[s]], [self.c]))

    def rel_given(self, f: str, s: str) -> float:
        """I(f;C|s)."""
        return self._get(("relg", f, s),
                         lambda: cmi([self.cols[f]], [self.c], [self.cols[s]]))

    def joint_rel(self, S) -> float:
        """I(S;C) for a feature set S."""
        key = ("joint", frozenset(S))
        return self._get(key, lambda: mi(self._cols(sorted(S)), [self.c]) if S else 0.0)

    def cond_rel(self, f: str, Z) -> float:
        """I(f;C|Z)."""
        key = ("condrel", f, frozenset(Z))
        return self._get(key, lambda: cmi([self.cols[f]], [self.c], self._cols(sorted(Z))))

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def pairwise_score(kind: str, f: str, S, ref: Reference, beta: float | None = None) -> float:
    """A pairwise criterion's score of candidate f given ordered selection S.

    With an empty S every criterion reduces to the relevance I(f;C).
    """
    S = tuple(S)
    rel = ref.rel(f)
    if not S:
        return rel
    p = len(S)
    red = [ref.pair(f, s) for s in S]
    comp = [ref.pair_given_c(f, s) for s in S]
    if kind == "mim":
        return rel
    if kind == "mifs":
        return rel - beta * sum(red)
    if kind == "mrmr":
        return rel - sum(red) / p
    if kind == "jmi":
        return rel - (sum(red) - sum(comp)) / p
    if kind == "cife":
        return rel - sum(red) + sum(comp)
    if kind == "cmifs":
        if p == 1:
            return rel - red[0] + comp[0]
        s1, st = S[0], S[-1]
        chain = cmi([ref.cols[f]], [ref.cols[st]], [ref.cols[s1]])
        return (rel - ref.pair(f, st) + ref.pair_given_c(f, s1)
                + ref.pair_given_c(f, st) - chain)
    if kind == "cmim":
        return min(ref.rel_given(f, s) for s in S)
    if kind == "cmim2":
        return sum(ref.rel_given(f, s) for s in S) / p
    if kind == "icap":
        return rel - sum(max(0.0, r - c) for r, c in zip(red, comp))
    raise ValueError(f"no reference formula for {kind!r}")
