"""Discrete information measures (all in bits, log base 2).

Each measure takes an exact `JointDistribution` or a plug-in `data.Dataset`,
reading only its table of rows, and on a Dataset equals the `miselect.data`
measure of the same name bit for bit.  Both are a row of one counting kernel
(`_row_tables`), weighted or not, finished by `_Rows.values` over the nonzero
cells only: a per-call measure is the row of one candidate, its X group.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .distribution import JointDistribution, _as_vars

if TYPE_CHECKING:
    from .data import Dataset

# Values this close to zero are treated as exactly zero, so the many
# "= 0" identities hold under floating point.
ZERO_TOL = 1e-12


def clip_zero(value: float) -> float:
    return 0.0 if abs(value) < ZERO_TOL else value


def _sum_in_order(values) -> float:
    """The floats summed left to right from 0.0.  From Python 3.12 the
    builtin `sum` compensates float sums, which changes the last bits."""
    total = 0.0
    for value in values:
        total += value
    return total


def _check_disjoint(*groups) -> list[tuple[str, ...]]:
    """The groups as tuples of names; raises if two of them share a name."""
    groups = [_as_vars(g) for g in groups]
    seen = set()
    for g in groups:
        for v in g:
            if v in seen:
                raise ValueError(f"variable sets overlap on {v!r}")
            seen.add(v)
    return groups


def _ranks(code: np.ndarray, radix: int | None = None) -> tuple[np.ndarray, int]:
    """Relabel codes to 0..K-1 preserving order; K = distinct count.

    Codes known to lie below a `radix` of at most twice their number are
    ranked by counting, which beats sorting there; others by sorting.
    """
    if radix is not None and radix <= 2 * len(code):
        rank = np.cumsum(np.bincount(code, minlength=radix) > 0) - 1
        return rank[code], int(rank[-1]) + 1
    uniq, inv = np.unique(code, return_inverse=True)
    return inv, len(uniq)


def _code(cols, n: int) -> tuple[np.ndarray, int]:
    """Mixed-radix code of the rows of (codes, cardinality) columns, and its radix.

    Codes order the rows lexicographically by the columns.  Whenever the
    radix passes n the code is recoded to dense ranks, and so is a column
    whose cardinality passes n: the radix returned is at most n.  Once the
    ranks number n the rows are all apart, no later column can reorder them,
    and those ranks are returned.  The code of one column may be that
    column's own array: callers never write it.
    """
    if not cols:
        raise ValueError("information measures need nonempty variable sets")
    code, radix = None, 1
    for col, card in cols:
        if card > n:
            col, card = _ranks(col, card)
        code = col.astype(np.int64, copy=False) if code is None else code * card + col
        radix *= card
        if radix > n:
            code, radix = _ranks(code, radix)
            if radix == n:
                break
    return code, radix


def _leave_one_out(cols, n: int) -> list[tuple[np.ndarray, int]]:
    """The (code, radix) of `cols` with each column left out in turn.

    Entry i orders the rows as `_code` of every column but the i-th does:
    the two-column code of the columns before i and those after it, or one
    of the two at either end.  Prefixes and suffixes grow a column at a
    time: O(len(cols)) two-column `_code` calls, O(len(cols) * n) memory.
    Once a prefix keeps every row apart (n distinct codes of radix n), each
    later entry is that prefix.  Needs at least two columns.
    """
    if len(cols) < 2:
        raise ValueError("leaving one column out needs at least two columns")
    suffix = [cols[-1]]
    for col in reversed(cols[1:-1]):
        suffix.append(_code([col, suffix[-1]], n))
    suffix.reverse()              # suffix[i] codes cols[i + 1:]
    out, prefix = [suffix[0]], cols[0]
    for i in range(1, len(cols) - 1):
        if prefix[1] == n and np.bincount(prefix[0], minlength=n).all():
            return out + [prefix] * (len(cols) - i)
        out.append(_code([prefix, suffix[i]], n))
        prefix = _code([prefix, cols[i]], n)   # now codes cols[:i + 1]
    return out + [prefix]


# Candidate columns counted together in one pass hold at most this many
# row codes, so a block's transient int64 arrays stay near 8 MiB.
BLOCK_CODES = 1 << 20

# Counting by bit planes costs one AND and popcount of n/64 words for each
# pair of a value 1..card-1 of a candidate and a value 1..radix-1 of the
# groups (`_count_planes`); counting by codes costs a few passes over n codes
# for each candidate.  Planes are used while the block costs at most this
# many such pairs per candidate, a one-valued candidate counted as one value
# so that the rule bounds radix and the group's planes too: for 98
# candidates of 2 to 8 values at n=2000 and n=10k, the two took the same
# time at 55 to 90 (2 vCPU, numpy 2.4).
PLANE_CELLS = 80

# A column of more values has no planes: they would take more bits than its
# codes as int64.
PLANE_VALUES = 65


def _planes(code: np.ndarray, card: int) -> np.ndarray:
    """The complement bit planes of a column: one per value 1..card-1, value
    0 being what they leave, bit i of the plane of value a set where
    code[i] == a.  A (card - 1, ceil(n/64)) uint64 array; bits past n are 0.
    The codes' dtype must hold card - 1."""
    n = len(code)
    bits = np.zeros((card - 1, -(-n // 64) * 64), dtype=bool)
    # values in the codes' own dtype: a mixed-dtype compare is 3x slower
    np.equal(code, np.arange(1, card, dtype=code.dtype)[:, None], out=bits[:, :n])
    return np.packbits(bits, axis=1).view(np.uint64)


class _PlaneStore:
    """The `_planes` of a table's columns and the popcount of each, in one
    (sum(card - 1), ceil(n/64)) uint64 array.

    `slots` numbers the columns of PLANE_VALUES values or fewer; a column's
    planes are built the first time a block holds it, written into its own
    rows, and kept as long as the store.
    """

    def __init__(self, names, cards, column, n):
        held = [(v, card) for v, card in zip(names, cards) if card <= PLANE_VALUES]
        self.column, self.words = column, -(-n // 64)
        self.names = [v for v, _ in held]
        self.slot = {v: j for j, v in enumerate(self.names)}
        self.cards = np.array([card for _, card in held], dtype=np.int64)
        self.start = np.cumsum(self.cards - 1) - (self.cards - 1)
        self.built = np.zeros(len(held), dtype=bool)
        self.planes = self.pops = None

    def slots(self, block) -> np.ndarray | None:
        """The slots of a block of candidates, or None unless each is a column
        with planes (not a View or a group)."""
        at = [self.slot.get(f) for f in block]
        return None if None in at else np.array(at)

    def rows(self, at, card):
        """The planes and popcounts of the columns at slots `at`, gathered in
        that order, and the row of each plane in a (len(at), card) layout:
        i * card + a for value a of the i-th column."""
        if self.planes is None:
            rows = int((self.cards - 1).sum())
            self.planes = np.empty((rows, self.words), dtype=np.uint64)
            self.pops = np.empty(rows, dtype=np.int64)
        for j in at[~self.built[at]]:
            planes = _planes(*self.column(self.names[j]))
            here = slice(self.start[j], self.start[j] + len(planes))
            self.planes[here] = planes
            self.pops[here] = np.bitwise_count(planes).sum(axis=1)
            self.built[j] = True
        width = self.cards[at] - 1
        own = np.repeat(np.arange(len(at)), width)
        value = np.arange(len(own)) - (np.cumsum(width) - width)[own]   # a - 1
        take = self.start[at][own] + value
        return self.planes[take], self.pops[take], own * card + value + 1


def _count_codes(cols, g, radix, n, weights=None):
    """The nonzero cells of the block's (k, card, radix) layout and their
    counts, or summed `weights` over the rows, and its card: the largest
    cardinality of the k candidates.  Each candidate takes one `np.bincount`
    of its mixed-radix codes, in the narrowest dtype from int16 that holds
    the layout, or a sort when its own cells pass twice its number of
    codes.  A column whose cardinality passes n is ranked first."""
    cols = [_ranks(col, card) if card > n else (col, card) for col, card in cols]
    card = max(c for _, c in cols)
    dtype = np.result_type(np.int16, np.min_scalar_type(card * radix))
    g = np.asarray(g, dtype=dtype)
    code = np.empty(n, dtype=dtype)
    cells, counts = [], []
    for i, (col, c) in enumerate(cols):
        np.multiply(col, radix, out=code, dtype=dtype)
        code += g
        if c * radix <= 2 * n:
            count = np.bincount(code, weights, minlength=c * radix)
            at = np.flatnonzero(count)
            count = count[at]
        elif weights is None:
            at, count = np.unique(code, return_counts=True)
        else:
            at, inverse = np.unique(code, return_inverse=True)
            count = np.bincount(inverse, weights)
        cells.append(at.astype(np.int64) + i * card * radix)
        counts.append(count)
    return np.concatenate(cells), np.concatenate(counts), card


def _count_planes(planes, pops, place, k, card, group_planes, group_counts):
    """The nonzero cells of the block's (k, card, radix) layout and their
    counts, from the candidates' planes, their popcounts and their rows
    `place` in the layout (`_PlaneStore.rows`), and the `_planes` of the
    groups' code g and its count of each value.

    Cell (a, b) for values a, b > 0 is the popcount of plane a AND plane b.
    A cell of value 0 is what the others leave: (a, 0) of plane a's
    popcount, (0, b) of the count of g == b.
    """
    sums = np.int32 if 64 * planes.shape[1] < 2**31 else np.int64
    radix = len(group_counts)
    above = np.empty((len(planes), radix), dtype=np.int64)   # the cells of values a > 0
    both = np.empty_like(planes)
    bits = np.empty(planes.shape, dtype=np.uint8)
    for b, plane in enumerate(group_planes, 1):
        np.bitwise_and(planes, plane, out=both)
        np.bitwise_count(both, out=bits)
        above[:, b] = bits.sum(axis=1, dtype=sums)
    above[:, 0] = pops - above[:, 1:].sum(axis=1)
    counts = np.zeros((k * card, radix), dtype=np.int64)
    counts[place] = above
    counts = counts.reshape(k, card, radix)
    counts[:, 0] = group_counts - counts[:, 1:].sum(axis=1)
    counts = counts.ravel()
    cells = np.flatnonzero(counts)
    return cells, counts[cells]


def _segment_sums(terms: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """`np.sum(terms[a:b])` for each pair of consecutive `bounds`, bit for bit:
    `np.add.reduceat` adds a segment's first term to numpy's pairwise sum of
    the rest, and `np.sum` adds 0.0 to the pairwise sum of it all, so the two
    agree once a 0.0 leads each segment."""
    lead = bounds[:-1] + np.arange(len(bounds) - 1)
    led = np.zeros(len(terms) + len(lead))
    rest = np.ones(len(led), dtype=bool)
    rest[lead] = False
    led[rest] = terms
    return np.add.reduceat(led, lead)


# The terms of H(X), H(X|G), I(X;Y) and I(X;Y|Z) over the cells of the joint of
# X and the groups: p log2 of the cell mass p and `margin(*groups)` at the cell.

def _h_terms(p, margin) -> np.ndarray:
    return -(p * np.log2(p))


def _ch_terms(p, margin) -> np.ndarray:
    return p * np.log2(margin(1) / p)


def _mi_terms(p, margin) -> np.ndarray:
    return p * np.log2(p / (margin(0) * margin(1)))


def _cmi_terms(p, margin) -> np.ndarray:
    return p * np.log2(p * margin(2) / (margin(0, 2) * margin(1, 2)))


# n rows of named columns as the kernel reads them: `column(name)` gives (codes,
# cardinality).  Row i has mass weights[i], or 1/n where weights is None, and
# then the table may hold its columns' complement planes in a `_PlaneStore`.
# `JointDistribution` and `data.Dataset` each build theirs once, at construction.
_Table = namedtuple("_Table", "column n weights planes")


class _Rows:
    """The counted joints of (f, *groups) for a block of k candidates f.

    Holds the count (over a weighted table, the mass) of each nonzero cell,
    in lexicographic order by (candidate, f, groups); the candidate of each
    cell; and the (codes, cardinality) of f and of each group at each cell.
    """

    def __init__(self, counts, which, comps, k, table):
        self.counts, self.which, self.comps, self.k, self.table = counts, which, comps, k, table

    def values(self, terms=None) -> np.ndarray:
        """The sum of `terms` over each candidate's cells, clipped to 0 below
        ZERO_TOL; by default I(f;Y|Z) when the groups are Y and Z, or I(f;Y)
        for one group Y.  A sum is `np.sum` of the candidate's terms."""
        p = self.counts if self.table.weights is not None else self.counts / self.table.n
        lead, cap = [(self.which, self.k)] if self.k > 1 else [], max(len(p), self.table.n)

        def margin(*idx):
            # any code that groups the cells alike gives the same sums, so it
            # is ranked only where its bincount would pass the cells and n
            at = _code(lead + [self.comps[i] for i in idx], cap)[0]
            return np.bincount(at, weights=p)[at]

        t = (terms or (_cmi_terms if len(self.comps) == 3 else _mi_terms))(p, margin)
        total = _segment_sums(t, np.searchsorted(self.which, np.arange(self.k + 1)))
        return np.where(total < ZERO_TOL, 0.0, total)

    def marginal(self) -> _Rows:
        """The joints with the last group summed out of the integer counts:
        the same counts, cells and order as counting without that group."""
        keep = self.comps[:-1]
        first = np.ones(len(self.counts), dtype=bool)
        first[1:] = self.which[1:] != self.which[:-1]
        for code, _ in keep:
            first[1:] |= code[1:] != code[:-1]
        first = np.flatnonzero(first)
        return _Rows(np.add.reduceat(self.counts, first), self.which[first],
                     [(code[first], card) for code, card in keep], self.k, self.table)


def _layout(table, groups):
    """The code g over the rows of the groups' joint, its radix, and for
    each group, how to read its code at a value b of g: b itself where g is
    that one group's code, else an array indexed by b."""
    fixed = [_code([table.column(v) for v in grp], table.n) for grp in groups]
    if len(fixed) < 2:
        return *(fixed[0] if fixed else (0, 1)), [(None, card) for _, card in fixed]
    g, radix = _code(fixed, table.n)
    parts = [(np.zeros(radix, dtype=np.int64), card) for _, card in fixed]
    for (part, _), (col, _) in zip(parts, fixed):
        part[g] = col
    return g, radix, parts


def _rows(cells, counts, k, card, radix, parts, table) -> _Rows:
    """The `_Rows` of a block's counted (k, card, radix) layout, in which
    the i-th candidate's cell (a, b) for f = a and the groups' code b sits
    at (i * card + a) * radix + b."""
    cell, b = np.divmod(cells, radix)
    which, value = np.divmod(cell, card)
    comps = [(value, card)] + [(b if part is None else part[b], c) for part, c in parts]
    return _Rows(counts, which, comps, k, table)


def _row_tables(table, candidates, groups):
    """The joint of (f, *groups) for each candidate f, as one `_Rows` per
    block of candidates, each counted in one pass: the one place anything is
    counted.  A candidate is a column (a name or a View), or a tuple of them
    coded into one with `_code` and checked as a per-call measure's X group is.

    A block of named columns of a table with planes that costs at most
    PLANE_CELLS pairs of values per candidate (`_count_planes`) is counted by
    popcount over their complement planes, reading no codes; any other by
    `bincount`.  Both give the same counts.
    """
    groups = _check_disjoint(*groups)
    groups = groups[:1] + [grp for grp in groups[1:] if grp]   # I(f;Y|{}) is I(f;Y)
    fixed = set().union(*groups)
    for x in candidates:
        if x in fixed or isinstance(x, tuple) and (len(set(x)) < len(x)
                                                   or not fixed.isdisjoint(x)):
            _check_disjoint(x, *groups)
    g, radix, parts = _layout(table, groups)
    store, group = table.planes, None
    per_block = max(1, BLOCK_CODES // table.n)
    for i in range(0, len(candidates), per_block):
        block = candidates[i:i + per_block]
        at = None if store is None else store.slots(block)
        cards = None if at is None else store.cards[at]
        if (cards is not None
                and np.maximum(cards - 1, 1).sum() * (radix - 1) <= PLANE_CELLS * len(block)):
            if group is None:   # built once per row
                group = _planes(g, radix), np.bincount(g, minlength=radix)
            card = int(cards.max())
            cells, counts = _count_planes(*store.rows(at, card), len(block), card, *group)
        else:
            cols = [_code([table.column(v) for v in f], table.n) if isinstance(f, tuple)
                    else table.column(f) for f in block]
            cells, counts, card = _count_codes(cols, g, radix, table.n, table.weights)
        yield _rows(cells, counts, len(block), card, radix, parts, table)


def _row_values(tables) -> np.ndarray:
    """The values of `_row_tables`' blocks, as one float64 vector."""
    return np.concatenate([rows.values() for rows in tables] or [np.empty(0)])


def _measure(table, x, *groups, terms=None) -> float:
    """The sum of `terms` over the joint of group X and the groups (by
    default I(X;Y|Z) or I(X;Y)): the row of one candidate, X."""
    return float(next(_row_tables(table, [_as_vars(x)], groups)).values(terms)[0])


def entropy(dist: JointDistribution | Dataset, vars) -> float:
    """H(vars): -sum p log2 p over the marginal; 0*log 0 := 0."""
    return _measure(dist._table, vars, terms=_h_terms)


def conditional_entropy(dist: JointDistribution | Dataset, target, given) -> float:
    """H(target | given) = sum p(t,g) log2( p(g) / p(t,g) )."""
    g = _as_vars(given)
    return (_measure(dist._table, target, g, terms=_ch_terms) if g
            else _measure(dist._table, target, terms=_h_terms))


def mutual_information(dist: JointDistribution | Dataset, x, y) -> float:
    """I(X;Y) = sum p(x,y) log2( p(x,y) / (p(x) p(y)) ); symmetric, >= 0."""
    return _measure(dist._table, x, y)


def conditional_mutual_information(dist: JointDistribution | Dataset, x, y, z) -> float:
    """I(X;Y|Z) = sum p(x,y,z) log2( p(x,y,z) p(z) / (p(x,z) p(y,z)) ).

    Empty Z reduces to I(X;Y).
    """
    return _measure(dist._table, x, y, z)


def _conditional_interaction(dist, groups, cond) -> float:
    if len(groups) == 2:
        return conditional_mutual_information(dist, groups[0], groups[1], cond)
    head, tail = groups[:-1], groups[-1]
    return (_conditional_interaction(dist, head, cond + tail)
            - _conditional_interaction(dist, head, cond))


def interaction_information(dist: JointDistribution | Dataset, groups) -> float:
    """Signed k-way interaction (multi-information among groups).

    For two groups this is plain MI.  For k > 2 it follows the recursion
    I(G1;...;Gk) = I(G1;...;G_{k-1} | Gk) - I(G1;...;G_{k-1}), with the
    conditioning distributed over every term, so the 3-way case is
    I(x;y;z) = I(x;y|z) - I(x;y).  Positive values indicate synergy,
    negative values redundancy.
    """
    gs = [_as_vars(g) for g in groups]
    if len(gs) < 2:
        raise ValueError("interaction_information needs at least two groups")
    for g in gs:
        if not g:
            raise ValueError("groups must be nonempty")
    _check_disjoint(*gs)
    return clip_zero(_conditional_interaction(dist, gs, ()))


def total_correlation(dist: JointDistribution | Dataset, vars) -> float:
    """C(f1;...;fm) = sum_i H(f_i) - H(f1,...,fm); >= 0."""
    vs, = _check_disjoint(vars)
    if len(vs) < 2:
        raise ValueError("total_correlation needs at least two variables")
    tc = _sum_in_order(entropy(dist, v) for v in vs) - entropy(dist, vs)
    return max(clip_zero(tc), 0.0)


MAX_DECOMPOSITION_VARS = 12


def joint_mi_by_decomposition(dist: JointDistribution | Dataset, vars, target) -> float:
    """I({x1..xm};C) as the sum of interaction terms over all subsets.

    Sums I(s1;...;sk;C) over every nonempty subset {s1..sk} of `vars`.
    Combinatorial in len(vars); serves as an oracle for the direct joint
    MI computation.
    """
    vs = _as_vars(vars)
    ts = _as_vars(target)
    if len(vs) > MAX_DECOMPOSITION_VARS:
        raise ValueError(
            f"decomposition limited to {MAX_DECOMPOSITION_VARS} variables, got {len(vs)}")
    if not vs:
        raise ValueError("vars must be nonempty")
    _check_disjoint(vs, ts)
    total = 0.0
    for k in range(1, len(vs) + 1):
        for subset in combinations(vs, k):
            groups = [(v,) for v in subset] + [ts]
            total += interaction_information(dist, groups)
    return clip_zero(total)
