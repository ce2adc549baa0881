"""Exact discrete information measures (all in bits, log base 2).

These measures and their plug-in twins in `miselect.data` share one
counting kernel, which sums each formula over the nonzero cells only.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .distribution import JointDistribution, _as_vars

# Values this close to zero are treated as exactly zero, so the many
# "= 0" identities hold under floating point.
ZERO_TOL = 1e-12


def clip_zero(value: float, tol: float = ZERO_TOL) -> float:
    return 0.0 if abs(value) < tol else value


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


def _ranks(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel codes to 0..K-1 preserving order; K = distinct count."""
    uniq, inv = np.unique(code, return_inverse=True)
    return inv, len(uniq)


def _code(cols, n: int) -> tuple[np.ndarray, int]:
    """Mixed-radix code of the rows of (codes, cardinality) columns, and its radix.

    Codes order the rows lexicographically by the columns.  Whenever the
    radix passes n the code is recoded to dense ranks, and so is a column
    whose cardinality passes n: codes stay below n*n, never overflow int64,
    and the radix returned is at most n.
    """
    if not cols:
        raise ValueError("information measures need nonempty variable sets")
    code, radix = np.zeros(n, dtype=np.int64), 1
    for col, card in cols:
        if card > n:
            col, card = _ranks(col)
        code = code * card + col
        radix *= card
        if radix > n:
            code, radix = _ranks(code)
    return code, radix


def _leave_one_out(cols, n: int) -> list[tuple[np.ndarray, int]]:
    """The (code, radix) of `cols` with each column left out in turn.

    Entry i orders the rows as `_code` of every column but the i-th does:
    it is the two-column code of the columns before i and those after it,
    or just one of the two at either end.  Prefixes and suffixes are each
    extended one column at a time, so the whole list takes O(len(cols))
    two-column `_code` calls and O(len(cols) * n) memory.  Needs at least
    two columns.
    """
    if len(cols) < 2:
        raise ValueError("leaving one column out needs at least two columns")
    suffix = [cols[-1]]
    for col in reversed(cols[1:-1]):
        suffix.append(_code([col, suffix[-1]], n))
    suffix.reverse()              # suffix[i] codes cols[i + 1:]
    out, prefix = [suffix[0]], cols[0]
    for i in range(1, len(cols) - 1):
        out.append(_code([prefix, suffix[i]], n))
        prefix = _code([prefix, cols[i]], n)   # now codes cols[:i + 1]
    return out + [prefix]


def _cells(cols, n: int, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cell (its dense lexicographic rank in `cols`) and the count,
    or summed weight, of every cell.  Rows must have positive weight."""
    code, radix = _code(cols, n)
    counts = np.bincount(code, weights=weights, minlength=radix)
    keep = counts > 0
    return (np.cumsum(keep) - 1)[code], counts[keep]


def _joint(table, *groups):
    """The nonzero cells of the joint of variable groups over a table.

    A table is (column, n, weights): `column(name)` gives (codes,
    cardinality) over n rows, each row weighted by `weights` or by 1/n.
    Returns the mass p of each cell, in lexicographic order, and
    `margin(*i)`: the mass of groups i at each cell, summed over the cells
    in that order.
    """
    column, n, weights = table
    codes = [_code([column(v) for v in g], n) for g in groups]
    cell, mass = _cells(codes, n, weights)
    p = mass if weights is not None else mass / n

    def margin(*idx):
        at = np.empty(len(p), dtype=np.int64)
        at[cell] = _code([codes[i] for i in idx], n)[0]
        return np.bincount(at, weights=p)[at]

    return p, margin


def _bits(terms: np.ndarray) -> float:
    return max(clip_zero(float(np.sum(terms))), 0.0)


# The ratio forms of I(X;Y) and I(X;Y|Z) over the cells of the joint of
# groups X, Y (and Z), each term p log2 of a ratio of cell masses.

def _mi_terms(p, margin) -> np.ndarray:
    return p * np.log2(p / (margin(0) * margin(1)))


def _cmi_terms(p, margin) -> np.ndarray:
    return p * np.log2(p * margin(2) / (margin(0, 2) * margin(1, 2)))


def _entropy(table, vars) -> float:
    p, _ = _joint(table, _as_vars(vars))
    return _bits(-(p * np.log2(p)))


def _conditional_entropy(table, target, given) -> float:
    t, g = _check_disjoint(target, given)
    if not g:
        return _entropy(table, t)
    p, margin = _joint(table, t, g)
    return _bits(p * np.log2(margin(1) / p))


def _mutual_information(table, x, y) -> float:
    return _bits(_mi_terms(*_joint(table, *_check_disjoint(x, y))))


def _conditional_mutual_information(table, x, y, z) -> float:
    xs, ys, zs = _check_disjoint(x, y, z)
    if not zs:
        return _mutual_information(table, xs, ys)
    return _bits(_cmi_terms(*_joint(table, xs, ys, zs)))


# Candidate columns counted together in one pass hold at most this many
# row codes, so a block's transient int64 arrays stay near 8 MiB.
BLOCK_CODES = 1 << 20


def _joint_rows(block, cards, fixed, n):
    """The nonzero cells of the joint of (f, *fixed) for each row f of `block`.

    `block` is a (k, n) array of candidate codes with cardinalities
    `cards`; `fixed` is the (codes, cardinality) code of each fixed group,
    the same for every candidate.  One block-offset mixed-radix code counts
    all k joints in one `np.bincount`, or by ranking when the block's radix
    passes its number of codes.  Returns p, `margin` and the bounds of each
    candidate's cells.  Within a candidate's bounds, p and `margin(*i)` are
    what `_joint` gives for (f,) and the fixed groups: the same cells in
    the same lexicographic order, the margins summed in the same order.
    """
    k = len(block)
    g, radix = _code(fixed, n)
    parts = []                    # the code of each fixed group, by cell of g
    for col, card in fixed:
        part = np.zeros(radix, dtype=np.int64)
        part[g] = col
        parts.append((part, card))
    cards = list(cards)
    for i, card in enumerate(cards):
        if card > n:
            block[i], cards[i] = _ranks(block[i])
    width = np.array(cards, dtype=np.int64) * radix
    start = np.cumsum(width) - width
    code = np.multiply(block, radix, dtype=np.int64)
    code += g
    code += start[:, None]
    if int(width.sum()) > code.size:
        cells, counts = np.unique(code, return_counts=True)
    else:
        counts = np.bincount(code.ravel())
        cells = np.flatnonzero(counts)
        counts = counts[cells]
    del code
    p = counts / n
    which = np.searchsorted(start, cells, side="right") - 1
    local = cells - start[which]
    value = local // radix
    comps = [(value, max(cards))] + [(part[local - value * radix], card)
                                     for part, card in parts]

    def margin(*idx):
        at = _code([(which, k)] + [comps[i] for i in idx], len(p))[0]
        return np.bincount(at, weights=p)[at]

    return p, margin, np.searchsorted(cells, np.append(start, width.sum()))


def _information_rows(column, n, candidates, y, z=()) -> list[float]:
    """I(f;Y|Z) for each candidate column f, or I(f;Y) when Z is empty.

    Bit for bit what `_conditional_mutual_information` gives for X = (f,),
    over blocks of candidates counted in one pass each.
    """
    fixed = [_code([column(v) for v in g], n) for g in (y, z) if g]
    terms_of = _cmi_terms if len(fixed) == 2 else _mi_terms
    per_block = max(1, BLOCK_CODES // n)
    values = []
    for i in range(0, len(candidates), per_block):
        cols = [column(f) for f in candidates[i:i + per_block]]
        block = np.stack([col for col, _ in cols])
        p, margin, bounds = _joint_rows(block, [card for _, card in cols], fixed, n)
        terms = terms_of(p, margin)
        values += [_bits(terms[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return values


def _dist_table(dist: JointDistribution):
    live = [(s, p) for s, p in dist.mass.items() if p > 0.0]
    states = np.array([s for s, _ in live], dtype=np.int64)

    def column(v):
        i = dist.index(v)
        return states[:, i], dist.cardinalities[i]

    return column, len(live), np.array([p for _, p in live])


def entropy(dist: JointDistribution, vars) -> float:
    """H(vars): -sum p log2 p over the marginal; 0*log 0 := 0."""
    return _entropy(_dist_table(dist), vars)


def conditional_entropy(dist: JointDistribution, target, given) -> float:
    """H(target | given) = sum p(t,g) log2( p(g) / p(t,g) )."""
    return _conditional_entropy(_dist_table(dist), target, given)


def mutual_information(dist: JointDistribution, x, y) -> float:
    """I(X;Y) = sum p(x,y) log2( p(x,y) / (p(x) p(y)) ); symmetric, >= 0."""
    return _mutual_information(_dist_table(dist), x, y)


def conditional_mutual_information(dist: JointDistribution, x, y, z) -> float:
    """I(X;Y|Z) = sum p(x,y,z) log2( p(x,y,z) p(z) / (p(x,z) p(y,z)) ).

    Empty Z reduces to I(X;Y).
    """
    return _conditional_mutual_information(_dist_table(dist), x, y, z)


def _conditional_interaction(dist, groups, cond) -> float:
    if len(groups) == 2:
        return conditional_mutual_information(dist, groups[0], groups[1], cond)
    head, tail = groups[:-1], groups[-1]
    return (_conditional_interaction(dist, head, cond + tail)
            - _conditional_interaction(dist, head, cond))


def interaction_information(dist: JointDistribution, groups) -> float:
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


def total_correlation(dist: JointDistribution, vars) -> float:
    """C(f1;...;fm) = sum_i H(f_i) - H(f1,...,fm); >= 0."""
    vs = _as_vars(vars)
    if len(vs) < 2:
        raise ValueError("total_correlation needs at least two variables")
    tc = sum(entropy(dist, v) for v in vs) - entropy(dist, vs)
    return max(clip_zero(tc), 0.0)


MAX_DECOMPOSITION_VARS = 12


def joint_mi_by_decomposition(dist: JointDistribution, vars, target) -> float:
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
