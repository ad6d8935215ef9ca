"""Clopen interval algebra of an ordinal space [0, alpha].

Clopen subsets are represented canonically as a finite union of half-open
pieces (s, t] with s < t <= alpha, pairwise disjoint, strictly increasing
and non-adjacent, plus a separate flag for the point 0 (which no (s, t]
piece can contain).  Two clopen sets are pointwise equal exactly when
their normal forms coincide.

On top of the Boolean operations this module computes Cantor-Bendixson
data of a clopen set (height, end points, unitarity), the tip-based
tree-like canonical selector, one sweep that decides whether a family of
pieces with heights is tree-like, and a one-pass grid search for the
lexicographically least minimal-length clopen set with a prescribed end
point.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .ordinal import (
    ZERO,
    CheckReport,
    Ordinal,
    Record,
    _parse_whole,
    _Parser,
    _put,
    _trusted,
    format_ordinal,
    sort_key,
)


class ClopenError(ValueError):
    pass


MAX_GRID = 1 << 9  # grid values min_clopen_with_endpoint accepts
MAX_ENDPOINTS = 1 << 16  # end points clopen_cb lists


class ClopenSet(Record):
    _fields = ("ambient", "zero_included", "intervals")

    def __init__(self, ambient: Ordinal, zero_included: bool = False, intervals: tuple = ()):
        _put(self, "ambient", ambient)
        _put(self, "zero_included", zero_included)
        _put(self, "intervals", tuple(intervals))
        prev_t = None
        for s, t in self.intervals:
            if not s < t:
                raise ClopenError("interval needs s < t")
            if not t <= self.ambient:
                raise ClopenError("interval exceeds ambient")
            if prev_t is not None and not prev_t < s:
                raise ClopenError("intervals must be disjoint, increasing, non-adjacent")
            prev_t = t

    @property
    def is_empty(self) -> bool:
        return not self.zero_included and not self.intervals

    def __str__(self) -> str:
        return format_clopen(self)


def clopen_from_pieces(ambient: Ordinal, pieces: Iterable, zero: bool = False) -> ClopenSet:
    """Normalize arbitrary (s, t] pieces: drop empties, sort, merge
    overlapping or adjacent runs."""
    kept = [(s, t) for s, t in pieces if s < t]
    kept.sort(key=lambda p: sort_key(p[0]))
    merged: list = []
    for s, t in kept:
        if merged and s <= merged[-1][1]:
            if t > merged[-1][1]:
                merged[-1] = (merged[-1][0], t)
        else:
            merged.append((s, t))
    return ClopenSet(ambient, zero, tuple(merged))


def clopen_union(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    _same_ambient(a, b)
    return clopen_from_pieces(a.ambient, a.intervals + b.intervals,
                              a.zero_included or b.zero_included)


def clopen_intersect(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """The two ascending piece lists merged with two pointers: each step
    meets the current pieces and moves past the one that ends first, which
    no later piece of the other list can meet.  The meets come out
    ascending, two in turn lying in distinct, so non-adjacent, pieces of
    ``a`` or of ``b``: they are in normal form."""
    _same_ambient(a, b)
    xs, ys = a.intervals, b.intervals
    pieces = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (s1, t1), (s2, t2) = xs[i], ys[j]
        s = s1 if s2 < s1 else s2
        if t1 < t2:
            t, i = t1, i + 1
        else:
            t, j = t2, j + 1
        if s < t:
            pieces.append((s, t))
    return ClopenSet(a.ambient, a.zero_included and b.zero_included, tuple(pieces))


def clopen_complement(a: ClopenSet) -> ClopenSet:
    """The gaps between the pieces of ``a``: ascending, and non-adjacent
    since its pieces are nonempty, so they are in normal form."""
    pieces = []
    prev = ZERO
    for s, t in a.intervals:
        if prev < s:
            pieces.append((prev, s))
        prev = t
    if prev < a.ambient:
        pieces.append((prev, a.ambient))
    return ClopenSet(a.ambient, not a.zero_included, tuple(pieces))


def clopen_algebra(op: str, a: ClopenSet, b: ClopenSet | None = None) -> ClopenSet:
    if op == "union":
        return clopen_union(a, _need(b))
    if op == "intersect":
        return clopen_intersect(a, _need(b))
    if op == "complement":
        if b is not None:
            raise ClopenError("complement is unary")
        return clopen_complement(a)
    raise ClopenError(f"unknown operation {op!r}")


def _need(b):
    if b is None:
        raise ClopenError("binary operation needs two operands")
    return b


def _same_ambient(a: ClopenSet, b: ClopenSet):
    if a.ambient != b.ambient:
        raise ClopenError("ambient mismatch")


# -- Cantor-Bendixson data ----------------------------------------------

def _piece_rank(s: Ordinal, t: Ordinal) -> tuple:
    """Rank of the piece (s, t] and the coefficients of its top-rank points.

    A point's rank is its tip exponent.  Let i be the first index where the
    keys of s and t differ; since s < t, t has a term (e, c_t) there.  Every
    point of (s, t] is the first i terms that both ends share followed by
    terms of exponent at most e, so the piece's rank is e, and its points
    of rank e are ``t[:i] + w^e*c`` for c from c_s + 1 to c_t when the term
    of s at i is (e, c_s), and for c from 1 to c_t otherwise.  Returns
    ``(e, i, lo, c_t)`` with lo the least such c; ``_top_points`` builds
    the points.
    """
    ks, kt = s._key, t._key
    n = min(len(ks), len(kt))
    i = 0
    while i < n and ks[i] == kt[i]:
        i += 1
    ke, hi = kt[i]
    lo = ks[i][1] + 1 if i < len(ks) and ks[i][0] == ke else 1
    return _trusted(ke), i, lo, hi


def _top_points(t: Ordinal, i: int, lo: int, hi: int) -> list:
    """The points ``t[:i] + w^e*c`` for c from lo to hi, e the exponent of
    the term of t at i."""
    key, ke = t._key[:i], t._key[i][0]
    return [_trusted(key + ((ke, c),)) for c in range(lo, hi + 1)]


class CBData(NamedTuple):
    height: Ordinal
    endpoints: tuple
    unitary: bool
    lastpt: Ordinal | None


def clopen_cb(u: ClopenSet) -> CBData:
    """Height, end points and unitarity of a nonempty clopen set.

    The height is the maximal Cantor-Bendixson rank over the points; the
    end points are the finitely many points attaining it.  They are counted
    before any is built, and more than ``MAX_ENDPOINTS`` are refused.
    """
    if u.is_empty:
        raise ClopenError("empty set has no Cantor-Bendixson data")
    height = ZERO if u.zero_included else None
    ranked = []
    for s, t in u.intervals:
        e, i, lo, hi = _piece_rank(s, t)
        ranked.append((e, t, i, lo, hi))
        if height is None or height < e:
            height = e
    zero = u.zero_included and height == ZERO
    tops = [(t, i, lo, hi) for e, t, i, lo, hi in ranked if e == height]
    if zero + sum(hi - lo + 1 for *_, lo, hi in tops) > MAX_ENDPOINTS:
        raise ClopenError(f"more than MAX_ENDPOINTS = {MAX_ENDPOINTS} end points")
    endpoints = [ZERO] if zero else []
    for top in tops:
        endpoints.extend(_top_points(*top))
    unitary = len(endpoints) == 1
    return CBData(height, tuple(endpoints), unitary,
                  endpoints[0] if unitary else None)


def tip_selector(beta: Ordinal, ambient: Ordinal) -> ClopenSet:
    """Canonical selector set of the point beta inside [0, ambient]:
    drop one copy of the last normal-form block, i.e. (beta - tip, beta].

    The result is unitary with end point beta and height equal to the tip
    exponent, and the family over any point set is laminar.
    """
    if not beta <= ambient:
        raise ClopenError("point exceeds ambient")
    if beta.is_zero:
        return ClopenSet(ambient, zero_included=True)
    key = beta._key
    ke, p = key[-1]
    start = _trusted(key[:-1] + ((ke, p - 1),) if p > 1 else key[:-1])
    return ClopenSet(ambient, False, ((start, beta),))


def treelike_check(ambient: Ordinal, points: Iterable[Ordinal]) -> CheckReport:
    """Selector sets of the given points must be pairwise nested or
    disjoint, with strictly increasing height along nesting.

    The witness is the first pair of points, in input order, whose sets
    overlap or whose heights do not increase along nesting.  Point 0's set
    {0} meets no piece, so it never takes part in one.
    """
    pts = list(points)
    pieces, heights, at = [], [], []
    for k, p in enumerate(pts):
        u = tip_selector(p, ambient)
        if not p.is_zero:
            (piece,) = u.intervals
            pieces.append(piece)
            heights.append(_piece_rank(*piece)[0])  # clopen_cb's height, no end point built
            at.append(k)
    bad = first_non_treelike_pair(pieces, heights)
    witness = None if bad is None else (str(pts[at[bad[0]]]), str(pts[at[bad[1]]]))
    return CheckReport("tree-like", witness is None, witness,
                       {"pairs": len(pts) * (len(pts) - 1) // 2})


def first_non_treelike_pair(pieces: Sequence, heights: Sequence) -> tuple | None:
    """First pair ``(i, j)``, i < j, of pieces (s, t] that is neither
    disjoint, nor equal, nor nested with the inner piece strictly lower,
    or None when the family is tree-like.  ``heights[k]`` is the height of
    ``pieces[k]``.

    A sweep decides it in O(n log n).  The pieces are taken by ``s``
    ascending, then ``t`` descending, then height descending, so each one
    comes after every piece that contains it.  A stack holds the pieces
    still open: the top is popped while it ends at or before the new
    ``s``, and the new piece is checked against the top alone.  Every
    popped piece is disjoint from this and all later pieces.  Every
    container of the new piece is left on the stack, where each piece
    lies inside the one below it and is no higher; so once the new piece
    fits inside the top, it fits inside all of them.  A piece (s, s] has
    no point, so it is disjoint from every piece.  Only on a failure does
    the pairwise scan run, to name the first bad pair.
    """
    keyed = [(sort_key(s), sort_key(t), sort_key(h))
             for (s, t), h in zip(pieces, heights, strict=True)]
    order = sorted(range(len(keyed)), key=lambda k: keyed[k][1:], reverse=True)
    order.sort(key=lambda k: keyed[k][0])
    stack: list = []
    for k in order:
        piece = keyed[k]
        while stack and stack[-1][1] <= piece[0]:
            stack.pop()
        if stack and not _tree_pair(stack[-1], piece):
            return next((i, j) for i, j in combinations(range(len(keyed)), 2)
                        if not _tree_pair(keyed[i], keyed[j]))
        stack.append(piece)
    return None


def _tree_pair(a: tuple, b: tuple) -> bool:
    """Whether keyed pieces (s, t, height) are disjoint, equal, or nested
    with the inner one strictly lower."""
    (s1, t1, h1), (s2, t2, h2) = a, b
    if min(t1, t2) <= max(s1, s2) or (s1, t1) == (s2, t2):
        return True
    if s2 <= s1 and t1 <= t2:
        return h1 < h2
    return s1 <= s2 and t2 <= t1 and h2 < h1


# -- minimal clopen with a prescribed end point ---------------------------

def cnf_truncation_grid(beta: Ordinal) -> list:
    """All truncations of the normal form of beta, including partial
    leading-coefficient cuts of each block (contains 0, beta, and the
    tip endpoint beta - tip), in ascending order.

    They are 0 and one value per unit of each coefficient of beta; a grid
    of more than ``MAX_GRID`` values is refused before any is built.
    """
    key = beta._key
    if 1 + sum(c for _, c in key) > MAX_GRID:
        raise ClopenError(f"truncation grid has more than MAX_GRID = {MAX_GRID} values")
    values = [ZERO]
    for k, (ke, p) in enumerate(key):
        values += [_trusted(key[:k] + ((ke, j),)) for j in range(1, p + 1)]
    return values


def min_clopen_with_endpoint(beta: Ordinal, ambient: Ordinal,
                             grid: Iterable[Ordinal]) -> ClopenSet:
    """Among clopen sets whose interval endpoints come from the grid and
    whose end-point set is exactly {beta}, return one of minimal piece
    count, lexicographically least in the endpoint-sequence order.

    One piece always suffices: when a set of several pieces has beta as its
    only end point, so does the piece that holds beta.  That piece's rank
    is at least rank(beta), since beta lies in it, and at most the set's
    height, which is rank(beta); so its top-rank points are end points of
    the set, which are just {beta}.  A piece (s, t] has beta as its only
    top-rank point exactly when t starts with beta's terms, and s and t
    first differ at beta's last term with one coefficient between them
    there, read from ``_piece_rank`` without building a point.  Those t
    are the grid values in [beta, beta + w^e), w^e beta's last term, and
    where s and t first differ does not depend on which of them t is.  So
    the least such t serves every s, and one pass finds the least s below
    beta that passes against it, which is the lexicographic order.  A grid
    of more than ``MAX_GRID`` distinct values up to ``ambient`` is
    refused.

    When the grid contains the tip endpoints the result must coincide
    with the tip selector, and this is re-asserted.
    """
    if not beta <= ambient:
        raise ClopenError("point exceeds ambient")
    grid_vals = sorted({g for g in grid if g <= ambient}, key=sort_key)
    if len(grid_vals) > MAX_GRID:
        raise ClopenError(f"grid has more than MAX_GRID = {MAX_GRID} values")
    kb = beta._key
    cut = bisect_left(grid_vals, kb, key=sort_key)
    if cut < len(grid_vals) and grid_vals[cut]._key[:len(kb)] == kb:
        t = grid_vals[cut]
        for s in grid_vals[:cut]:
            _, i, lo, hi = _piece_rank(s, t)
            if lo == hi and i == len(kb) - 1:
                result = ClopenSet(ambient, False, ((s, t),))
                tip = tip_selector(beta, ambient)
                if t == beta and tip.intervals[0][0] in grid_vals and result != tip:
                    raise AssertionError("grid search disagrees with the tip selector")
                return result
    raise ClopenError("no candidate in grid has the prescribed end point")


# -- text form -------------------------------------------------------------
#
#   clopen := ('{0}' | '{}' | '(' expr ',' expr ']')* '@' expr
#   (expr an ordinal, whitespace insignificant; the empty set is {} @ alpha)

def format_clopen(u: ClopenSet) -> str:
    parts = []
    if u.zero_included:
        parts.append("{0}")
    for s, t in u.intervals:
        parts.append(f"({format_ordinal(s, compact=True)},{format_ordinal(t, compact=True)}]")
    if not parts:
        parts.append("{}")
    return " ".join(parts) + " @ " + format_ordinal(u.ambient, compact=True)


def parse_clopen(text: str) -> ClopenSet:
    """The clopen set ``text`` writes, read on the ordinal parser's cursor;
    an error names its position in ``text``."""
    cursor = _Parser(text)
    zero, pieces = False, []
    while True:
        cursor.skip_ws()
        if text.startswith("{0}", cursor.pos):
            zero = True
            cursor.pos += 3
        elif text.startswith("{}", cursor.pos):
            cursor.pos += 2
        elif cursor.peek() == "(":
            cursor.pos += 1
            s = cursor.parse_expr()
            cursor.expect(",", "in an interval", ClopenError)
            pieces.append((s, cursor.parse_expr()))
            cursor.expect("]", "to close an interval", ClopenError)
        else:
            cursor.expect("@", "or an interval", ClopenError)
            ambient = _parse_whole(text, _Parser.parse_expr, cursor.pos)
            return ClopenSet(ambient, zero, tuple(pieces))
