"""Clopen interval algebra of an ordinal space [0, alpha].

Clopen subsets are represented canonically as a finite union of half-open
pieces (s, t] with s < t <= alpha, pairwise disjoint, strictly increasing
and non-adjacent, plus a separate flag for the point 0 (which no (s, t]
piece can contain).  Two clopen sets are pointwise equal exactly when
their normal forms coincide.

On top of the Boolean operations this module computes Cantor-Bendixson
data of a clopen set (height, end points, unitarity), the tip-based
tree-like canonical selector, laminarity checks, and a grid search for
the lexicographically least minimal-length clopen set with a prescribed
end point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .ordinal import (
    ZERO,
    CheckReport,
    Ordinal,
    _trusted,
    ord_add,
    format_ordinal,
    parse_ordinal,
    sort_key,
)


class ClopenError(ValueError):
    pass


@dataclass(frozen=True)
class ClopenSet:
    ambient: Ordinal
    zero_included: bool = False
    intervals: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
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

    @property
    def piece_count(self) -> int:
        return len(self.intervals)

    def contains(self, point: Ordinal) -> bool:
        if point.is_zero:
            return self.zero_included
        return any(s < point <= t for s, t in self.intervals)

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
    _same_ambient(a, b)
    pieces = []
    for s1, t1 in a.intervals:
        for s2, t2 in b.intervals:
            s = s1 if s2 < s1 else s2
            t = t1 if t1 < t2 else t2
            if s < t:
                pieces.append((s, t))
    return clopen_from_pieces(a.ambient, pieces,
                              a.zero_included and b.zero_included)


def clopen_complement(a: ClopenSet) -> ClopenSet:
    pieces = []
    prev = ZERO
    for s, t in a.intervals:
        if prev < s:
            pieces.append((prev, s))
        prev = t
    if prev < a.ambient:
        pieces.append((prev, a.ambient))
    return clopen_from_pieces(a.ambient, pieces, not a.zero_included)


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

def _trunc_at_least(a: Ordinal, e: Ordinal) -> Ordinal:
    """Terms of ``a`` with exponent >= e (the multiple-of-w^e floor).

    Exponents decrease along a normal form, so these terms are a prefix of
    it, and the matching prefix of ``a._key`` is its key.
    """
    key, ke = a._key, e._key
    k = 0
    while k < len(key) and key[k][0] >= ke:
        k += 1
    return _trusted(a.terms[:k], key[:k])


def _next_multiple_above(s: Ordinal, e: Ordinal) -> Ordinal:
    """Least multiple of w^e strictly greater than s."""
    return ord_add(_trunc_at_least(s, e), Ordinal.omega_power(e))


def _piece_rank(s: Ordinal, t: Ordinal):
    """Max point rank over (s, t] and the witnesses attaining it.

    The rank of a point is its tip exponent; feasibility of an exponent e
    (some multiple of w^e in the piece) is monotone downward, and the
    maximal feasible e always appears among the exponents of s or t.
    """
    candidates = {e for e, _ in s.terms} | {e for e, _ in t.terms} | {ZERO}
    best = None
    for e in candidates:
        if _next_multiple_above(s, e) <= t:
            if best is None or best < e:
                best = e
    if best is None:
        raise AssertionError("empty piece has no rank")
    step = Ordinal.omega_power(best)
    points = []
    m = _next_multiple_above(s, best)
    while m <= t:
        points.append(m)
        m = ord_add(m, step)
    return best, points


class CBData(NamedTuple):
    height: Ordinal
    endpoints: tuple
    unitary: bool
    lastpt: Ordinal | None


def clopen_cb(u: ClopenSet) -> CBData:
    """Height, end points and unitarity of a nonempty clopen set.

    The height is the maximal Cantor-Bendixson rank over the points; the
    end points are the finitely many points attaining it.
    """
    if u.is_empty:
        raise ClopenError("empty set has no Cantor-Bendixson data")
    height = ZERO if u.zero_included else None
    per_piece = []
    for s, t in u.intervals:
        e, pts = _piece_rank(s, t)
        per_piece.append((e, pts))
        if height is None or height < e:
            height = e
    endpoints: list = []
    if u.zero_included and height == ZERO:
        endpoints.append(ZERO)
    for e, pts in per_piece:
        if e == height:
            endpoints.extend(pts)
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
    terms, key = beta.terms, beta._key
    (e, p), (ke, _) = terms[-1], key[-1]
    if p > 1:
        start = _trusted(terms[:-1] + ((e, p - 1),), key[:-1] + ((ke, p - 1),))
    else:
        start = _trusted(terms[:-1], key[:-1])
    return ClopenSet(ambient, False, ((start, beta),))


def treelike_check(ambient: Ordinal, points: Iterable[Ordinal]) -> CheckReport:
    """Selector sets of the given points must be pairwise nested or
    disjoint, with strictly increasing height along nesting.

    The witness is the first pair of points, in input order, whose sets
    overlap or whose heights do not increase along nesting.
    """
    pts = list(points)
    sels = [tip_selector(p, ambient) for p in pts]
    datas = [clopen_cb(s) for s in sels]
    witness = None
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            checked += 1
            rel = _laminar_relation(sels[i], sels[j])
            if witness is None and (
                    rel == "overlap"
                    or rel == "i-in-j" and not datas[i].height < datas[j].height
                    or rel == "j-in-i" and not datas[j].height < datas[i].height):
                witness = (str(pts[i]), str(pts[j]))
    return CheckReport("tree-like", witness is None, witness, {"pairs": checked})


def first_non_laminar_pair(intervals: Sequence) -> tuple | None:
    """First pair of half-open intervals (s, t] that are neither disjoint
    nor nested, in ``itertools.combinations`` order, or None when the
    family is laminar.

    A sweep decides laminarity in O(n log n).  The intervals are taken by
    ``s`` ascending, ties by ``t`` descending, so each one comes after
    every interval that contains it.  A stack holds the intervals still
    open: the top is popped while it ends at or before the new ``s``, and
    the family is not laminar exactly when the new interval then ends past
    the top.  The sweep is exact because every popped interval ends at or
    before ``s`` and so is disjoint from this and all later intervals, and
    every interval left under the top contains the top: a crossing pair
    (s1 < s2 < t1 < t2) leaves the first interval, or one nested in it,
    on top when the second arrives.  Only on a failure does the pairwise
    scan run, to find the first crossing pair.
    """
    keyed = [(sort_key(s), sort_key(t)) for s, t in intervals]
    keyed.sort(key=itemgetter(1), reverse=True)
    keyed.sort(key=itemgetter(0))
    stack: list = []
    for s, t in keyed:
        while stack and stack[-1] <= s:
            stack.pop()
        if stack and not t <= stack[-1]:
            return _first_crossing_pair(intervals)
        stack.append(t)
    return None


def _first_crossing_pair(intervals: Sequence) -> tuple:
    for (s1, t1), (s2, t2) in combinations(intervals, 2):
        disjoint = t1 <= s2 or t2 <= s1
        nested = (s2 <= s1 and t1 <= t2) or (s1 <= s2 and t2 <= t1)
        if not (disjoint or nested):
            return (s1, t1), (s2, t2)
    raise AssertionError("sweep found a crossing that the pairwise scan did not")


def _laminar_relation(a: ClopenSet, b: ClopenSet) -> str:
    inter = clopen_intersect(a, b)
    if inter.is_empty:
        return "disjoint"
    if inter == a and inter == b:
        return "equal"
    if inter == a:
        return "i-in-j"
    if inter == b:
        return "j-in-i"
    return "overlap"


# -- minimal clopen with a prescribed end point ---------------------------

def cnf_truncation_grid(beta: Ordinal) -> list:
    """All truncations of the normal form of beta, including partial
    leading-coefficient cuts of each block (contains 0, beta, and the
    tip endpoint beta - tip)."""
    values = {ZERO, beta}
    for k in range(len(beta.terms)):
        prefix = beta.terms[:k]
        e, p = beta.terms[k]
        for j in range(0, p + 1):
            terms = prefix + (((e, j),) if j else ())
            values.add(Ordinal(terms))
    return sorted(values, key=sort_key)


def min_clopen_with_endpoint(beta: Ordinal, ambient: Ordinal,
                             grid: Iterable[Ordinal]) -> ClopenSet:
    """Among clopen sets whose interval endpoints come from the grid and
    whose end-point set is exactly {beta}, return one of minimal piece
    count, lexicographically least in the endpoint-sequence order.

    When the grid contains the tip endpoints the result must coincide
    with the tip selector, and this is re-asserted.
    """
    if not beta <= ambient:
        raise ClopenError("point exceeds ambient")
    grid_vals = sorted({g for g in grid if g <= ambient}, key=sort_key)
    for ell in range(1, max(1, len(grid_vals) // 2) + 1):
        found = []
        for seq in combinations(grid_vals, 2 * ell):
            pieces = tuple((seq[2 * i], seq[2 * i + 1]) for i in range(ell))
            candidate = ClopenSet(ambient, False, pieces)
            data = clopen_cb(candidate)
            if data.unitary and data.lastpt == beta:
                found.append((seq, candidate))
        if found:
            found.sort(key=lambda sc: [sort_key(x) for x in sc[0]])
            result = found[0][1]
            tip = tip_selector(beta, ambient)
            if not beta.is_zero:
                tip_start = tip.intervals[0][0]
                if tip_start in grid_vals and beta in grid_vals and result != tip:
                    raise AssertionError("grid search disagrees with the tip selector")
            return result
    raise ClopenError("no candidate in grid has the prescribed end point")


# -- text form -------------------------------------------------------------
#
#   {0}? (s1,t1] (s2,t2] ... @ alpha     (empty set: "{} @ alpha")

def format_clopen(u: ClopenSet) -> str:
    parts = []
    if u.zero_included:
        parts.append("{0}")
    for s, t in u.intervals:
        parts.append(f"({format_ordinal(s, compact=True)},{format_ordinal(t, compact=True)}]")
    if not parts:
        parts.append("{}")
    return " ".join(parts) + " @ " + format_ordinal(u.ambient, compact=True)


def clopen_to_json(u: ClopenSet) -> dict:
    return {
        "ambient": format_ordinal(u.ambient, compact=True),
        "zero": u.zero_included,
        "intervals": [[format_ordinal(s, compact=True), format_ordinal(t, compact=True)]
                      for s, t in u.intervals],
    }


def clopen_from_json(data: dict) -> ClopenSet:
    if "ambient" not in data:
        raise ClopenError("clopen JSON must have an 'ambient' field")
    return ClopenSet(
        parse_ordinal(data["ambient"]),
        bool(data.get("zero", False)),
        tuple((parse_ordinal(s), parse_ordinal(t)) for s, t in data.get("intervals", ())),
    )


def parse_clopen(text: str) -> ClopenSet:
    if "@" not in text:
        raise ClopenError("missing '@ ambient' part")
    body, _, amb = text.rpartition("@")
    ambient = parse_ordinal(amb)
    body = body.strip()
    zero = False
    pieces = []
    pos = 0
    while pos < len(body):
        ch = body[pos]
        if ch.isspace():
            pos += 1
        elif body.startswith("{0}", pos):
            zero = True
            pos += 3
        elif body.startswith("{}", pos):
            pos += 2
        elif ch == "(":
            end = body.find("]", pos)
            if end < 0:
                raise ClopenError("unterminated interval")
            inner = body[pos + 1:end]
            try:
                s_text, t_text = inner.split(",")
            except ValueError:
                raise ClopenError(f"malformed interval {inner!r}") from None
            pieces.append((parse_ordinal(s_text), parse_ordinal(t_text)))
            pos = end + 1
        else:
            raise ClopenError(f"unexpected {ch!r} in clopen text")
    return ClopenSet(ambient, zero, tuple(pieces))
