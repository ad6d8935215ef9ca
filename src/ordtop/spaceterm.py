"""Symbolic calculus of scattered compact ordered spaces.

Terms denote spaces: ``ord(a)`` is the ordinal interval [0, a]; ``sum``
is the disjoint topological sum; ``prod`` the product; ``skel`` a
skeleton, i.e. a finite poset of distinguished points with strictly
increasing ordinal labels, standing for a canonical selector whose set at
a point is unitary of the labeled height.  Skeletons carry semantics, not
point sets: a finite explicit space would trivialize every height to 0,
so heights are computed from the labels alone.

The module computes height/end-point reports for terms, the exact bound
chain height <= rank < w^height * (endpoints+1) < w^(height+1), and the
hyperspace height calculus: a point of rank r contributes 0, 1 or
w^a (where 1+a = r) and an antichain contributes the natural sum of its
points' contributions.
"""

from __future__ import annotations

import json
from typing import Iterable, Union

from .ordinal import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    CheckReport,
    Ordinal,
    Record,
    _is_int,
    _Parser,
    _put,
    format_ordinal,
    loads_json_at,
    nat_sum,
    one_plus_inverse,
    ord_add,
    ord_mul,
    ord_pow,
    parse_ordinal,
)
from .poset import FinitePoset, _bits, all_downsets, poset_from_json


class TermError(ValueError):
    pass


class OrdSpace(Record):
    _fields = ("alpha",)

    def __init__(self, alpha: Ordinal):
        _put(self, "alpha", alpha)


class SumTerm(Record):
    _fields = ("parts",)

    def __init__(self, parts: tuple):
        _put(self, "parts", tuple(parts))
        if not self.parts:
            raise TermError("sum needs at least one part")


class ProdTerm(Record):
    _fields = ("left", "right")

    def __init__(self, left: "SpaceTerm", right: "SpaceTerm"):
        _put(self, "left", left)
        _put(self, "right", right)


class Skeleton(Record):
    """Finite poset of distinguished points with ordinal height labels.

    Labels must strictly increase along the order; each element stands for
    a unitary selector set of that height, with the rank of the element
    equal to its height.
    """

    _fields = ("poset", "labels")

    def __init__(self, poset: FinitePoset, labels: tuple):
        _put(self, "poset", poset)
        _put(self, "labels", tuple(labels))  # Ordinal per element index
        if len(self.labels) != self.poset.n:
            raise TermError("one label per element required")
        if any(not self.labels[i] < self.labels[j]
               for i in range(self.poset.n) for j in _bits(self.poset.above[i])):
            raise TermError("labels must strictly increase along the order")


class SkelTerm(Record):
    _fields = ("skeleton",)

    def __init__(self, skeleton: Skeleton):
        _put(self, "skeleton", skeleton)


SpaceTerm = Union[OrdSpace, SumTerm, ProdTerm, SkelTerm]


class SpaceReport(Record):
    _fields = ("height", "endpoint_count", "rank")

    def __init__(self, height: Ordinal, endpoint_count: int, rank: Ordinal | None):
        _put(self, "height", height)
        _put(self, "endpoint_count", endpoint_count)
        _put(self, "rank", rank)  # None means not computed for this term shape

    @property
    def unitary(self) -> bool:
        return self.endpoint_count == 1

    def to_json(self) -> dict:
        return {
            "height": format_ordinal(self.height),
            "endpoint_count": self.endpoint_count,
            "unitary": self.unitary,
            "rank": format_ordinal(self.rank) if self.rank is not None else "not-computed",
        }


def term_report(t: SpaceTerm) -> SpaceReport:
    """Height, end-point count and (where defined) rank of a space term.

    For [0, a] the rank is taken along the linear selector of all initial
    intervals, giving a+1; products combine heights by natural sum and
    multiply end-point counts; sums take the maximal height and add the
    counts of the parts attaining it, with no canonical rank.
    """
    if isinstance(t, OrdSpace):
        a = t.alpha
        if a.is_finite:
            return SpaceReport(ZERO, int(a) + 1, ord_add(a, ONE))
        return SpaceReport(a.degree, a.leading_coeff, ord_add(a, ONE))
    if isinstance(t, SumTerm):
        reports = [term_report(p) for p in t.parts]
        top = max((r.height for r in reports))
        count = sum(r.endpoint_count for r in reports if r.height == top)
        return SpaceReport(top, count, None)
    if isinstance(t, ProdTerm):
        lr, rr = term_report(t.left), term_report(t.right)
        return SpaceReport(nat_sum(lr.height, rr.height),
                           lr.endpoint_count * rr.endpoint_count, None)
    if isinstance(t, SkelTerm):
        sk = t.skeleton
        if sk.poset.n == 0:
            raise TermError("skeleton must have at least one point")
        maxima = list(_bits(sk.poset.max_of(sk.poset.full_mask())))
        top = max(sk.labels[i] for i in maxima)
        count = sum(1 for i in maxima if sk.labels[i] == top)
        return SpaceReport(top, count, top)
    raise TermError(f"not a space term: {t!r}")


def check_height_rank_bounds(t: SpaceTerm) -> CheckReport:
    """Exact bound chain height <= rank < w^h*(endpts+1) < w^(h+1).

    A failing report's witness is the term's height and rank.
    """
    rep = term_report(t)
    if rep.rank is None:
        raise TermError("rank is not computed for this term shape")
    scaled = ord_mul(ord_pow(OMEGA, rep.height), Ordinal.from_int(rep.endpoint_count + 1))
    nxt = ord_pow(OMEGA, ord_add(rep.height, ONE))
    inequalities = {
        "height<=rank": rep.height <= rep.rank,
        "rank<w^h*(endpts+1)": rep.rank < scaled,
        "w^h*(endpts+1)<w^(h+1)": scaled < nxt,
    }
    passed = all(inequalities.values())
    witness = None if passed else {"height": format_ordinal(rep.height),
                                   "rank": format_ordinal(rep.rank)}
    return CheckReport("height-rank-bounds", passed, witness, {"inequalities": inequalities})


# -- hyperspace height calculus -------------------------------------------

def hyper_point_height(r: Ordinal) -> Ordinal:
    """Height, in the hyperspace, of the selector set of a rank-r point:
    0 for r = 0, 1 for r = 1, and w^a with 1+a = r otherwise."""
    if r.is_zero:
        return ZERO
    if r == ONE:
        return ONE
    return Ordinal.omega_power(one_plus_inverse(r))


def hyper_antichain_height(labels: Iterable[Ordinal]) -> Ordinal:
    """Natural sum of the point contributions of an antichain's labels."""
    labels = list(labels)
    if not labels:
        raise TermError("antichain must be nonempty")
    out = ZERO
    for r in labels:
        out = nat_sum(out, hyper_point_height(r))
    return out


def _antichains(p: FinitePoset) -> list:
    """(antichain, downset) mask pairs for the nonempty antichains of ``p``,
    read as maxima of its downsets; ordered by the membership of element 0,
    then of element 1, and so on, absent first."""
    return sorted(((a, d) for d, a in all_downsets(p).items() if d),
                  key=lambda pair: [pair[0] >> i & 1 for i in range(p.n)])


def skeleton_hyper_bound_check(sk: Skeleton) -> CheckReport:
    """Every antichain's hyperspace height stays below w^rank, where the
    rank of the skeleton is max label + 1."""
    rank = ord_add(max(sk.labels), ONE) if sk.labels else ZERO
    bound = ord_pow(OMEGA, rank)
    best = ZERO
    witness = None
    passed = True
    antichains = _antichains(sk.poset)
    for mask, _ in antichains:
        h = hyper_antichain_height([sk.labels[i] for i in _bits(mask)])
        if best < h:
            best = h
        if not h < bound:
            passed = False
            witness = sorted(sk.poset.names(mask))
    return CheckReport("hyperspace-height-bound", passed, witness, {
        "bound": format_ordinal(bound),
        "max_attained": format_ordinal(best),
        "antichains": len(antichains),
    })


def _is_forest(p: FinitePoset) -> bool:
    """Whether the elements above each element form a chain; in a finite
    poset, exactly when no element has two upper covers, that is, lies in
    two ``lower`` masks."""
    seen = 0
    for low in p.lower:
        if seen & low:
            return False
        seen |= low
    return True


def hyper_monotonicity_check(sk: Skeleton) -> CheckReport:
    """Compare hyperspace heights over all pairs of antichains ordered by
    strict downset inclusion (forest skeletons only, where selector sets
    are nested or disjoint and the piecewise decomposition is exact).

    Ties can only arise when the smaller antichain differs from the larger
    one by height-0 points alone (their selector sets are singletons and
    contribute nothing to the natural sum); those pairs are counted
    separately from genuine order violations, which would be fatal.  The
    check fails on an inversion or on a tie with another cause, and its
    witness is the first inversion, else the first tie, in the order of
    ``_antichains`` taken pair by pair.

    One scan reads each ordered pair of antichains once and skips it
    unless the first one's downset lies strictly inside the second's.
    """
    p = sk.poset
    if not _is_forest(p):
        raise TermError("skeleton is not a forest")
    antichains = _antichains(p)
    heights = [hyper_antichain_height([sk.labels[i] for i in _bits(m)]) for m, _ in antichains]
    # each height as its place among the distinct heights, so pairs compare ints
    level = {h: k for k, h in enumerate(sorted(set(heights)))}
    # (antichain, downset, level, the antichain's points of positive label)
    rows = [(m, d, level[h], sum(1 << i for i in _bits(m) if not sk.labels[i].is_zero))
            for (m, d), h in zip(antichains, heights)]
    checked = strict = ties = 0
    first_tie = inversion = None
    all_zero = True
    for rho, dr, hr, _ in rows:
        for sigma, ds, hs, positive in rows:
            if dr & ~ds or dr == ds:
                continue
            checked += 1
            if hr < hs:
                strict += 1
            elif hr == hs:
                ties += 1
                if first_tie is None:
                    first_tie = (rho, sigma)
                # a tie must be explained by height-0 shrinkage alone
                if positive & ~rho:
                    all_zero = False
            elif inversion is None:
                inversion = (rho, sigma)
    passed = inversion is None and all_zero
    witness = None if passed else tuple(sorted(p.names(m)) for m in inversion or first_tie)
    return CheckReport("hyperspace-monotonicity", passed, witness,
                       {"pairs": checked, "strict": strict, "ties": ties})


# -- term syntax -------------------------------------------------------------
#
#   ord(<ordinal>) | sum(t1,t2,...) | prod(t1,t2) | skel(<poset-json>, {elem: ord})
#
# One cursor, the ordinal parser's, reads a term: it parses the inside of
# ord(...) itself, the JSON decoder reads each argument of skel(...) from
# its position, and the descent below reads the rest.

def parse_term(text: str) -> SpaceTerm:
    """The space term in ``text``.  Sum and prod terms nest at most
    ``MAX_NESTING`` deep; deeper is a ``TermError``, not a recursion overflow."""
    cursor = _Parser(text)
    term = _parse_term(cursor, 0)
    if text[cursor.pos:].strip():
        raise TermError(f"trailing input after term: {text[cursor.pos:].strip()!r}")
    return term


def _parse_term(cursor: _Parser, depth: int) -> SpaceTerm:
    """The term at ``cursor``, which is left past it and any whitespace."""
    cursor.skip_ws()
    text, pos = cursor.text, cursor.pos
    head = next((h for h in ("ord", "sum", "prod", "skel") if text.startswith(h, pos)), None)
    if head is None:
        raise TermError(f"expected a space term at position {pos}")
    cursor.pos += len(head)
    cursor.expect("(", f"after {head!r}", TermError)
    if head == "ord":
        term = OrdSpace(cursor.parse_expr())
    elif head == "skel":
        data, cursor.pos = loads_json_at(text, cursor.pos)
        poset = poset_from_json(data)
        cursor.expect(",", "after the poset of 'skel'", TermError)
        raw, cursor.pos = loads_json_at(text, cursor.pos)
        term = SkelTerm(Skeleton(poset, _labels(poset, raw)))
    else:
        if depth == MAX_NESTING:
            raise TermError(f"space terms nested deeper than MAX_NESTING = {MAX_NESTING}")
        args = [_parse_term(cursor, depth + 1)]
        while cursor.peek() == ",":
            cursor.pos += 1
            args.append(_parse_term(cursor, depth + 1))
        if head == "sum":
            term = SumTerm(tuple(args))
        elif len(args) != 2:
            raise TermError("prod takes exactly two terms")
        else:
            term = ProdTerm(args[0], args[1])
    cursor.expect(")", f"to close {head!r}", TermError)
    return term


def _labels(poset: FinitePoset, raw) -> tuple:
    """The skeleton labels that the JSON label map ``raw`` gives, one per
    element: a natural number (not a bool) or an ordinal string each."""
    if not isinstance(raw, dict):
        raise TermError("skel label map must be a JSON object")
    labels = [None] * poset.n
    for name, val in raw.items():
        if isinstance(val, str):
            labels[poset.index(name)] = parse_ordinal(val)
        elif _is_int(val) and val >= 0:
            labels[poset.index(name)] = Ordinal.from_int(val)
        else:
            raise TermError(f"label of {name!r} must be a natural number or an ordinal"
                            f" string, not {json.dumps(val)}")
    if any(v is None for v in labels):
        raise TermError("label map must cover every element")
    return tuple(labels)
