import random
from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordtop.clopen as clopen
from ordtop.clopen import (
    MAX_ENDPOINTS,
    MAX_GRID,
    CBData,
    ClopenError,
    ClopenSet,
    _piece_rank,
    _top_points,
    clopen_algebra,
    clopen_cb,
    clopen_complement,
    clopen_from_pieces,
    clopen_intersect,
    clopen_union,
    cnf_truncation_grid,
    first_non_treelike_pair,
    format_clopen,
    min_clopen_with_endpoint,
    parse_clopen,
    tip_selector,
    treelike_check,
)
from ordtop.ordinal import (
    ONE,
    ZERO,
    CheckReport,
    Ordinal,
    OrdinalError,
    ParseError,
    _trusted,
    format_ordinal,
    ord_add,
    parse_ordinal,
    random_ordinal,
    random_ordinal_below,
    sort_key,
    tip_deg,
)

P = parse_ordinal
AMB = P("w^3*4")


def rand_clopen(rng, ambient=AMB, max_pieces=3):
    pieces = []
    for _ in range(rng.randint(0, max_pieces)):
        a = random_ordinal_below(rng, ambient)
        b = random_ordinal_below(rng, ambient)
        if a == b:
            continue
        s, t = (a, b) if a < b else (b, a)
        pieces.append((s, t))
    return clopen_from_pieces(ambient, pieces, zero=rng.random() < 0.3)


def sample_points(rng, sets, ambient=AMB, extra=8):
    pts = {ZERO}
    for u in sets:
        for s, t in u.intervals:
            pts.add(s)
            pts.add(t)
            pts.add(P(str(s)) + 1)
    for _ in range(extra):
        pts.add(random_ordinal_below(rng, ambient))
    return [p for p in pts if p <= ambient]


def holds(u, point):
    """Whether the clopen set ``u`` holds ``point``: 0 by its flag, any
    other point by the piece (s, t] it lies in."""
    if point.is_zero:
        return u.zero_included
    return any(s < point <= t for s, t in u.intervals)


def piece_count(u):
    return len(u.intervals)


def clopen_to_json(u):
    return {
        "ambient": format_ordinal(u.ambient, compact=True),
        "zero": u.zero_included,
        "intervals": [[format_ordinal(s, compact=True), format_ordinal(t, compact=True)]
                      for s, t in u.intervals],
    }


def clopen_from_json(data):
    if "ambient" not in data:
        raise ClopenError("clopen JSON must have an 'ambient' field")
    return ClopenSet(
        parse_ordinal(data["ambient"]),
        bool(data.get("zero", False)),
        tuple((parse_ordinal(s), parse_ordinal(t)) for s, t in data.get("intervals", ())),
    )


# -- oracle for Cantor-Bendixson data ------------------------------------

def cb_scan_oracle(u, rng, tries=60):
    """Max tip exponent over a candidate scan between the piece bounds."""
    candidates = set()
    for s, t in u.intervals:
        candidates.add(t)
        for k in range(len(t.terms) + 1):
            candidates.add(Ordinal(t.terms[:k]))
        for e in list({e for e, _ in s.terms} | {e for e, _ in t.terms} | {ZERO, ONE}):
            for base in list(candidates):
                candidates.add(base + Ordinal.omega_power(e))
        for _ in range(tries):
            candidates.add(random_ordinal_below(rng, t))
    inside = [c for c in candidates if not c.is_zero and holds(u, c)]
    if u.zero_included:
        best = ZERO
    else:
        best = None
    for c in inside:
        r = tip_deg(c).tip_exponent
        if best is None or best < r:
            best = r
    witnesses = {c for c in inside if tip_deg(c).tip_exponent == best}
    if u.zero_included and best == ZERO:
        witnesses.add(ZERO)
    return best, witnesses


# -- the stepping code that the direct rank and the one-piece search replaced --

def _trunc_at_least(a, e):
    """Terms of ``a`` with exponent >= e (the multiple-of-w^e floor).

    Exponents decrease along a normal form, so these terms are a prefix of
    it, and the matching prefix of ``a._key`` is its key.
    """
    key, ke = a._key, e._key
    k = 0
    while k < len(key) and key[k][0] >= ke:
        k += 1
    return _trusted(key[:k])


def _next_multiple_above(s, e):
    """Least multiple of w^e strictly greater than s."""
    return ord_add(_trunc_at_least(s, e), Ordinal.omega_power(e))


def stepping_piece_rank(s, t):
    """Oracle: max point rank over (s, t] and the points attaining it, found
    by trying every exponent of s and t and stepping by w^e from the least
    multiple above s."""
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


def stepping_cb(u):
    """Oracle: ``clopen_cb`` over ``stepping_piece_rank``, with no limit."""
    if u.is_empty:
        raise ClopenError("empty set has no Cantor-Bendixson data")
    height = ZERO if u.zero_included else None
    per_piece = []
    for s, t in u.intervals:
        e, pts = stepping_piece_rank(s, t)
        per_piece.append((e, pts))
        if height is None or height < e:
            height = e
    endpoints = []
    if u.zero_included and height == ZERO:
        endpoints.append(ZERO)
    for e, pts in per_piece:
        if e == height:
            endpoints.extend(pts)
    unitary = len(endpoints) == 1
    return CBData(height, tuple(endpoints), unitary,
                  endpoints[0] if unitary else None)


def all_counts_min_clopen(beta, ambient, grid):
    """Oracle: the search over sets of 1, 2, 3, ... pieces, keeping the
    lexicographically least of the first piece count with a hit."""
    if not beta <= ambient:
        raise ClopenError("point exceeds ambient")
    grid_vals = sorted({g for g in grid if g <= ambient}, key=sort_key)
    for ell in range(1, max(1, len(grid_vals) // 2) + 1):
        found = []
        for seq in combinations(grid_vals, 2 * ell):
            pieces = tuple((seq[2 * i], seq[2 * i + 1]) for i in range(ell))
            candidate = ClopenSet(ambient, False, pieces)
            data = stepping_cb(candidate)
            if data.unitary and data.lastpt == beta:
                found.append((seq, candidate))
        if found:
            found.sort(key=lambda sc: [sort_key(x) for x in sc[0]])
            return found[0][1]
    raise ClopenError("no candidate in grid has the prescribed end point")


def outcome(search, *args):
    """The set a search returns, or the message of the ClopenError it raises."""
    try:
        return search(*args)
    except ClopenError as e:
        return str(e)


# -- the pair scan and the nested search that the sweep and the one-pass
#    search replaced --

def _laminar_relation(a, b):
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


def pairwise_treelike_check(ambient, points):
    """Oracle: ``treelike_check`` over all pairs of selector sets, related
    through ``clopen_intersect``."""
    pts = list(points)
    sels = [clopen.tip_selector(p, ambient) for p in pts]
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


def nested_min_clopen(beta, ambient, grid):
    """Oracle: ``min_clopen_with_endpoint`` trying every piece (s, t] with
    s < beta <= t, s ascending and then t."""
    if not beta <= ambient:
        raise ClopenError("point exceeds ambient")
    grid_vals = sorted({g for g in grid if g <= ambient}, key=sort_key)
    if len(grid_vals) > MAX_GRID:
        raise ClopenError(f"grid has more than MAX_GRID = {MAX_GRID} values")
    kb = beta._key
    cut = bisect_left(grid_vals, kb, key=sort_key)
    for s in grid_vals[:cut]:
        for t in grid_vals[cut:]:
            _, i, lo, hi = _piece_rank(s, t)
            if lo == hi and t._key[:i + 1] == kb:
                return ClopenSet(ambient, False, ((s, t),))
    raise ClopenError("no candidate in grid has the prescribed end point")


# -- boolean algebra -------------------------------------------------------

def test_complement_of_empty_is_full():
    empty = ClopenSet(AMB)
    full = clopen_complement(empty)
    assert full.zero_included
    assert full.intervals == ((ZERO, AMB),)
    assert clopen_complement(full) == empty


def test_adjacent_pieces_merge():
    u = clopen_from_pieces(P("w^2"), [(ZERO, P("w")), (P("w"), P("w*2"))])
    assert u.intervals == ((ZERO, P("w*2")),)


def test_algebra_matches_membership_oracle():
    rng = random.Random(0)
    for _ in range(300):
        a, b = rand_clopen(rng), rand_clopen(rng)
        pts = sample_points(rng, [a, b])
        u = clopen_union(a, b)
        i = clopen_intersect(a, b)
        c = clopen_complement(a)
        for p in pts:
            assert holds(u, p) == (holds(a, p) or holds(b, p))
            assert holds(i, p) == (holds(a, p) and holds(b, p))
            assert holds(c, p) == (not holds(a, p))


def complement_by_normalizing(a):
    """``clopen_complement`` as it was: the gaps between the pieces of ``a``
    normalized by ``clopen_from_pieces``."""
    gaps, prev = [], ZERO
    for s, t in a.intervals:
        gaps.append((prev, s))
        prev = t
    gaps.append((prev, a.ambient))
    return clopen_from_pieces(a.ambient, gaps, not a.zero_included)


def test_complement_matches_the_normalized_gaps():
    # the seeded sets, and the empty set, {0} alone, the full space, a piece
    # from 0 and a piece to the ambient, each with and without 0
    rng = random.Random(0)
    sets = [rand_clopen(rng, max_pieces=rng.choice([3, 8])) for _ in range(300)]
    for zero in (False, True):
        sets += [ClopenSet(AMB, zero, pieces) for pieces in
                 ((), ((ZERO, AMB),), ((ZERO, P("w")),), ((P("w^2"), AMB),),
                  ((ZERO, P("w")), (P("w*2"), P("w^2")), (P("w^3"), AMB)))]
    for a in sets:
        assert clopen_complement(a) == complement_by_normalizing(a), a
        assert clopen_complement(clopen_complement(a)) == a, a


def pairwise_intersect(a, b):
    """``clopen_intersect`` as it was before the merge: every piece of ``a``
    met with every piece of ``b``, and the meets normalized."""
    pieces = []
    for s1, t1 in a.intervals:
        for s2, t2 in b.intervals:
            s = s1 if s2 < s1 else s2
            t = t1 if t1 < t2 else t2
            if s < t:
                pieces.append((s, t))
    return clopen_from_pieces(a.ambient, pieces, a.zero_included and b.zero_included)


def grid_clopen(rng, grid, max_pieces):
    """A seeded clopen set in [0, AMB] whose pieces end on ``grid``, so
    that two such sets share end points and have touching pieces."""
    ends = sorted(rng.sample(grid, 2 * rng.randint(0, max_pieces)), key=sort_key)
    return clopen_from_pieces(AMB, zip(ends[::2], ends[1::2]), zero=rng.random() < 0.3)


def test_intersect_merge_matches_the_pairwise_oracle():
    rng = random.Random(46)
    grid = [*map(P, ("0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w", "w^3", "w^3*2")), AMB]
    sets = [ClopenSet(AMB), ClopenSet(AMB, True), ClopenSet(AMB, True, ((ZERO, AMB),)),
            ClopenSet(AMB, False, ((ZERO, ONE), (P("2"), P("w")))),
            ClopenSet(AMB, False, ((ONE, P("2")), (P("w"), P("w*2"))))]  # touches the set before
    sets += [grid_clopen(rng, grid, 5) for _ in range(50)]
    sets += [rand_clopen(rng, max_pieces=6) for _ in range(30)]
    shared = touching = 0
    for a in sets:
        for b in sets:
            assert clopen_intersect(a, b) == pairwise_intersect(a, b), (a, b)
            ends_a = {t for _, t in a.intervals}
            shared += bool(ends_a & {t for _, t in b.intervals})
            touching += bool(ends_a & {s for s, _ in b.intervals})
    assert shared > 100 and touching > 100


def test_boolean_laws_pointwise():
    rng = random.Random(1)
    for _ in range(250):
        a, b, c = rand_clopen(rng), rand_clopen(rng), rand_clopen(rng)
        pts = sample_points(rng, [a, b, c], extra=5)
        lhs = clopen_intersect(a, clopen_union(b, c))
        rhs = clopen_union(clopen_intersect(a, b), clopen_intersect(a, c))
        dm1 = clopen_complement(clopen_union(a, b))
        dm2 = clopen_intersect(clopen_complement(a), clopen_complement(b))
        for p in pts:
            assert holds(lhs, p) == holds(rhs, p)
            assert holds(dm1, p) == holds(dm2, p)
        # normalization uniqueness: pointwise-equal results are equal
        assert lhs == rhs
        assert dm1 == dm2


def test_ambient_mismatch_rejected():
    with pytest.raises(ClopenError, match="ambient"):
        clopen_union(ClopenSet(P("w")), ClopenSet(P("w^2")))


def test_algebra_dispatcher():
    a = ClopenSet(AMB, zero_included=True)
    assert holds(clopen_algebra("complement", a), ONE)
    with pytest.raises(ClopenError):
        clopen_algebra("complement", a, a)
    with pytest.raises(ClopenError):
        clopen_algebra("union", a)
    with pytest.raises(ClopenError):
        clopen_algebra("xor", a, a)


# -- Cantor-Bendixson data ---------------------------------------------------

def test_cb_single_piece_with_tip_drop():
    delta = P("w^3")
    u = ClopenSet(AMB, False, ((delta, P("w^3 + w^2")),))
    data = clopen_cb(u)
    assert data.height == P("2")
    assert data.unitary and data.lastpt == P("w^3 + w^2")


def test_cb_zero_singleton():
    u = ClopenSet(AMB, zero_included=True)
    data = clopen_cb(u)
    assert data.height == ZERO and data.lastpt == ZERO


def test_cb_two_endpoints():
    u = ClopenSet(AMB, False, ((ZERO, P("w^2*2")),))
    data = clopen_cb(u)
    assert data.height == P("2")
    assert set(data.endpoints) == {P("w^2"), P("w^2*2")}
    assert not data.unitary


def test_cb_empty_rejected():
    with pytest.raises(ClopenError):
        clopen_cb(ClopenSet(AMB))


def test_cb_matches_scan_oracle():
    rng = random.Random(2)
    for _ in range(150):
        u = rand_clopen(rng)
        if u.is_empty:
            continue
        data = clopen_cb(u)
        o_height, o_witnesses = cb_scan_oracle(u, rng)
        assert data.height == o_height
        # scan may miss witnesses but never finds a higher rank
        assert o_witnesses <= set(data.endpoints)
        for w in data.endpoints:
            assert holds(u, w)
            if not w.is_zero:
                assert tip_deg(w).tip_exponent == data.height


def random_piece(rng):
    """Two distinct ordinals with depth-2 exponents that share a random
    prefix of terms, in ascending order."""
    base = random_ordinal(rng, max_terms=4, depth=2, max_coeff=3, max_finite_exp=3)
    prefix = base.terms[:rng.randint(0, len(base.terms))]

    def extend():
        tail = random_ordinal(rng, max_terms=3, depth=2, max_coeff=3, max_finite_exp=3)
        return Ordinal(prefix + tuple(term for term in tail.terms
                                      if not prefix or term[0] < prefix[-1][0]))

    a, b = extend(), extend()
    return (a, b) if a < b else (b, a)


def test_piece_rank_matches_stepping_oracle():
    rng = random.Random(19)
    shapes = set()
    checked = 0
    while checked < 3000:
        s, t = random_piece(rng)
        if s == t:
            continue
        checked += 1
        e, i, lo, hi = _piece_rank(s, t)
        assert (e, _top_points(t, i, lo, hi)) == stepping_piece_rank(s, t), (s, t)
        same_exponent = i < len(s.terms) and s.terms[i][0] == e
        shapes.add((i > 0, same_exponent, i == len(s.terms)))
    # shared prefixes, a same-exponent term at the first difference, and s a
    # prefix of t all occur
    assert {(True, True, False), (True, False, False), (True, False, True),
            (False, False, True)} <= shapes


def test_cb_matches_stepping_oracle():
    rng = random.Random(20)
    for _ in range(400):
        u = rand_clopen(rng, max_pieces=4)
        if not u.is_empty:
            assert clopen_cb(u) == stepping_cb(u), u


def test_cb_endpoint_limit():
    # (0, w*n] has the n end points w, w*2, ..., w*n
    at = clopen_cb(parse_clopen(f"(0,w*{MAX_ENDPOINTS}] @ w*{MAX_ENDPOINTS}"))
    assert len(at.endpoints) == MAX_ENDPOINTS and at.endpoints[-1] == P(f"w*{MAX_ENDPOINTS}")
    for text in (f"(0,w*{MAX_ENDPOINTS + 1}] @ w^2",
                 f"{{0}} (0,{MAX_ENDPOINTS}] @ w",  # the point 0 counts too
                 f"(0,w*{2 ** 9999}] @ w^2",
                 f"(0,w] (w*2,w*{MAX_ENDPOINTS + 2}] @ w^2"):  # summed over pieces
        with pytest.raises(ClopenError, match=f"MAX_ENDPOINTS = {MAX_ENDPOINTS} end points"):
            clopen_cb(parse_clopen(text))
    # points of a lower rank than the height are not end points and are not counted
    low = clopen_cb(parse_clopen(f"(0,{2 ** 9999}] (w,w*2] @ w*2"))
    assert low.endpoints == (P("w*2"),)


# -- tip selector --------------------------------------------------------------

def test_tip_selector_examples():
    assert tip_selector(P("w+5"), AMB).intervals == ((P("w+4"), P("w+5")),)
    assert tip_selector(P("w^2"), AMB).intervals == ((ZERO, P("w^2")),)
    u = tip_selector(P("w*3"), AMB)
    assert u.intervals == ((P("w*2"), P("w*3")),)
    data = clopen_cb(u)
    assert data.height == ONE and data.lastpt == P("w*3")


def test_tip_selector_zero():
    u = tip_selector(ZERO, AMB)
    assert u.zero_included and not u.intervals


def test_tip_selector_unitary_with_prescribed_endpoint():
    rng = random.Random(3)
    for _ in range(200):
        beta = random_ordinal_below(rng, AMB)
        u = tip_selector(beta, AMB)
        data = clopen_cb(u)
        assert data.unitary
        assert data.lastpt == beta
        if not beta.is_zero:
            assert data.height == tip_deg(beta).tip_exponent


def test_naive_tip_interval_has_wrong_endpoint():
    # keeping the whole last block, i.e. (tip, beta], puts the end point at
    # the block boundary instead of beta; the selector drops one copy of
    # the block instead
    beta = P("w+5")
    naive = ClopenSet(AMB, False, ((ONE, beta),))
    data = clopen_cb(naive)
    assert data.lastpt == P("w") and data.height == ONE
    fixed = clopen_cb(tip_selector(beta, AMB))
    assert fixed.lastpt == beta and fixed.height == ZERO


def test_tip_selector_out_of_range():
    with pytest.raises(ClopenError):
        tip_selector(P("w^9"), AMB)


# -- tree-like laminarity ---------------------------------------------------

def test_treelike_small_example():
    rep = treelike_check(AMB, [P("w*2"), P("w+3"), P("w*2+1")])
    assert rep.passed


def test_treelike_single_point():
    assert treelike_check(AMB, [P("w^2")]).passed


def test_treelike_random_points():
    rng = random.Random(4)
    big = P("w^w*5")
    pts = {random_ordinal_below(rng, big) for _ in range(150)}
    rep = treelike_check(big, pts)
    assert rep.passed
    assert rep.data["pairs"] == len(pts) * (len(pts) - 1) // 2


def test_treelike_out_of_range_point():
    with pytest.raises(ClopenError):
        treelike_check(P("w"), [P("w^2")])


def test_treelike_check_matches_the_pairwise_oracle(monkeypatch):
    # half the lists widen some selector pieces to (s', beta] with s' below
    # the tip start, which crosses pieces or breaks the height order
    rng = random.Random(17)
    amb = P("w^2*3")
    real = clopen.tip_selector
    verdicts = set()
    for n in range(1200):
        pool = [random_ordinal_below(rng, amb) for _ in range(rng.randint(1, 6))] + [ZERO]
        pts = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        wide = {}
        if n % 2:
            for p in rng.sample(pool, rng.randint(1, len(pool))):
                if not p.is_zero:
                    (start, _), = real(p, amb).intervals
                    if not start.is_zero:
                        wide[p] = random_ordinal_below(rng, start)

        def selector(beta, ambient):
            if beta in wide:
                return ClopenSet(ambient, False, ((wide[beta], beta),))
            return real(beta, ambient)

        monkeypatch.setattr(clopen, "tip_selector", selector)
        got = treelike_check(amb, pts)
        assert got == pairwise_treelike_check(amb, pts), (pts, wide)
        verdicts.add((bool(wide), got.passed))
    assert verdicts == {(False, True), (True, True), (True, False)}


def pairwise_first_non_laminar(intervals):
    """Oracle: the first pair in combinations order that is neither
    disjoint nor nested, by the all-pairs scan the sweep replaced."""
    for (s1, t1), (s2, t2) in combinations(intervals, 2):
        disjoint = t1 <= s2 or t2 <= s1
        nested = (s2 <= s1 and t1 <= t2) or (s1 <= s2 and t2 <= t1)
        if not (disjoint or nested):
            return (s1, t1), (s2, t2)
    return None


def _ints(pairs):
    return [(Ordinal.from_int(s), Ordinal.from_int(t)) for s, t in pairs]


def nesting_heights(intervals):
    """Heights that every strict nesting satisfies: each piece's place in
    (t ascending, s descending) order, equal pieces sharing one."""
    distinct = sorted(set(intervals), key=lambda p: sort_key(p[0]), reverse=True)
    distinct.sort(key=lambda p: sort_key(p[1]))
    place = {p: Ordinal.from_int(k) for k, p in enumerate(distinct)}
    return [place[p] for p in intervals]


def first_crossing(intervals):
    """The first crossing pair, found by the tree-like sweep under heights
    that every nesting satisfies."""
    bad = first_non_treelike_pair(intervals, nesting_heights(intervals))
    return None if bad is None else tuple(intervals[k] for k in bad)


@pytest.mark.parametrize("pairs,expected", [
    ([], None),
    ([(0, 2)], None),
    # crossing pairs, either input order
    ([(0, 2), (1, 3)], ((0, 2), (1, 3))),
    ([(1, 3), (0, 2)], ((1, 3), (0, 2))),
    # shared endpoints: (0,2] and (2,4] are disjoint
    ([(0, 2), (2, 4)], None),
    ([(2, 4), (0, 2), (4, 6), (0, 6)], None),
    # equal intervals and a shared start
    ([(1, 3), (1, 3)], None),
    ([(0, 3), (0, 5)], None),
    ([(0, 5), (0, 3), (1, 4)], ((0, 3), (1, 4))),
    # empty intervals (s, s] never break laminarity
    ([(2, 2), (1, 3), (0, 5), (3, 3), (5, 5), (4, 4)], None),
    ([(1, 1), (0, 2), (1, 1), (2, 2), (1, 3)], ((0, 2), (1, 3))),
    # the sweep meets (0,2] vs (1,3] first; the first pair in input order is
    # (5,8] vs (6,9]
    ([(5, 8), (0, 2), (6, 9), (1, 3)], ((5, 8), (6, 9))),
    ([(0, 9), (4, 6), (1, 3), (2, 5), (5, 7)], ((4, 6), (2, 5))),
])
def test_first_non_laminar_pair_cases(pairs, expected):
    intervals = _ints(pairs)
    got = first_crossing(intervals)
    assert got == pairwise_first_non_laminar(intervals)
    assert got == (None if expected is None else tuple(_ints(expected)))


def pairwise_first_non_treelike(pairs, heights):
    """Oracle over natural-number pieces, read as sets of points: the first
    pair (i, j) that is neither disjoint, nor equal, nor nested with the
    inner one strictly lower."""
    sets = [set(range(s + 1, t + 1)) for s, t in pairs]
    for i, j in combinations(range(len(pairs)), 2):
        a, b = sets[i], sets[j]
        if (a & b and a != b and not (a < b and heights[i] < heights[j])
                and not (b < a and heights[j] < heights[i])):
            return i, j
    return None


@pytest.mark.parametrize("pairs,heights,expected", [
    # the inner piece must be strictly lower
    ([(0, 5), (1, 2)], [0, 1], (0, 1)),
    ([(0, 5), (1, 2)], [1, 1], (0, 1)),
    ([(1, 2), (0, 5)], [1, 0], (0, 1)),
    ([(0, 5), (1, 2)], [1, 0], None),
    # a shared end or start still nests
    ([(0, 5), (3, 5)], [2, 2], (0, 1)),
    ([(0, 5), (0, 3)], [2, 3], (0, 1)),
    # equal pieces pass whatever their heights, but each one must sit above
    # the pieces inside it: the lower twin is the one that fails
    ([(0, 5), (0, 5)], [1, 9], None),
    ([(0, 5), (0, 5), (1, 2)], [1, 9, 3], (0, 2)),
    ([(0, 5), (0, 5), (1, 2)], [9, 1, 3], (1, 2)),
    # only the nearest container is compared, and heights fall along nesting
    ([(0, 9), (1, 8), (2, 7), (3, 4)], [3, 2, 1, 0], None),
    ([(0, 9), (1, 8), (2, 7), (3, 4)], [3, 2, 0, 1], (2, 3)),
    ([(3, 4), (2, 7), (0, 9), (1, 8)], [0, 1, 2, 3], (2, 3)),
    # an empty piece (s, s] has no point, so it meets nothing
    ([(0, 5), (2, 4), (2, 2)], [1, 0, 5], None),
    ([(2, 2), (2, 2), (0, 5)], [3, 1, 0], None),
    # disjoint pieces pass whatever their heights
    ([(0, 2), (2, 4), (5, 6)], [2, 0, 2], None),
])
def test_first_non_treelike_pair_height_cases(pairs, heights, expected):
    got = first_non_treelike_pair(_ints(pairs), [Ordinal.from_int(h) for h in heights])
    assert got == pairwise_first_non_treelike(pairs, heights) == expected


def test_first_non_treelike_pair_matches_the_set_oracle():
    # small pieces with few heights: equal pieces of unequal height, empty
    # pieces and ties of every kind occur
    rng = random.Random(12)
    verdicts = set()
    for _ in range(3000):
        pairs = []
        for _ in range(rng.randint(0, 9)):
            a, b = rng.randint(0, 10), rng.randint(0, 10)
            pairs.append((min(a, b), max(a, b)))
        heights = [rng.randint(0, 3) for _ in pairs]
        got = first_non_treelike_pair(_ints(pairs), [Ordinal.from_int(h) for h in heights])
        assert got == pairwise_first_non_treelike(pairs, heights), (pairs, heights)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def _random_intervals(rng, point):
    out = []
    for _ in range(rng.randint(0, 9)):
        a, b = point(rng), point(rng)
        out.append((a, b) if a <= b else (b, a))
    return out


@pytest.mark.parametrize("point", [
    lambda rng: Ordinal.from_int(rng.randint(0, 12)),
    lambda rng: random_ordinal(rng, max_terms=2, depth=1, max_coeff=2,
                               max_finite_exp=2),
], ids=["small-int", "depth-1"])
def test_first_non_laminar_pair_matches_pairwise_scan(point):
    rng = random.Random(11)
    verdicts = set()
    for _ in range(3000):
        intervals = _random_intervals(rng, point)
        got = first_crossing(intervals)
        assert got == pairwise_first_non_laminar(intervals), intervals
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_first_non_laminar_pair_on_tip_selectors():
    # tip selector intervals are laminar; one crossing interval breaks them
    rng = random.Random(5)
    amb = P("w^w*5")
    for _ in range(60):
        intervals = [tip_selector(b, amb).intervals[0]
                     for b in (random_ordinal_below(rng, amb) for _ in range(40))
                     if not b.is_zero]
        assert first_crossing(intervals) is None
        assert pairwise_first_non_laminar(intervals) is None
        ends = sorted({x for p in intervals for x in p}, key=sort_key)
        s, t = sorted(rng.sample(ends, 2), key=sort_key)
        intervals.insert(rng.randint(0, len(intervals)), (s, t))
        assert first_crossing(intervals) == pairwise_first_non_laminar(intervals)


# -- trusted construction agrees with the public constructor ------------------

@st.composite
def ordinals(draw, max_terms=4):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_ordinal(random.Random(seed), max_terms=max_terms, depth=2)


def assert_same_ordinal(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert got._key == want._key
    assert got.terms == want.terms


@given(ordinals(max_terms=1), st.integers(min_value=1, max_value=2**70))
def test_omega_power_matches_public_constructor(e, c):
    assert_same_ordinal(Ordinal.omega_power(e, c), Ordinal(((e, c),)))


@pytest.mark.parametrize("exponent,coeff", [
    (1, 1), ("w", 1), (ONE, 0), (ONE, -2), (ONE, "1"), (ONE, 1.0), (ONE, True), (ONE, False)])
def test_omega_power_still_checks_its_inputs(exponent, coeff):
    with pytest.raises(OrdinalError):
        Ordinal.omega_power(exponent, coeff)


@given(ordinals(), ordinals(max_terms=1), st.integers(min_value=0, max_value=5))
def test_trunc_at_least_matches_public_constructor(a, e, pick):
    # half the exponents come from a itself, to hit the >= boundary
    if a.terms and pick % 2:
        e = a.terms[pick % len(a.terms)][0]
    want = Ordinal(tuple(t for t in a.terms if t[0] >= e))
    assert_same_ordinal(_trunc_at_least(a, e), want)


@given(ordinals())
def test_tip_selector_start_matches_public_constructor(beta):
    if beta.is_zero:
        return
    *prefix, (e, p) = beta.terms
    want = Ordinal(tuple(prefix) + (((e, p - 1),) if p > 1 else ()))
    (start, end), = tip_selector(beta, beta).intervals
    assert_same_ordinal(start, want)
    assert end is beta


# -- minimal clopen with prescribed end point ----------------------------------

def brute_min_clopen(beta, ambient, grid, max_ell=2):
    """Exhaustive search over grid interval sets, minimal length first."""
    from itertools import combinations
    grid = sorted(grid)
    for ell in range(1, max_ell + 1):
        best = None
        for seq in combinations(grid, 2 * ell):
            try:
                u = ClopenSet(ambient, False,
                              tuple((seq[2 * i], seq[2 * i + 1]) for i in range(ell)))
            except ClopenError:
                continue
            d = clopen_cb(u)
            if d.unitary and d.lastpt == beta:
                key = list(seq)
                if best is None or key < best[0]:
                    best = (key, u)
        if best:
            return best[1]
    return None


def test_min_clopen_omega():
    got = min_clopen_with_endpoint(P("w"), AMB, [ZERO, ONE, P("w"), P("w+1")])
    assert got.intervals == ((ZERO, P("w")),)
    assert piece_count(got) == 1


def test_min_clopen_isolated_point():
    got = min_clopen_with_endpoint(P("5"), AMB, cnf_truncation_grid(P("5")))
    assert got.intervals == ((P("4"), P("5")),)


def test_min_clopen_rich_grid():
    beta = P("w^2 + w")
    grid = cnf_truncation_grid(beta) + [P("w^2 + w + 1"), P("w^2*2")]
    got = min_clopen_with_endpoint(beta, AMB, grid)
    assert got.intervals == ((P("w^2"), P("w^2 + w")),)
    assert got == tip_selector(beta, AMB)


def test_min_clopen_matches_exhaustive_search():
    rng = random.Random(5)
    for _ in range(50):
        beta = random_ordinal_below(rng, P("w^3*2"))
        if beta.is_zero:
            continue
        grid = cnf_truncation_grid(beta)
        got = min_clopen_with_endpoint(beta, AMB, grid)
        oracle = brute_min_clopen(beta, AMB, grid)
        assert oracle is not None
        assert got == oracle
        assert got == tip_selector(beta, AMB)


def test_min_clopen_no_candidate():
    with pytest.raises(ClopenError, match="no candidate"):
        min_clopen_with_endpoint(P("w"), AMB, [ZERO, ONE])


def grid_variants(rng, beta, ambient):
    """The truncation grid of beta, widened, thinned, pushed above the
    ambient and stripped of its answer."""
    grid = cnf_truncation_grid(beta)
    extra = [random_ordinal_below(rng, ambient) for _ in range(3)]
    yield "truncations", grid
    yield "extra values", grid + extra
    yield "removed values", rng.sample(grid, max(0, len(grid) - rng.randint(1, 2)))
    yield "above the ambient", grid + [ambient + 1, ambient + P("w")]
    # the only end point of (s, t] is beta only if t starts with beta's terms
    others = [x for x in extra if x._key[:len(beta._key)] != beta._key]
    yield "no answer", [g for g in grid if g != beta] + others


def test_min_clopen_matches_all_counts_oracle():
    rng = random.Random(21)
    ambient = P("w^3*2")
    kinds = {}
    for _ in range(150):
        beta = random_ordinal_below(rng, ambient)
        for kind, grid in grid_variants(rng, beta, ambient):
            got = outcome(min_clopen_with_endpoint, beta, ambient, grid)
            assert got == outcome(all_counts_min_clopen, beta, ambient, grid), (beta, kind, grid)
            if not beta.is_zero:
                kinds.setdefault(kind, set()).add(isinstance(got, str))
    # beta = 0 has no answer, as no (s, t] piece holds 0
    for grid in ([ZERO], [ZERO, ONE, P("w")], cnf_truncation_grid(P("w+2"))):
        assert (outcome(min_clopen_with_endpoint, ZERO, ambient, grid)
                == outcome(all_counts_min_clopen, ZERO, ambient, grid)
                == "no candidate in grid has the prescribed end point")
    # a point above the ambient is refused by both
    assert (outcome(min_clopen_with_endpoint, P("w^4"), ambient, [ZERO])
            == outcome(all_counts_min_clopen, P("w^4"), ambient, [ZERO])
            == "point exceeds ambient")
    # widening keeps the answer, thinning may lose it
    assert kinds == {"truncations": {False}, "extra values": {False},
                     "removed values": {False, True}, "above the ambient": {False},
                     "no answer": {True}}


def test_min_clopen_matches_the_nested_oracle():
    # grids around beta: some of its truncations, values that start with
    # its terms (so t need not be beta), values that do not, and values
    # above the ambient
    rng = random.Random(23)
    ambient = P("w^3*2")
    answers = set()
    for _ in range(10000):
        beta = random_ordinal_below(rng, ambient)
        trunc = cnf_truncation_grid(beta)
        grid = rng.sample(trunc, rng.randint(0, len(trunc)))
        if not beta.is_zero:
            below_tip = Ordinal.omega_power(beta.terms[-1][0])
            grid += [beta + random_ordinal_below(rng, below_tip) for _ in range(rng.randint(0, 2))]
        grid += [random_ordinal_below(rng, ambient + ONE) for _ in range(rng.randint(0, 3))]
        grid += [ambient + ONE] * rng.randint(0, 1)
        got = outcome(min_clopen_with_endpoint, beta, ambient, grid)
        assert got == outcome(nested_min_clopen, beta, ambient, grid), (beta, grid)
        answers.add("none" if isinstance(got, str) else got.intervals[0][1] == beta)
    assert answers == {"none", True, False}


def test_one_piece_lemma_exhaustive():
    # every two-piece set whose four ends are values below w^3*2 with
    # exponents up to 3, coefficients up to 2 and at most two terms
    values = {ZERO}
    for e1 in range(4):
        for c1 in (1, 2):
            values.add(P(f"w^{e1}*{c1}"))
            for e2 in range(e1):
                for c2 in (1, 2):
                    values.add(P(f"w^{e1}*{c1}+w^{e2}*{c2}"))
    ambient = P("w^3*2")
    values = sorted((v for v in values if v < ambient), key=sort_key)
    unitary_pairs = 0
    for a, b, c, d in combinations(values, 4):
        data = clopen_cb(ClopenSet(ambient, False, ((a, b), (c, d))))
        if not data.unitary:
            continue
        unitary_pairs += 1
        beta = data.lastpt
        piece = (a, b) if a < beta <= b else (c, d)
        one = clopen_cb(ClopenSet(ambient, False, (piece,)))
        assert one.unitary and one.lastpt == beta, (a, b, c, d)
    assert unitary_pairs > 1000


def test_grid_limit():
    # w*n has n + 1 truncations: 0, w, ..., w*n
    top = P(f"w*{MAX_GRID - 1}")
    grid = cnf_truncation_grid(top)
    assert len(grid) == MAX_GRID and grid[-1] == top
    assert min_clopen_with_endpoint(top, top, grid).intervals == ((P(f"w*{MAX_GRID - 2}"), top),)
    for coeff in (MAX_GRID, 2 ** 9999):
        with pytest.raises(ClopenError, match=f"MAX_GRID = {MAX_GRID} values"):
            cnf_truncation_grid(P(f"w*{coeff}"))
    # a given grid counts its distinct values up to the ambient
    finite = [Ordinal.from_int(n) for n in range(MAX_GRID - 1)]
    got = min_clopen_with_endpoint(P("w"), P("w"), finite + [P("w"), P("w") + 1, ONE])
    assert got == ClopenSet(P("w"), False, ((ZERO, P("w")),))
    with pytest.raises(ClopenError, match=f"MAX_GRID = {MAX_GRID} values"):
        min_clopen_with_endpoint(P("w"), P("w+1"), finite + [P("w"), P("w") + 1])


def test_truncation_grid_contains_tip_endpoints():
    beta = P("w^2*3 + w*2 + 4")
    grid = cnf_truncation_grid(beta)
    assert ZERO in grid and beta in grid
    assert P("w^2*3 + w*2 + 3") in grid  # beta minus its tip
    assert P("w^2*3") in grid and P("w^2") in grid


# -- text form -------------------------------------------------------------------

def test_text_roundtrip():
    u = clopen_from_pieces(AMB, [(P("w"), P("w*2")), (P("w^2"), P("w^2+5"))], zero=True)
    s = format_clopen(u)
    assert s == "{0} (w,w*2] (w^2,w^2+5] @ w^3*4"
    assert parse_clopen(s) == u


def test_text_empty_set():
    u = ClopenSet(AMB)
    assert format_clopen(u) == "{} @ w^3*4"
    assert parse_clopen("{} @ w^3*4") == u


def test_json_roundtrip():
    u = clopen_from_pieces(AMB, [(P("w"), P("w*2"))], zero=True)
    data = clopen_to_json(u)
    assert data == {"ambient": "w^3*4", "zero": True, "intervals": [["w", "w*2"]]}
    assert clopen_from_json(data) == u


def test_text_errors():
    with pytest.raises(ClopenError):
        parse_clopen("(w,w*2]")
    with pytest.raises(ClopenError):
        parse_clopen("(w w*2] @ w^2")


def oracle_parse_clopen(text):
    """The substring reader that ``parse_clopen`` replaced: it cuts the text
    at its last '@', each interval at its first ']' and then at its commas,
    and parses each piece on its own."""
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


GOOD_ORDINAL_TEXT = ["0", "1", "3", " 07 ", "w", "w+1", "w*2", "w * 3 + 1", "w^2",
                     "w^2+w*3", "w^ (1+1)", "w^w", "w^(w+1)"]
BAD_ORDINAL_TEXT = ["w^x", "", " ", "w+", "1_0", "\u0663", "w^(1", "(1)", "w*0", "-1", "w@"]


def random_clopen_text(rng):
    """Clopen text with random whitespace, repeated {0} and {} parts, some bad
    ordinals, and a few ',', ']', '@', '(', '{' or '}' inserted, doubled or
    dropped."""
    def ws():
        return rng.choice(["", "", " ", "  ", "\t", "\n "])

    def ordinal():
        pool = BAD_ORDINAL_TEXT if rng.random() < 0.08 else GOOD_ORDINAL_TEXT
        return rng.choice(pool)

    parts = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(5)
        if kind < 2:
            parts.append(("{0}", "{}")[kind])
        else:
            parts.append(f"({ws()}{ordinal()}{ws()},{ws()}{ordinal()}{ws()}]")
    text = ws() + ws().join(parts) + ws() + "@" + ws() + ordinal() + ws()
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        ch = rng.choice(",]@({}")
        at = [i for i, c in enumerate(text) if c == ch]
        action = rng.randrange(3)
        if action == 0 or not at:
            i = rng.randint(0, len(text))
            text = text[:i] + ch + text[i:]
        else:
            i = rng.choice(at)
            text = text[:i] + (ch + ch if action == 1 else "") + text[i + 1:]
    return text


def test_parse_clopen_matches_the_substring_oracle():
    rng = random.Random(29)
    accepted = 0
    for _ in range(5000):
        text = random_clopen_text(rng)
        try:
            want = oracle_parse_clopen(text)
        except ValueError:
            want = ValueError
        try:
            got = parse_clopen(text)
        except ValueError:
            got = ValueError
        assert got == want, text
        accepted += want is not ValueError
    # both sides accept a good share, so the sets are compared, not just errors
    assert accepted > 500


def test_clopen_text_errors_name_their_position_in_the_whole_text():
    # each ordinal is read where it stands, not as a substring cut out first
    for text in ("(0,w^x] @ w^2", "{0} (w+x,w*2] @ w^2", "(0,w] @ w^x", "(0, w] (w+1,w*x] @ w^2"):
        with pytest.raises(ParseError) as e:
            parse_clopen(text)
        assert text[e.value.position] == "x", text
    # a missing ',', ']' or '@' is a ClopenError at its position
    for text, message in (("(w w*2] @ w", "expected ',' in an interval at position 3"),
                          ("(0,w @ w", "expected ']' to close an interval at position 5"),
                          ("(0,w] x @ w", "expected '@' or an interval at position 6"),
                          ("(0,w]", "expected '@' or an interval at position 5")):
        with pytest.raises(ClopenError) as e:
            parse_clopen(text)
        assert str(e.value) == message
    with pytest.raises(ParseError, match="trailing input"):
        parse_clopen("(0,w] @ w @ w")


def test_interval_validation():
    with pytest.raises(ClopenError):
        ClopenSet(P("w"), False, ((P("w"), P("w")),))
    with pytest.raises(ClopenError):
        ClopenSet(P("w"), False, ((ZERO, P("w^2")),))
    with pytest.raises(ClopenError):
        ClopenSet(P("w^2"), False, ((ZERO, P("w")), (P("w"), P("w^2"))))
