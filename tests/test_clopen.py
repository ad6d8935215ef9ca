import random

import pytest

from ordtop.clopen import (
    ClopenError,
    ClopenSet,
    clopen_algebra,
    clopen_cb,
    clopen_complement,
    clopen_from_pieces,
    clopen_intersect,
    clopen_union,
    cnf_truncation_grid,
    format_clopen,
    min_clopen_with_endpoint,
    parse_clopen,
    tip_selector,
    treelike_check,
)
from ordtop.ordinal import (
    ONE,
    ZERO,
    Ordinal,
    parse_ordinal,
    random_ordinal_below,
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
    inside = [c for c in candidates if not c.is_zero and u.contains(c)]
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
            assert u.contains(p) == (a.contains(p) or b.contains(p))
            assert i.contains(p) == (a.contains(p) and b.contains(p))
            assert c.contains(p) == (not a.contains(p))


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
            assert lhs.contains(p) == rhs.contains(p)
            assert dm1.contains(p) == dm2.contains(p)
        # normalization uniqueness: pointwise-equal results are equal
        assert lhs == rhs
        assert dm1 == dm2


def test_ambient_mismatch_rejected():
    with pytest.raises(ClopenError, match="ambient"):
        clopen_union(ClopenSet(P("w")), ClopenSet(P("w^2")))


def test_algebra_dispatcher():
    a = ClopenSet(AMB, zero_included=True)
    assert clopen_algebra("complement", a).contains(ONE)
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
            assert u.contains(w)
            if not w.is_zero:
                assert tip_deg(w).tip_exponent == data.height


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
    assert got.piece_count == 1


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
    from ordtop.clopen import clopen_from_json, clopen_to_json
    u = clopen_from_pieces(AMB, [(P("w"), P("w*2"))], zero=True)
    data = clopen_to_json(u)
    assert data == {"ambient": "w^3*4", "zero": True, "intervals": [["w", "w*2"]]}
    assert clopen_from_json(data) == u


def test_text_errors():
    with pytest.raises(ClopenError):
        parse_clopen("(w,w*2]")
    with pytest.raises(ClopenError):
        parse_clopen("(w w*2] @ w^2")


def test_interval_validation():
    with pytest.raises(ClopenError):
        ClopenSet(P("w"), False, ((P("w"), P("w")),))
    with pytest.raises(ClopenError):
        ClopenSet(P("w"), False, ((ZERO, P("w^2")),))
    with pytest.raises(ClopenError):
        ClopenSet(P("w^2"), False, ((ZERO, P("w")), (P("w"), P("w^2"))))
