import json
import random

import pytest

from ordtop import spaceterm
from ordtop.clopen import ClopenSet, clopen_cb
from ordtop.ordinal import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    CheckReport,
    Ordinal,
    ParseError,
    format_ordinal,
    loads_json,
    nat_sum,
    odot,
    ord_pow,
    parse_ordinal,
    random_ordinal,
    random_ordinal_below,
    tip_deg,
)
from ordtop.poset import _bits, all_labeled_posets, poset_from_covers, poset_from_json, ranks
from ordtop.spaceterm import (
    OrdSpace,
    ProdTerm,
    Skeleton,
    SkelTerm,
    SumTerm,
    TermError,
    _is_forest,
    _labels,
    check_height_rank_bounds,
    hyper_antichain_height,
    hyper_monotonicity_check,
    hyper_point_height,
    parse_term,
    skeleton_hyper_bound_check,
    term_report,
)

P = parse_ordinal


def lt(poset, i, j):
    """i < j in ``poset``."""
    return bool(poset.below[j] >> i & 1)


def poset_to_json(poset):
    """The poset in the JSON schema ``poset_from_json`` reads."""
    covers = [[poset.labels[i], poset.labels[j]] for (i, j) in poset.covers()]
    return {"elements": list(poset.labels), "covers": covers}


def label_of(sk, name):
    """The label of the named element of the skeleton ``sk``."""
    return sk.labels[sk.poset.index(name)]


def format_term(t):
    """The text of a space term, which ``parse_term`` reads back."""
    if isinstance(t, OrdSpace):
        return f"ord({format_ordinal(t.alpha, compact=True)})"
    if isinstance(t, SumTerm):
        return "sum(" + ",".join(format_term(p) for p in t.parts) + ")"
    if isinstance(t, ProdTerm):
        return f"prod({format_term(t.left)},{format_term(t.right)})"
    if isinstance(t, SkelTerm):
        sk = t.skeleton
        labels = {sk.poset.labels[i]: format_ordinal(sk.labels[i], compact=True)
                  for i in range(sk.poset.n)}
        return (f"skel({json.dumps(poset_to_json(sk.poset), sort_keys=True)},"
                f"{json.dumps(labels, sort_keys=True)})")
    raise TermError(f"not a space term: {t!r}")

EXAMPLE_LABELS = [P(x) for x in ("0", "1", "1", "2", "10", "10", "w+7", "3")]
EXAMPLE_VALUE = "w^(w+7) + w^9*2 + w^2 + w + 2"


def antichain_skeleton(labels):
    names = [f"x{i}" for i in range(len(labels))]
    return Skeleton(poset_from_covers(names, []), tuple(labels))


# -- term reports ----------------------------------------------------------

def test_ordspace_power_is_unitary():
    for beta in (ONE, P("2"), P("w"), P("w+7")):
        rep = term_report(OrdSpace(Ordinal.omega_power(beta)))
        assert rep.height == beta
        assert rep.unitary


def test_prod_of_two_omegas():
    rep = term_report(ProdTerm(OrdSpace(OMEGA), OrdSpace(OMEGA)))
    assert rep.height == P("2")
    assert rep.endpoint_count == 1
    assert rep.rank is None


def test_ordspace_with_three_top_points():
    alpha = P("w^2*3 + w")
    rep = term_report(OrdSpace(alpha))
    assert rep.height == P("2")
    assert rep.endpoint_count == 3
    assert not rep.unitary
    # oracle: maximize point rank via the tip exponent over candidates <= alpha
    candidates = {alpha}
    rng = random.Random(0)
    for k in range(1, 4):
        candidates.add(P(f"w^2*{k}"))
    for _ in range(200):
        candidates.add(random_ordinal_below(rng, alpha))
    ranked = [(tip_deg(c).tip_exponent, c) for c in candidates if not c.is_zero]
    top = max(r for r, _ in ranked)
    winners = {c for r, c in ranked if r == top}
    assert top == rep.height
    assert winners == {P("w^2"), P("w^2*2"), P("w^2*3")}


def test_finite_ordspace_is_all_endpoints():
    rep = term_report(OrdSpace(P("5")))
    assert rep.height == ZERO
    assert rep.endpoint_count == 6
    assert rep.rank == P("6")


def test_ordspace_report_agrees_with_clopen_cb_of_the_whole_space():
    # two layers compute the height and end points of [0, alpha]: term_report from alpha's leading
    # term, clopen_cb from the Cantor-Bendixson ranks of the one piece (0, alpha] and the point 0
    rng = random.Random(0)
    alphas = [a for a in (random_ordinal(rng, max_terms=3, depth=1) for _ in range(2000)) if not a.is_zero]
    assert len(alphas) == 1525
    for alpha in alphas:
        rep, cb = term_report(OrdSpace(alpha)), clopen_cb(ClopenSet(alpha, True, ((ZERO, alpha),)))
        assert (rep.height, rep.endpoint_count) == (cb.height, len(cb.endpoints)), alpha


def test_sum_takes_max_and_adds_tied_counts():
    t = SumTerm((OrdSpace(P("w^2")), OrdSpace(P("w^2*2")), OrdSpace(P("w"))))
    rep = term_report(t)
    assert rep.height == P("2")
    assert rep.endpoint_count == 1 + 2
    assert rep.rank is None


def test_skeleton_report():
    sk = antichain_skeleton(EXAMPLE_LABELS)
    rep = term_report(SkelTerm(sk))
    assert rep.height == P("w+7")
    assert rep.endpoint_count == 1
    assert rep.rank == P("w+7")


def test_skeleton_label_monotonicity_enforced():
    p = poset_from_covers(["a", "b"], [("a", "b")])
    with pytest.raises(TermError):
        Skeleton(p, (P("3"), P("2")))


def test_empty_skeleton_rejected():
    sk = Skeleton(poset_from_covers([], []), ())
    with pytest.raises(TermError, match="at least one point"):
        term_report(SkelTerm(sk))


# -- bound chain -------------------------------------------------------------

def test_bounds_ordspace_example():
    space = OrdSpace(P("w*3 + 5"))
    assert check_height_rank_bounds(space).passed
    rank = term_report(space).rank
    assert rank == P("w*3 + 6")
    # the middle bound is w * 4 here
    assert rank < P("w*4")


def test_bounds_skeleton_single_point():
    for label in (ZERO, ONE, P("w"), P("w+7")):
        sk = antichain_skeleton([label])
        assert check_height_rank_bounds(SkelTerm(sk)).passed


def test_bounds_finite_interval():
    space = OrdSpace(P("7"))
    assert check_height_rank_bounds(space).passed
    assert term_report(space).rank == P("8")


def test_bounds_need_a_rank():
    with pytest.raises(TermError):
        check_height_rank_bounds(SumTerm((OrdSpace(OMEGA),)))


def test_bounds_sharpness_family():
    # [0, w+n] has height 1 and rank w+n+1, approaching w^2 = w^(h+1)
    for n in (1, 5, 40):
        space = OrdSpace(P(f"w+{n}"))
        assert check_height_rank_bounds(space).passed
        info = term_report(space)
        assert info.height == ONE
        assert info.rank == P(f"w+{n + 1}")


# -- hyperspace point heights --------------------------------------------------

def test_hyper_point_height_table():
    table = {
        "0": "0", "1": "1", "2": "w", "3": "w^2",
        "10": "w^9", "w": "w^w", "w+7": "w^(w+7)",
    }
    for r, out in table.items():
        assert hyper_point_height(P(r)) == P(out)


def test_hyper_point_height_monotone_and_bounded():
    rng = random.Random(1)
    for _ in range(300):
        r1, r2 = random_ordinal(rng), random_ordinal(rng)
        if r1.is_zero or r2.is_zero:
            continue
        if r1 < r2:
            assert hyper_point_height(r1) < hyper_point_height(r2)
        cap = ord_pow(OMEGA, r1)
        assert hyper_point_height(r1) <= cap
        assert (hyper_point_height(r1) == cap) == (not r1.is_finite)


def test_hyper_antichain_example_value():
    assert hyper_antichain_height(EXAMPLE_LABELS) == P(EXAMPLE_VALUE)
    assert str(hyper_antichain_height(EXAMPLE_LABELS)) == EXAMPLE_VALUE


def test_hyper_antichain_trivial_and_pair():
    assert hyper_antichain_height([ZERO]) == ZERO
    # oracle: natural sum of two copies of w; cross-check the iterated form
    assert hyper_antichain_height([P("2"), P("2")]) == nat_sum(OMEGA, OMEGA)
    assert hyper_antichain_height([P("2"), P("2")]) == odot(OMEGA, 2)


def test_hyper_antichain_order_invariance():
    rng = random.Random(2)
    for _ in range(50):
        labels = [random_ordinal(rng, max_terms=2) for _ in range(rng.randint(1, 6))]
        shuffled = labels[:]
        rng.shuffle(shuffled)
        assert hyper_antichain_height(labels) == hyper_antichain_height(shuffled)


def test_hyper_antichain_empty_rejected():
    with pytest.raises(TermError):
        hyper_antichain_height([])


# -- skeleton-level bound --------------------------------------------------------

def test_skeleton_bound_example_antichain():
    rep = skeleton_hyper_bound_check(antichain_skeleton(EXAMPLE_LABELS))
    assert rep.passed
    assert rep.data["max_attained"] == format_ordinal(P(EXAMPLE_VALUE))
    assert rep.data["bound"] == format_ordinal(ord_pow(OMEGA, P("w+8")))


def test_skeleton_bound_single_point():
    rep = skeleton_hyper_bound_check(antichain_skeleton([ONE]))
    assert rep.passed
    assert rep.data["max_attained"] == format_ordinal(ONE)
    assert rep.data["bound"] == format_ordinal(P("w^2"))


def test_skeleton_bound_random_antichains():
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randint(1, 6)
        labels = [random_ordinal_below(rng, P("w^2")) for _ in range(k)]
        rep = skeleton_hyper_bound_check(antichain_skeleton(labels))
        assert rep.passed


# -- monotonicity ------------------------------------------------------------------

def test_monotonicity_two_chain():
    p = poset_from_covers(["a", "b"], [("a", "b")])
    sk = Skeleton(p, (ONE, P("2")))
    rep = hyper_monotonicity_check(sk)
    assert rep.passed
    assert rep.data["strict"] == rep.data["pairs"]
    assert hyper_point_height(ONE) < hyper_point_height(P("2"))


def test_monotonicity_example_antichain_positive_drop():
    sk = antichain_skeleton([P("1"), P("2"), P("10")])
    rep = hyper_monotonicity_check(sk)
    assert rep.passed
    assert rep.data["ties"] == 0  # all labels positive: strict everywhere


def test_monotonicity_zero_label_tie_is_reported():
    sk = antichain_skeleton([ZERO, P("5")])
    rep = hyper_monotonicity_check(sk)
    # dropping the height-0 point leaves the natural sum unchanged; the
    # check passes only when every tie has that cause and nothing inverts
    assert rep.data["ties"] > 0
    assert rep.passed and rep.witness is None


def test_monotonicity_forest_components_skipped():
    p = poset_from_covers(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    sk = Skeleton(p, (ZERO, ONE, ZERO, ONE))
    rep = hyper_monotonicity_check(sk)
    # pairs across components are incomparable and never compared
    assert rep.data["pairs"] > 0
    assert rep.passed


def test_monotonicity_requires_forest():
    # two incomparable points over a common lower bound: selector sets of
    # the tops overlap in the bottom, so the family is not laminar
    p = poset_from_covers(["c", "a", "b"], [("c", "a"), ("c", "b")])
    sk = Skeleton(p, (ZERO, ONE, ONE))
    with pytest.raises(TermError, match="forest"):
        hyper_monotonicity_check(sk)


def test_monotonicity_common_top_is_treelike():
    # a V with a common top is laminar: the two principal ideals below the
    # top are disjoint
    p = poset_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
    sk = Skeleton(p, (ZERO, ZERO, ONE))
    assert hyper_monotonicity_check(sk).passed


def _monotonicity_pairwise(sk):
    # hyper_monotonicity_check as it was: every ordered pair of antichains,
    # skipping those whose downsets are not strictly nested
    p = sk.poset
    if not _is_forest(p):
        raise TermError("skeleton is not a forest")
    antichains = spaceterm._antichains(p)
    heights = {m: spaceterm.hyper_antichain_height([sk.labels[i] for i in _bits(m)])
               for m, _ in antichains}
    checked = strict = 0
    ties = []
    inversions = []
    all_zero = True
    for rho, dr in antichains:
        for sigma, ds in antichains:
            if dr == ds or dr & ~ds:
                continue
            checked += 1
            hr, hs = heights[rho], heights[sigma]
            if hr < hs:
                strict += 1
            elif hr == hs:
                ties.append((sorted(p.names(rho)), sorted(p.names(sigma))))
                pos_sigma = {i for i in _bits(sigma) if not sk.labels[i].is_zero}
                if not all(rho >> i & 1 for i in pos_sigma):
                    all_zero = False
            else:
                inversions.append((sorted(p.names(rho)), sorted(p.names(sigma))))
    passed = not inversions and all_zero
    return CheckReport("hyperspace-monotonicity", passed,
                       None if passed else (inversions or ties)[0],
                       {"pairs": checked, "strict": strict, "ties": len(ties)})


def _labeled_forests():
    """Every labeled forest with n <= 5, under seeded labels that rise along
    its ranks: ``3r+c`` or ``w*r+c``, c in 0..2, for an element of rank r."""
    rng = random.Random(35)
    for n in range(1, 6):
        for p in all_labeled_posets(n):
            if _is_forest(p):
                step = rng.choice([3, OMEGA])
                yield Skeleton(p, [ZERO + step * r + rng.randint(0, 2) for r in ranks(p).by_index])


def test_monotonicity_matches_the_pairwise_scan_on_small_forests():
    ties = 0
    for sk in _labeled_forests():
        rep = hyper_monotonicity_check(sk)
        assert rep == _monotonicity_pairwise(sk), sk
        assert rep.passed, sk
        ties += rep.data["ties"]
    assert ties


def test_monotonicity_matches_the_pairwise_scan_on_forced_failures(monkeypatch):
    # the height as the antichain's size mod 3: a larger antichain can go
    # down (an inversion), and a chain's nested points tie with positive
    # labels (a tie with another cause)
    def size_mod_3(labels):
        return Ordinal.from_int(len(list(labels)) % 3)

    monkeypatch.setattr(spaceterm, "hyper_antichain_height", size_mod_3)
    kinds = set()
    for sk in _labeled_forests():
        rep = hyper_monotonicity_check(sk)
        assert rep == _monotonicity_pairwise(sk), sk
        if not rep.passed:
            small, large = (len(names) % 3 for names in rep.witness)
            kinds.add("inversion" if small > large else "tie")
    assert kinds == {"inversion", "tie"}


def _seeded_forests():
    """200 seeded forests of 6 to 9 elements, each below at most one upper
    cover, labeled as in ``_labeled_forests``."""
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(6, 9)
        order = rng.sample(range(n), n)
        covers = [(str(a), str(order[rng.randrange(k)])) for k, a in enumerate(order)
                  if k and rng.random() < 0.8]
        p = poset_from_covers([str(i) for i in range(n)], covers)
        step = rng.choice([3, OMEGA])
        yield Skeleton(p, [ZERO + step * r + rng.randint(0, 2) for r in ranks(p).by_index])


def test_monotonicity_matches_the_pairwise_scan_on_larger_forests(monkeypatch):
    forests = list(_seeded_forests())
    assert max(len(spaceterm._antichains(sk.poset)) for sk in forests) > 32
    for sk in forests:
        assert hyper_monotonicity_check(sk) == _monotonicity_pairwise(sk), sk
    # the forced heights of the test above
    monkeypatch.setattr(spaceterm, "hyper_antichain_height",
                        lambda labels: Ordinal.from_int(len(list(labels)) % 3))
    for sk in forests:
        assert hyper_monotonicity_check(sk) == _monotonicity_pairwise(sk), sk


def _is_forest_pairwise(p):
    # the forest test that spaceterm._is_forest replaced, with O(n^3) calls
    # of lt
    for z in range(p.n):
        ups = [j for j in range(p.n) if lt(p, z, j)]
        for a in ups:
            for b in ups:
                if a != b and not lt(p, a, b) and not lt(p, b, a):
                    return False
    return True


def _skeleton_pairwise(poset, labels):
    # Skeleton's label check as it was, over all n^2 pairs
    if len(labels) != poset.n:
        raise TermError("one label per element required")
    for i in range(poset.n):
        for j in range(poset.n):
            if lt(poset, i, j) and not labels[i] < labels[j]:
                raise TermError("labels must strictly increase along the order")


class _LoggedLabel:
    """A label that records each comparison it makes, as (i, j)."""

    def __init__(self, log, i, value):
        self.log, self.i, self.value = log, i, value

    def __lt__(self, other):
        self.log.append((self.i, other.i))
        return self.value < other.value


def _label_check(check, poset, values):
    log = []
    labels = tuple(_LoggedLabel(log, i, v) for i, v in enumerate(values))
    try:
        check(poset, labels)
    except TermError as e:
        return str(e), log
    return None, log


def test_forest_and_label_checks_match_the_pairwise_scans():
    rng = random.Random(31)
    verdicts = set()
    for n in range(6):
        for p in all_labeled_posets(n):
            assert _is_forest(p) == _is_forest_pairwise(p), p
            verdicts.add(_is_forest(p))
            rank = ranks(p).by_index
            for values in (rank, [rng.randint(0, 3) for _ in range(n)],
                           [2 * r + rng.randint(0, 2) for r in rank], rank[1:]):
                got = _label_check(Skeleton, p, values)
                assert got == _label_check(_skeleton_pairwise, p, values), (p, values)
                verdicts.add(got[0])
    assert verdicts == {True, False, None, "one label per element required",
                        "labels must strictly increase along the order"}


# -- product consistency ------------------------------------------------------------

def test_product_height_matches_point_maximization():
    rng = random.Random(4)
    for _ in range(60):
        a = random_ordinal(rng, max_terms=3)
        b = random_ordinal(rng, max_terms=3)
        rep = term_report(ProdTerm(OrdSpace(a), OrdSpace(b)))
        # sample point pairs, always including the rank maximizers w^deg
        def samples(alpha):
            pts = {alpha} if not alpha.is_zero else set()
            if not alpha.is_finite:
                pts.add(Ordinal.omega_power(alpha.degree))
            for _ in range(6):
                if not alpha.is_zero:
                    pts.add(random_ordinal_below(rng, alpha))
            return pts
        best = ZERO
        for x in samples(a) | {ZERO}:
            for y in samples(b) | {ZERO}:
                rx = ZERO if x.is_zero else tip_deg(x).tip_exponent
                ry = ZERO if y.is_zero else tip_deg(y).tip_exponent
                v = nat_sum(rx, ry)
                if best < v:
                    best = v
        assert rep.height == best


# -- term syntax ---------------------------------------------------------------------

def test_parse_ord_term():
    t = parse_term("ord(w^(w+7) + w^2)")
    assert isinstance(t, OrdSpace)
    assert t.alpha == P("w^(w+7) + w^2")


def test_parse_nested_terms():
    t = parse_term("prod(ord(w), sum(ord(w^2), ord(3)))")
    assert isinstance(t, ProdTerm)
    assert isinstance(t.right, SumTerm)
    assert term_report(t).height == P("3")


def test_parse_skeleton_term():
    t = parse_term('skel({"elements": ["a", "b"], "covers": [["a", "b"]]}, {"a": 1, "b": "w"})')
    assert isinstance(t, SkelTerm)
    assert label_of(t.skeleton, "b") == OMEGA


def test_parse_errors():
    with pytest.raises(TermError):
        parse_term("ord(w) extra")
    with pytest.raises(TermError):
        parse_term("prod(ord(w))")
    with pytest.raises(TermError):
        parse_term("cube(ord(w))")


def test_parse_nesting_limit():
    # sum and prod terms nest at most MAX_NESTING deep; deeper is refused
    # before the parser recurses any further
    for head, tail in (("sum(", ")"), ("prod(ord(1),", ")")):
        t = parse_term(head * MAX_NESTING + "ord(w)" + tail * MAX_NESTING)
        assert term_report(t).height == ONE
        assert parse_term(format_term(t)) == t
        for depth in (MAX_NESTING + 1, 2000):
            with pytest.raises(TermError, match=f"MAX_NESTING = {MAX_NESTING}"):
                parse_term(head * depth + "ord(w)" + tail * depth)


def test_format_term_roundtrip():
    texts = [
        "ord(w^2+3)",
        "sum(ord(w),ord(2))",
        "prod(ord(w),ord(w))",
        'skel({"elements": ["a"], "covers": []}, {"a": "w+1"})',
    ]
    for s in texts:
        t = parse_term(s)
        assert parse_term(format_term(t)) == t


# -- the bracket-scanning parser as an oracle ------------------------------------------

def oracle_parse_term(text, blanks, depth=0):
    """``parse_term`` as it read terms before the one-pass reader: each
    group is cut out by a string-aware bracket scan, its arguments split at
    top-level commas and each argument parsed again as a substring; blank
    arguments are dropped, and counted in ``blanks``."""
    pos = 0
    while pos < len(text) and text[pos].isspace():
        pos += 1
    for head in ("ord", "sum", "prod", "skel"):
        if text.startswith(head, pos):
            open_at = text.find("(", pos + len(head))
            if open_at < 0 or text[pos + len(head):open_at].strip():
                raise TermError(f"expected '(' after {head!r}")
            inner, after = _oracle_balanced(text, open_at)
            if text[after:].strip():
                raise TermError(f"trailing input after term: {text[after:].strip()!r}")
            if head == "ord":
                return OrdSpace(parse_ordinal(inner))
            parts = _oracle_split_args(inner, blanks)
            if head == "skel":
                if len(parts) != 2:
                    raise TermError("skel takes a poset and a label map")
                poset = poset_from_json(loads_json(parts[0]))
                return SkelTerm(Skeleton(poset, _labels(poset, loads_json(parts[1]))))
            if depth == MAX_NESTING:
                raise TermError(f"space terms nested deeper than MAX_NESTING = {MAX_NESTING}")
            args = [oracle_parse_term(a, blanks, depth + 1) for a in parts]
            if head == "sum":
                return SumTerm(tuple(args))
            if len(args) != 2:
                raise TermError("prod takes exactly two terms")
            return ProdTerm(args[0], args[1])
    raise TermError(f"expected a space term at position {pos}")


def _oracle_balanced(text, open_at):
    depth = 0
    in_string = False
    for i in range(open_at, len(text)):
        ch = text[i]
        if in_string:
            in_string = ch != '"'
        elif ch == '"':
            in_string = True
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return text[open_at + 1:i], i + 1
    raise TermError("unbalanced parentheses")


def _oracle_split_args(inner, blanks):
    parts = []
    depth = 0
    in_string = False
    start = 0
    for i, ch in enumerate(inner):
        if in_string:
            in_string = ch != '"'
        elif ch == '"':
            in_string = True
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    kept = [p for p in parts if p.strip()]
    blanks[0] += len(parts) - len(kept)
    return kept


# names that a bracket or comma scan must read inside a JSON string; the old
# scan did not know escapes, so no name holds a quote or a backslash
NAMES = ["a", "b", "c,d", "e)", "(f", "g]", "{h}", "i j"]


def _random_term_text(rng, depth=0):
    """A valid term's text, with random whitespace between its tokens."""
    def ws():
        return "".join(rng.choice(" \t\n") for _ in range(rng.choice([0, 0, 1, 2])))

    kind = rng.choice(["ord", "ord", "skel"] + (["sum", "prod"] if depth < 3 else []))
    if kind == "ord":
        alpha = random_ordinal(rng, max_terms=3, depth=1)
        body = format_ordinal(alpha, compact=rng.random() < 0.5)
    elif kind == "skel":
        p = rng.choice(all_labeled_posets(rng.randint(1, 3)))
        names = rng.sample(NAMES, p.n)
        covers = [[names[i], names[j]] for i, j in p.covers()]
        separators = rng.choice([(", ", ": "), (",", ":"), (" ,\n", " : ")])
        poset = json.dumps({"elements": names, "covers": covers}, separators=separators)
        step = rng.randint(1, 3)
        labels = {names[i]: r * step if rng.random() < 0.5 else f"w*{r * step}+{r}"
                  for i, r in enumerate(ranks(p).by_index)}
        body = poset + ws() + "," + ws() + json.dumps(labels, separators=separators)
    else:
        count = 2 if kind == "prod" else rng.randint(1, 3)
        body = (ws() + "," + ws()).join(_random_term_text(rng, depth + 1) for _ in range(count))
    return ws() + kind + ws() + "(" + ws() + body + ws() + ")" + ws()


def _mutate(rng, text):
    """``text`` with one random edit: a character deleted, inserted,
    doubled or swapped with the next, a comma doubled, or the text cut
    short."""
    i = rng.randrange(len(text))
    edit = rng.choice(["delete", "insert", "double", "swap", "comma", "cut"])
    if edit == "comma" and "," in text:
        i = rng.choice([k for k, ch in enumerate(text) if ch == ","])
        return text[:i] + rng.choice([",", ", ", ",\n"]) + text[i:]
    if edit == "delete":
        return text[:i] + text[i + 1:]
    if edit == "insert":
        return text[:i] + rng.choice('(),[]{}":w0+* ') + text[i:]
    if edit == "double":
        return text[:i] + text[i] + text[i:]
    if edit == "swap":
        return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]
    return text[:i]


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def test_parse_term_matches_the_bracket_scanning_oracle():
    rng = random.Random(28)
    seen = {"accepted": 0, "refused": 0, "blank": 0}
    for k in range(3000):
        text = _random_term_text(rng)
        if k % 2:
            text = _mutate(rng, text)
        blanks = [0]
        want = _outcome(lambda t: oracle_parse_term(t, blanks), text)
        got = _outcome(parse_term, text)
        if blanks[0] and want is not ValueError:
            # a blank argument, which the oracle dropped, is refused now
            assert got is ValueError, text
            seen["blank"] += 1
        else:
            assert got == want, text
            seen["accepted" if got is not ValueError else "refused"] += 1
    assert min(seen.values()) >= 20, seen


def test_blank_arguments_are_refused_at_their_position():
    for text, at in (("sum(ord(1),,ord(2))", 11), ("sum(ord(1),)", 11), ("sum()", 4),
                     ("prod(,ord(1),ord(2))", 5)):
        with pytest.raises(TermError, match=f"expected a space term at position {at}"):
            parse_term(text)
    with pytest.raises(TermError, match="expected '\\)' to close 'skel' at position 34"):
        parse_term('skel({"elements": ["a"]}, {"a": 0}, )')


def test_term_structure_errors_name_their_position():
    for text, message in (("ord w", "expected '(' after 'ord' at position 4"),
                          ("ord(w", "expected ')' to close 'ord' at position 5"),
                          ("sum(ord(1) ord(2))", "expected ')' to close 'sum' at position 11"),
                          ('skel({"elements": ["a"]} {"a": 0})',
                           "expected ',' after the poset of 'skel' at position 25"),
                          ("foo(1)", "expected a space term at position 0")):
        with pytest.raises(TermError) as raised:
            parse_term(text)
        assert str(raised.value) == message, text
    # an ordinal inside ord(...) is read in place: its error counts from
    # the start of the term
    with pytest.raises(ParseError, match="at position 7"):
        parse_term("ord(w+ +1)")


def test_skel_names_may_hold_escaped_quotes():
    # the bracket scan took the quote in "a\\"b" for the end of the string
    t = parse_term('skel({"elements": ["a\\"b", "c"], "covers": [["a\\"b", "c"]]},'
                   ' {"a\\"b": 0, "c": "w"})')
    assert label_of(t.skeleton, 'a"b') == ZERO
    assert label_of(t.skeleton, "c") == OMEGA
