import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, islice
from math import lcm

import pytest

from ordtop import mrowka
from ordtop.mrowka import (
    MAX_CODE_BOUND,
    MAX_HORIZON,
    MAX_LUSIN_PICKS,
    MAX_POINT_MEMBER,
    MAX_STAGE_MEMBER,
    MAX_STAR_CODES,
    ADFamily,
    EvPeriodicSet,
    LusinStage,
    MrowkaError,
    _MembershipIndex,
    ad_check,
    code_of,
    common_residue_classes,
    convergence_check,
    format_point,
    g_join,
    lusin_iterate,
    lusin_stage,
    mrowka_selector_check,
    parse_point,
    star_truncation,
)
from ordtop.ordinal import CheckReport, ParseError

EVENS = EvPeriodicSet(2, frozenset({0}))
ODDS = EvPeriodicSet(2, frozenset({1}))


def brute_intersection_infinite(a, b, horizon=5000):
    return sum(1 for n in range(horizon) if a.contains(n) and b.contains(n)) > 64


P = parse_point


def elements_below(a, limit):
    """Members of a below limit, each tested through ``contains``."""
    return [n for n in range(limit) if a.contains(n)]


def fin_text(members):
    """The text of the finite point with these members."""
    return "fin:" + ",".join(map(str, members))


def g_leq(x, y, fam):
    """Induced order: x <= y iff x v y = y."""
    return g_join(x, y, fam) == y


def support_of(code):
    """The set a star code codes: the k with bit k set."""
    return frozenset(i for i in range(code.bit_length()) if code >> i & 1)


def ascending_oracle(a, start=0):
    """``EvPeriodicSet.ascending`` as a hand-written merge: a base loop over
    periods, an index into the sorted added members and a removed set."""
    added = sorted(x for x in a.delta
                   if x >= start and x % a.period not in a.residues)
    removed = a.delta - frozenset(added)
    res = sorted(a.residues)
    ai = 0
    base = start - (start % a.period)
    while base < mrowka.SCAN_CAP:
        for r in res:
            n = base + r
            if n < start:
                continue
            while ai < len(added) and added[ai] < n:
                yield added[ai]
                ai += 1
            if n not in removed:
                yield n
        base += a.period
        if not res:
            break
    yield from added[ai:]
    if res:
        raise MrowkaError("scan cap exceeded")


def run_out(members):
    """Every member a generator yields, and the message it raises, if any."""
    out = []
    try:
        out.extend(members)
    except MrowkaError as err:
        return out, str(err)
    return out, None


# -- representations -----------------------------------------------------

def test_membership_with_delta():
    s = EvPeriodicSet(3, frozenset({0}), frozenset({0, 5}))
    assert not s.contains(0)  # toggled out
    assert s.contains(3) and s.contains(5)
    assert not s.contains(1)


def test_validation():
    with pytest.raises(MrowkaError):
        EvPeriodicSet(0, frozenset())
    with pytest.raises(MrowkaError):
        EvPeriodicSet(2, frozenset({5}))
    with pytest.raises(MrowkaError):
        EvPeriodicSet(2, frozenset({0}), frozenset({-1}))


def family_to_json(fam):
    """The family in the JSON schema ``ADFamily.from_json`` reads."""
    return {"sets": [{"period": s.period, "residues": sorted(s.residues), "delta": sorted(s.delta)}
                     for s in fam.sets]}


def test_family_json_roundtrip():
    fam = ADFamily.progressions(4)
    again = ADFamily.from_json(family_to_json(fam))
    assert again == fam


# -- almost disjointness ----------------------------------------------------

def test_ad_check_disjoint_progressions():
    assert ad_check([EVENS, ODDS]).passed


def test_ad_check_nested_progressions_fail_with_certificate():
    rep = ad_check([EVENS, EvPeriodicSet(4, frozenset({0}))])
    assert not rep.passed
    assert rep.witness["residue"] == 0 and rep.witness["modulus"] == 4


def test_ad_check_binary_tree_prefix_classes():
    # depth-6 prefix classes: residues mod 64 are pairwise disjoint
    fam = [EvPeriodicSet(64, frozenset({r})) for r in range(0, 64, 7)]
    assert ad_check(fam).passed


def test_ad_check_certificate_matches_brute_force():
    rng = random.Random(0)
    for _ in range(60):
        p1, p2 = rng.choice([2, 3, 4, 6]), rng.choice([2, 3, 4, 6])
        a = EvPeriodicSet(p1, frozenset(rng.sample(range(p1), rng.randint(1, p1))))
        b = EvPeriodicSet(p2, frozenset(rng.sample(range(p2), rng.randint(1, p2))))
        rep = ad_check([a, b])
        assert rep.passed == (not brute_intersection_infinite(a, b))


def test_ad_check_rejects_finite_member():
    with pytest.raises(MrowkaError, match="finite"):
        ad_check([EvPeriodicSet(2, frozenset(), frozenset({1, 2}))])


def test_family_constructor_validates():
    with pytest.raises(MrowkaError):
        ADFamily((EVENS, EvPeriodicSet(4, frozenset({0}))))


# -- quotient join -------------------------------------------------------------

def test_join_two_branches_collapse():
    fam = ADFamily.progressions(2)
    assert g_join(P("branch:0"), P("branch:1"), fam) == P("top")
    assert g_join(P("branch:0"), P("branch:0"), fam) == P("branch:0")


def test_join_finite_absorbed_by_branch():
    fam = ADFamily.progressions(2)
    assert g_join(P("fin:2,4"), P("branch:0"), fam) == P("branch:0")
    assert g_join(P("fin:2,3"), P("branch:0"), fam) == P("top")


def test_join_idempotent_on_samples():
    fam = ADFamily.progressions(3)
    pts = [P("fin:1"), P("fin:0,3"), P("branch:1"), P("top")]
    for x in pts:
        assert g_join(x, x, fam) == x


def test_join_is_upper_bound():
    fam = ADFamily.progressions(3)
    pts = ([P(fin_text(s)) for s in ({0}, {1, 4}, {2, 3})]
           + [P(f"branch:{i}") for i in range(3)] + [P("top")])
    for x in pts:
        for y in pts:
            z = g_join(x, y, fam)
            assert g_leq(x, z, fam) and g_leq(y, z, fam)


def test_join_oracle_via_truncated_downsets():
    # union of downsets, then classification: inside one branch -> that
    # branch, otherwise top
    fam = ADFamily.progressions(3)
    rng = random.Random(1)
    for _ in range(100):
        sigma = frozenset(rng.sample(range(12), rng.randint(1, 4)))
        k = rng.randrange(3)
        expected = (P(f"branch:{k}")
                    if all(fam.sets[k].contains(n) for n in sigma)
                    else P("top"))
        assert g_join(P(fin_text(sigma)), P(f"branch:{k}"), fam) == expected


def test_join_semilattice_axioms_exhaustive_small():
    fam = ADFamily.progressions(2)
    pts = ([P(fin_text(c))
            for r in range(1, 4) for c in combinations(range(4), r)]
           + [P("branch:0"), P("branch:1"), P("top")])
    for x in pts:
        for y in pts:
            assert g_join(x, y, fam) == g_join(y, x, fam)
            for z in pts:
                assert (g_join(g_join(x, y, fam), z, fam)
                        == g_join(x, g_join(y, z, fam), fam))


def test_branch_index_validation():
    fam = ADFamily.progressions(2)
    with pytest.raises(MrowkaError):
        g_join(P("branch:5"), P("top"), fam)
    # branch 2 is the first past the family, on either side of any point
    for x in (P("top"), P("fin:1"), P("branch:1"), P("branch:2")):
        for pair in ((x, P("branch:2")), (P("branch:2"), x)):
            with pytest.raises(MrowkaError, match="branch index out of range"):
                g_join(*pair, fam)
    with pytest.raises(MrowkaError):
        P("fin:")


# -- packed points against the frozenset oracle ----------------------------------

@dataclass(frozen=True)
class GPoint:
    """The frozenset point that packed points replace, kept as the oracle:
    a nonempty finite set of naturals, a branch of the family, or the top."""

    kind: str
    fin: frozenset = frozenset()
    branch: int = -1

    def __post_init__(self):
        if self.kind not in ("fin", "branch", "top"):
            raise MrowkaError(f"bad point kind {self.kind!r}")
        if self.kind == "fin" and not self.fin:
            raise MrowkaError("finite point must be nonempty")
        if self.kind == "branch" and self.branch < 0:
            raise MrowkaError("branch index out of range")

    @classmethod
    def parse(cls, text):
        if text == "top":
            return cls("top")
        kind, _, rest = text.partition(":")
        if kind == "fin":
            return cls("fin", frozenset(int(x) for x in rest.split(",") if x.strip()))
        if kind == "branch":
            return cls("branch", branch=int(rest))
        raise MrowkaError(f"point must be fin:..., branch:i or top, got {text!r}")

    def __str__(self):
        if self.kind == "fin":
            return "fin:" + ",".join(map(str, sorted(self.fin)))
        if self.kind == "branch":
            return f"branch:{self.branch}"
        return "top"


def gpoint_join(x, y, fam):
    """The join on frozenset points, member by member."""
    for p in (x, y):
        if p.kind == "branch" and p.branch >= len(fam.sets):
            raise MrowkaError("branch index out of range")
    if x.kind == "top" or y.kind == "top":
        return GPoint("top")
    if x.kind == "branch" and y.kind == "branch":
        return x if x.branch == y.branch else GPoint("top")
    if x.kind == "fin" and y.kind == "fin":
        return GPoint("fin", x.fin | y.fin)
    fin, br = (x, y) if x.kind == "fin" else (y, x)
    a = fam.sets[br.branch]
    if all(a.contains(n) for n in fin.fin):
        return br
    return GPoint("top")


def _assert_joins_match_the_oracle(texts, fam):
    packed = [P(t) for t in texts]
    oracle = [GPoint.parse(t) for t in texts]
    for t, p in zip(texts, packed):
        assert format_point(p) == str(GPoint.parse(t)), t
        assert P(format_point(p)) == p, t
    known = dict(zip(oracle, packed))
    for x, gx in zip(packed, oracle):
        for y, gy in zip(packed, oracle):
            want = gpoint_join(gx, gy, fam)
            assert g_join(x, y, fam) == (known[want] if want in known else P(str(want))), (gx, gy)


def test_packed_joins_match_the_oracle_on_criterion_12():
    texts = [fin_text(k for k in range(8) if mask >> k & 1) for mask in range(1, 256)]
    texts += [f"branch:{r}" for r in range(4)] + ["top"]
    _assert_joins_match_the_oracle(texts, ADFamily.progressions(4))


def test_packed_joins_match_the_oracle_up_to_the_member_bound():
    # branches with deltas; each finite point is drawn inside one branch
    # (or none) so that both outcomes of a finite-branch join come up
    rng = random.Random(22)
    for _ in range(4):
        period = rng.randint(2, 12)
        residues = rng.sample(range(period), rng.randint(1, period))
        sets = [EvPeriodicSet(period, {r}, set(rng.sample(range(64), rng.randint(0, 3))))
                for r in residues]
        fam = ADFamily(sets)
        texts = [f"branch:{k}" for k in range(len(sets))] + ["top"]
        for _ in range(12):
            size = rng.randint(1, 6)
            starts = [rng.choice([rng.randrange(64), rng.randrange(MAX_POINT_MEMBER - 64)])
                      for _ in range(size)]
            home = rng.choice([None, rng.randrange(len(sets))])
            members = {s if home is None else next(sets[home].ascending(s)) for s in starts}
            if rng.random() < 0.3:
                members.add(MAX_POINT_MEMBER - 1)
            texts.append(fin_text(members))
        _assert_joins_match_the_oracle(texts, fam)


def test_point_members_are_naturals_below_the_bound():
    assert MAX_POINT_MEMBER == 1 << 20
    top_member = MAX_POINT_MEMBER - 1
    assert format_point(P(f"fin:0,{top_member}")) == f"fin:0,{top_member}"
    assert P(f"fin:{top_member}") == 1 << top_member
    for text in (f"fin:{MAX_POINT_MEMBER}", f"fin:1,{10 ** 10}"):
        with pytest.raises(MrowkaError, match="below MAX_POINT_MEMBER = 1048576"):
            P(text)
    # members are the ordinal grammar's nat, ASCII digits alone, at a
    # position counted from the start of the point's text
    for text, message in (("fin:-1", "expected a number (at position 4)"),
                          ("fin:3,-2", "expected a number (at position 6)"),
                          ("fin:\u0663", "expected a number (at position 4)"),
                          ("fin:1_0", "expected ',' (at position 5)")):
        with pytest.raises(ParseError) as raised:
            P(text)
        assert str(raised.value) == message, text
    # spaces around a member and blank items are skipped
    assert P("fin: 10 ") == P("fin:10,,10") == P("fin:,10, ,") == 1 << 10


def test_packed_point_encoding():
    assert [P(t) for t in ("top", "branch:0", "branch:3", "fin:0", "fin:1,3")] == [
        0, -1, -4, 1, 0b1010]
    with pytest.raises(ParseError, match=r"expected a number \(at position 7\)"):
        P("branch:-1")
    with pytest.raises(MrowkaError, match="point must be fin:..., branch:i or top"):
        P("top:")


def test_mask_below_matches_elements_below():
    rng = random.Random(5)
    for period in range(1, 13):
        for _ in range(6):
            residues = set(rng.sample(range(period), rng.randint(0, period)))
            delta = set(rng.sample(range(3 * period + 20), rng.randint(0, 6)))
            a = EvPeriodicSet(period, residues, delta)
            for n in {0, 1, period - 1, period, period + 1, 7 * period + 3,
                      rng.randrange(200), 3 * period + 21}:
                assert a.mask_below(n) == sum(1 << k for k in elements_below(a, n)), (a, n)


def test_mask_below_costs_n_bits_whatever_the_period():
    # one period's residues would be a 256 GB mask; only those below n count
    period = 1 << 41
    a = EvPeriodicSet(period, {period - 1, 3}, {5, period + 3})
    for n in (0, 3, 4, 6, 64, 1000):
        assert a.mask_below(n) == sum(1 << k for k in elements_below(a, n)), n
    assert a.mask_below(64) == 0b101000


def test_ascending_matches_the_merge_oracle(monkeypatch):
    rng = random.Random(34)
    cases = [(EvPeriodicSet(5, set(), {9, 2, 40}), 0, 30),  # finite: no residues
             (EvPeriodicSet(1, {0}, {3, 4}), 2, 12),  # period 1, members removed
             (EvPeriodicSet(4, {1}, {2, 7}), 8, 40)]  # start past the last delta member
    for _ in range(20_000):
        period = rng.randint(1, 12)
        residues = set(rng.sample(range(period), rng.randint(0, period)))
        delta = set(rng.sample(range(130), rng.randint(0, 8)))
        cases.append((EvPeriodicSet(period, residues, delta), rng.randint(0, 80),
                      rng.randint(0, 100)))
    for a, start, cap in cases:
        monkeypatch.setattr(mrowka, "SCAN_CAP", cap)
        assert run_out(a.ascending(start)) == run_out(ascending_oracle(a, start)), (a, start, cap)


def test_code_of_matches_the_sum_of_powers():
    rng = random.Random(6)
    assert code_of(()) == 0
    for _ in range(200):
        members = rng.sample(range(rng.choice([8, 9, 64, 1000])), rng.randint(1, 8))
        assert code_of(iter(members)) == sum(1 << k for k in set(members))


# -- star truncation --------------------------------------------------------------

def test_star_disjoint_branches_share_nothing():
    fam = ADFamily.progressions(2)
    codes, rep = star_truncation(fam, 8)
    assert rep.passed
    assert codes[0] & codes[1] == frozenset()
    # supports really live inside each branch
    for c in codes[0]:
        assert all(EVENS.contains(k) for k in support_of(c))


def test_star_shared_code_is_exactly_the_common_part():
    a = EvPeriodicSet(4, frozenset({0}), frozenset())          # 0, 4, 8, ...
    b = EvPeriodicSet(4, frozenset({1}), frozenset({0, 1}))    # 0, 5, 9, ... (0 in, 1 out)
    fam = ADFamily((a, b))
    codes, rep = star_truncation(fam, 16)
    assert rep.passed
    # the only shared element below 4 bits is 0, coded as 1
    assert codes[0] & codes[1] == frozenset({code_of({0})})


def test_star_counts_nonempty_subsets():
    fam = ADFamily.progressions(2)
    for m in (4, 8, 12):
        codes, _ = star_truncation(fam, 1 << m)
        for i, a in enumerate(fam.sets):
            assert len(codes[i]) == 2 ** len(elements_below(a, m)) - 1


def test_star_bound_enforced():
    with pytest.raises(MrowkaError, match="bound"):
        star_truncation(ADFamily.progressions(2), (1 << 24) + 1)


def star_code_count(fam, n_bound):
    """The codes ``star_truncation`` enumerates and compares, read through
    ``contains``: every subset of each branch and of each pair's common
    part below the code bound's bit length, and for each pair the subsets
    of its smaller branch."""
    bits = max(0, (n_bound - 1).bit_length())
    below = [set(elements_below(a, bits)) for a in fam.sets]
    return (sum(2 ** len(b) for b in below)
            + sum(2 ** len(b & c) + 2 ** min(len(b), len(c)) for b, c in combinations(below, 2)))


# each branch holds every natural below 24 through its delta: below the
# code bound the branches and their pairwise common parts coincide
TWINS = ADFamily([EvPeriodicSet(2, {r}, {x for x in range(24) if x % 2 != r}) for r in (0, 1)])
TRIPLETS = ADFamily([EvPeriodicSet(3, {r}, {x for x in range(24) if x % 3 != r})
                     for r in range(3)])


def test_star_codes_are_counted_before_any_is_built(monkeypatch):
    cases = [(ADFamily.progressions(2), 1 << 10), (ADFamily.progressions(5), 1 << 12),
             (ADFamily.progressions(20), 2), (TWINS, 1 << 6), (TWINS, 50),
             (TRIPLETS, 1 << 5), (ADFamily([EvPeriodicSet(1, {0})]), 300)]
    for fam, n_bound in cases:
        count = star_code_count(fam, n_bound)
        monkeypatch.setattr(mrowka, "MAX_STAR_CODES", count)
        codes, rep = star_truncation(fam, n_bound)
        assert rep.passed
        monkeypatch.setattr(mrowka, "MAX_STAR_CODES", count - 1)
        monkeypatch.setattr(mrowka, "_submasks_below", None)  # refused before enumerating
        with pytest.raises(MrowkaError, match=f"takes {count} codes, "
                                              f"over MAX_STAR_CODES = {count - 1}$"):
            star_truncation(fam, n_bound)
        monkeypatch.undo()


def test_star_code_limit_refuses_past_it_and_admits_the_parity_family():
    period1 = ADFamily([EvPeriodicSet(1, {0})])
    # the largest admitted inputs of each shape; one more bit doubles the count
    assert star_code_count(period1, 1 << 20) == MAX_STAR_CODES
    assert star_code_count(TWINS, 1 << 18) == 4 << 18 == MAX_STAR_CODES
    assert star_code_count(TRIPLETS, 1 << 16) == 9 << 16 <= MAX_STAR_CODES
    for fam, n_bound in ((period1, (1 << 20) + 1), (period1, MAX_CODE_BOUND),
                         (TWINS, (1 << 18) + 1), (TRIPLETS, (1 << 16) + 1)):
        count = star_code_count(fam, n_bound)
        with pytest.raises(MrowkaError, match=f"^star truncation below {n_bound} takes {count} "
                                              f"codes, over MAX_STAR_CODES = {MAX_STAR_CODES}$"):
            star_truncation(fam, n_bound)
    # the parity family at the largest code bound: 2^12 - 1 nonempty codes a branch
    codes, rep = star_truncation(ADFamily.progressions(2), MAX_CODE_BOUND)
    assert rep.passed and rep.data["sizes"] == [4095, 4095]
    with pytest.raises(MrowkaError, match="^code bound 16777217 over MAX_CODE_BOUND = 16777216$"):
        star_truncation(ADFamily.progressions(2), MAX_CODE_BOUND + 1)


# -- convergence --------------------------------------------------------------------

def test_convergence_even_odd():
    fam = ADFamily.progressions(2)
    rep = convergence_check(fam, 0, 1, horizon=64)
    assert rep.passed
    # oracle: first n with both prefixes nonempty and the union escaping
    # every branch; prefixes are A-cap-[0,n)
    sigma, tau = set(), set()
    oracle = None
    for n in range(1, 65):
        if fam.sets[0].contains(n - 1):
            sigma.add(n - 1)
        if fam.sets[1].contains(n - 1):
            tau.add(n - 1)
        if sigma and tau:
            union = sigma | tau
            if all(any(not s.contains(x) for x in union) for s in fam.sets):
                oracle = n
                break
    assert rep.data["threshold"] == oracle == 2
    assert rep.data["escape_witnesses"] == {"0": 1, "1": 0}


def test_convergence_rejects_equal_indices():
    with pytest.raises(MrowkaError):
        convergence_check(ADFamily.progressions(2), 1, 1, 32)


def test_convergence_all_pairs_of_five_progressions():
    fam = ADFamily.progressions(5)
    for i in range(5):
        for j in range(5):
            if i != j:
                rep = convergence_check(fam, i, j, horizon=128)
                assert rep.passed
                assert rep.data["threshold"] <= 16


def test_convergence_horizon_too_small():
    fam = ADFamily.progressions(5)
    with pytest.raises(MrowkaError, match="horizon"):
        convergence_check(fam, 0, 1, horizon=1)
    # no prefix is nonempty below 1, and a negative horizon masks nothing
    for fam in (ADFamily.progressions(2), ADFamily([EVENS, EvPeriodicSet(2, {1}, {0})])):
        for horizon in (-5, 0):
            got, want = _converge_both(fam, 0, 1, horizon)
            assert got == want == "horizon too small to certify (threshold not reached)"


def test_convergence_refuses_past_max_horizon_before_masking(monkeypatch):
    fam = ADFamily.progressions(2)
    assert MAX_HORIZON == 1 << 20
    assert convergence_check(fam, 0, 1, MAX_HORIZON).data["threshold"] == 2

    def no_mask(self, n):
        raise AssertionError("mask_below reached")

    monkeypatch.setattr(EvPeriodicSet, "mask_below", no_mask)
    for horizon in (MAX_HORIZON + 1, 10 ** 18):
        with pytest.raises(MrowkaError,
                           match=f"^horizon {horizon} over MAX_HORIZON = {MAX_HORIZON}$"):
            convergence_check(fam, 0, 1, horizon)


def test_convergence_never_calls_contains(monkeypatch):
    families = [ADFamily.progressions(5), ADFamily([EVENS, EvPeriodicSet(2, {1}, set(range(40)))]),
                ADFamily([EvPeriodicSet(6, {r}, {r + 1, 30 + r}) for r in (0, 2, 3)])]
    cases = [(fam, i, j, horizon) for fam in families for i in range(len(fam))
             for j in range(len(fam)) if i != j for horizon in (-5, 0, 1, 3, 45, 64)]
    # the oracle reads every set through ``contains``, so its results come first
    want = [_converge_both(*case)[1] for case in cases]

    def refuse(self, n):
        raise AssertionError("convergence_check called EvPeriodicSet.contains")

    monkeypatch.setattr(EvPeriodicSet, "contains", refuse)
    got = []
    for case in cases:
        try:
            rep = convergence_check(*case)
            got.append((rep, list(rep.data["escape_witnesses"])))
        except MrowkaError as e:
            got.append(str(e))
    assert got == want
    assert sum(isinstance(g, tuple) for g in got) >= len(cases) // 3


def oracle_convergence_check(fam, i, j, horizon):
    """The loop that the running escape witnesses replaced, kept as an
    oracle: at each step it recomputes every branch's escape over the
    whole union."""
    a, b = fam.sets[i], fam.sets[j]
    threshold = None
    witnesses: dict = {}
    sigma: set = set()
    tau: set = set()
    sigma_mask = tau_mask = 0  # sigma and tau as points
    for n in range(1, horizon + 1):
        if a.contains(n - 1):
            sigma.add(n - 1)
            sigma_mask |= 1 << (n - 1)
        if b.contains(n - 1):
            tau.add(n - 1)
            tau_mask |= 1 << (n - 1)
        if sigma and tau:
            if g_join(sigma_mask, tau_mask, fam) != sigma_mask | tau_mask:
                raise AssertionError("join of finite prefixes must be their union")
            escape = {}
            union = sigma | tau
            for k, branch_set in enumerate(fam.sets):
                out = [x for x in union if not branch_set.contains(x)]
                if not out:
                    escape = None
                    break
                escape[k] = min(out)
            if escape is not None:
                threshold = n
                witnesses = {str(k): v for k, v in escape.items()}
                break
    if threshold is None:
        raise MrowkaError("horizon too small to certify (threshold not reached)")
    a_prefix = elements_below(a, horizon)
    union = set(a_prefix) | set(elements_below(b, horizon))
    for k, branch_set in enumerate(fam.sets):
        if all(branch_set.contains(x) for x in union):
            raise AssertionError("union of full prefixes re-entered a branch")
    growth = len(a_prefix) >= 2 and len(a_prefix) > len(elements_below(a, horizon // 2))
    return CheckReport("join-convergence", growth, None if growth else "prefixes stalled",
                       {"threshold": threshold, "escape_witnesses": witnesses})


def _converge_both(fam, i, j, horizon):
    # the report or the error message, from the check and from the oracle
    got = []
    for check in (convergence_check, oracle_convergence_check):
        try:
            rep = check(fam, i, j, horizon)
            got.append((rep, list(rep.data["escape_witnesses"])))
        except MrowkaError as e:
            got.append(str(e))
    return got


def test_convergence_matches_the_recomputing_oracle():
    rng = random.Random(23)
    families = [ADFamily.progressions(m) for m in range(2, 7)]
    for _ in range(6):
        period = rng.randint(2, 8)
        residues = rng.sample(range(period), rng.randint(2, period))
        families.append(ADFamily([EvPeriodicSet(period, {r}, set(rng.sample(range(40), 4)))
                                  for r in residues]))
    for fam in families:
        for i in range(len(fam)):
            for j in range(len(fam)):
                if i != j:
                    for horizon in (3, 64):
                        got, want = _converge_both(fam, i, j, horizon)
                        assert got == want, (fam, i, j, horizon)


def test_convergence_on_a_long_shared_prefix_matches_the_oracle():
    # the second parity set toggled on 0..11,999: both prefixes sit inside
    # the evens until 12,000, so the threshold comes after 12,000 steps
    fam = ADFamily([EVENS, EvPeriodicSet(2, {1}, set(range(12_000)))])
    got, want = _converge_both(fam, 0, 1, 1 << 15)
    assert got == want
    assert got[0].data == {"threshold": 12_002, "escape_witnesses": {"0": 12_001, "1": 12_000}}


# -- Lusin stages -----------------------------------------------------------------

def block_elements(stage):
    return [x for block in stage.blocks for x in block]


def holds(s, x):
    """Whether the prior set ``s`` holds ``x``: a stage by a bisection of its members, which a scan of its
    blocks would make too slow for criterion 13's run."""
    if isinstance(s, EvPeriodicSet):
        return s.contains(x)
    i = bisect_left(s.members, x)
    return i < len(s.members) and s.members[i] == x


def recount_oracle(stage, prev):
    """Fully independent recount of the fresh-intersection sizes; a stage
    is read only through its blocks."""
    def contains(s, x):
        if isinstance(s, EvPeriodicSet):
            return s.contains(x)
        return any(x in block for block in s.blocks)
    counts = []
    for n in range(len(prev)):
        fresh = [x for x in set(block_elements(stage))
                 if contains(prev[n], x) and not any(contains(prev[k], x) for k in range(n))]
        counts.append(len(fresh))
    return counts


def test_lusin_single_stage_mod8():
    prev = list(ADFamily.progressions(8).sets)
    stage = lusin_stage(prev)
    assert recount_oracle(stage, prev) == list(range(8))
    assert tuple(stage.blocks[0]) == ()
    # greedy-least takes the least fresh members of each class
    assert tuple(stage.blocks[1]) == (1,)
    assert tuple(stage.blocks[2]) == (2, 10)


def test_lusin_stage_n0_forces_empty_meet():
    prev = [EVENS]
    stage = lusin_stage(prev)
    assert [tuple(b) for b in stage.blocks] == [()] and tuple(stage.members) == ()


def finite_stage(*xs):
    """A hand-built stage with the single block ``xs``."""
    return LusinStage((tuple(xs),), 1, ())


def test_lusin_insufficient_fresh_elements():
    # the last set has no element outside the first
    prev = [EvPeriodicSet(2, frozenset({0})), finite_stage(1, 2, 4, 6), finite_stage(0, 2)]
    with pytest.raises(MrowkaError, match="prior set 2 has fewer than 2"):
        lusin_stage(prev)
    # the second set has a single element outside the first
    with pytest.raises(MrowkaError, match="prior set 1 has fewer than 1"):
        lusin_stage([prev[0], finite_stage(0, 2, 4)])


def test_lusin_stage_prior_must_be_a_stage_or_periodic():
    for prior in (frozenset({1, 3}), {1, 3}, (1, 3)):
        with pytest.raises(MrowkaError, match="unsupported set representation"):
            lusin_stage([EVENS, prior])


def test_lusin_stage_reads_match_its_blocks():
    for stage in lusin_iterate(ADFamily.progressions(16), 10):
        elements = set(block_elements(stage))
        top = max(elements, default=-1) + 2
        assert tuple(stage.members) == tuple(sorted(elements))
        for x in range(-1, top + 1):
            assert list(stage.ascending(x)) == sorted(e for e in elements if e >= x)


def test_lusin_stage_refuses_a_member_past_max_stage_member():
    assert tuple(finite_stage(MAX_STAGE_MEMBER).members) == (MAX_STAGE_MEMBER,)
    with pytest.raises(MrowkaError, match=rf"^stage member {MAX_STAGE_MEMBER + 1} over "
                                          rf"MAX_STAGE_MEMBER = {MAX_STAGE_MEMBER}$"):
        finite_stage(3, MAX_STAGE_MEMBER + 1)
    with pytest.raises(MrowkaError, match="MAX_STAGE_MEMBER"):
        LusinStage(((), (1 << 64,)), 2, ())


def test_lusin_stage_refuses_a_member_below_the_typecode():
    # -2^63 and MAX_STAGE_MEMBER fit; one past either side is refused, not overflowed
    assert tuple(finite_stage(-(1 << 63), MAX_STAGE_MEMBER).members) == (-(1 << 63), MAX_STAGE_MEMBER)
    with pytest.raises(MrowkaError, match="^stage members must be naturals$"):
        LusinStage(((-(1 << 64), 3),), 1, ())
    with pytest.raises(MrowkaError, match="^stage members must be naturals$"):
        mrowka._stage_block([5, -(1 << 63) - 1])
    with pytest.raises(MrowkaError, match=rf"^stage member {MAX_STAGE_MEMBER + 1} over "
                                          rf"MAX_STAGE_MEMBER = {MAX_STAGE_MEMBER}$"):
        mrowka._stage_block([-(1 << 64), MAX_STAGE_MEMBER + 1])
    assert mrowka._stage_block([]) == array("q")


def test_lusin_stage_blocks_are_packed_and_compare_by_value():
    stage = finite_stage(4, 1, 9)
    assert isinstance(stage.blocks[0], array) and stage.blocks[0].typecode == "q"
    assert stage.blocks[0].tolist() == [4, 1, 9] and stage.members.tolist() == [1, 4, 9]
    assert stage == LusinStage((array("q", [4, 1, 9]),), 1, ())
    with pytest.raises(TypeError, match="unhashable"):
        hash(stage)


def test_lusin_stage_members_must_be_naturals():
    with pytest.raises(MrowkaError, match="stage members must be naturals"):
        lusin_stage([finite_stage(-1, 2), EVENS])


def test_lusin_non_ad_input_rejected():
    with pytest.raises(MrowkaError, match="non-AD"):
        lusin_stage([EVENS, EvPeriodicSet(4, frozenset({0}))])


def test_lusin_finite_prior_set_rejected():
    with pytest.raises(MrowkaError, match="prior set is finite"):
        lusin_stage([EVENS, EvPeriodicSet(2, frozenset(), frozenset({3}))])


def test_lusin_iterate_trusts_its_family(monkeypatch):
    base = ADFamily.progressions(8)
    calls = []
    check = mrowka.ad_check

    def counted(sets):
        calls.append(len(sets))
        return check(sets)

    monkeypatch.setattr(mrowka, "ad_check", counted)
    stages = lusin_iterate(base, 3)
    assert calls == [] and len(stages) == 3
    # a stage built alone checks the periodic members of its prior family
    lusin_stage(list(reversed(stages)) + list(base.sets))
    assert calls == [8]


def test_lusin_iterated_stages_mod16():
    base = ADFamily.progressions(16)
    stages = lusin_iterate(base, 10)
    for step, stage in enumerate(stages):
        prev = list(reversed(stages[:step])) + list(base.sets)
        assert recount_oracle(stage, prev) == list(range(len(prev)))
        # a stage built alone, scanning from 0, is the one the iteration built
        assert lusin_stage(prev) == stage


def test_lusin_l1_counts_are_bounded_and_monotone():
    base = ADFamily.progressions(8)
    stages = lusin_iterate(base, 4)
    stage = stages[-1]
    ks = [k for k, _ in stage.l1_counts]
    cs = [c for _, c in stage.l1_counts]
    assert ks == sorted(ks)
    assert cs == sorted(cs)
    assert all(c <= stage.m for c in cs)
    # only the empty-block position can avoid the new set entirely at the top probe
    assert cs[-1] <= stage.m


def test_lusin_stage_elements_disjoint_from_earlier_stages():
    base = ADFamily.progressions(8)
    stages = lusin_iterate(base, 5)
    # position 0 in each later stage is the newest earlier stage: empty meet
    for i in range(1, len(stages)):
        assert set(block_elements(stages[i])).isdisjoint(block_elements(stages[i - 1]))


def rescan_stage(prev):
    """Greedy-least stage with every scan starting from 0, as stages were
    made before lusin_iterate resumed its scans.  Freshness is read off
    the running union of the earlier sets."""
    blocks = []
    seen_finite: set = set()
    seen_residues: dict = {}  # period -> residues of the earlier periodic sets
    for n, s in enumerate(prev):
        chosen = []
        if n:
            members = (s.ascending() if isinstance(s, EvPeriodicSet)
                       else iter(sorted(block_elements(s))))
            for x in members:
                if x in seen_finite or any(x % p in rs for p, rs in seen_residues.items()):
                    continue
                chosen.append(x)
                if len(chosen) == n:
                    break
            assert len(chosen) == n
        blocks.append(tuple(chosen))
        if isinstance(s, EvPeriodicSet):
            assert not s.delta
            seen_residues.setdefault(s.period, set()).update(s.residues)
        else:
            seen_finite.update(block_elements(s))
    return blocks


@pytest.fixture(scope="module")
def lusin64():
    """Criterion 13's run: 50 stages over the progressions mod 64."""
    base = ADFamily.progressions(64)
    return base, lusin_iterate(base, 50)


def test_lusin_iterate_matches_rescan_from_zero(lusin64):
    base, stages = lusin64
    assert len(stages) == 50
    for step, stage in enumerate(stages):
        prev = list(reversed(stages[:step])) + list(base.sets)
        assert [tuple(b) for b in stage.blocks] == rescan_stage(prev), f"stage {step}"
    assert stages[-1].m == 113


class TupleIndex:
    """The membership index as it was before ``youngest`` and ``older``:
    a tuple of ages per natural held by a stage, and the sets with a delta
    tested one by one."""

    def __init__(self, prev):
        self.size = 0
        self.by_period: dict = {}
        self.finite: dict = {}
        self.slow: list = []
        for s in reversed(prev):
            self.push(s)

    def push(self, s):
        age = self.size
        if isinstance(s, EvPeriodicSet):
            if s.delta:
                self.slow.append((age, s))
            else:
                table = self.by_period.setdefault(s.period, {})
                for r in s.residues:
                    table.setdefault(r, []).append(age)
        else:
            for x in s.members:
                self.finite[x] = self.finite.get(x, ()) + (age,)
        self.size += 1

    def _ages(self, x):
        out = list(self.finite.get(x, ()))
        for period, table in self.by_period.items():
            out.extend(table.get(x % period, ()))
        for age, s in self.slow:
            if s.contains(x):
                out.append(age)
        return out

    def first(self, x):
        return self.size - 1 - max(self._ages(x))

    def positions(self, x):
        top = self.size - 1
        return sorted(top - age for age in self._ages(x))


def positions(index, x):
    """Positions of every set of ``index`` containing x, ascending."""
    top = index.size - 1
    ((_, ages),) = index.ages_of((x,))
    return sorted(top - age for age in ages)


def first_position(index, x):
    """Position of the first set of ``index`` containing x, read one
    natural at a time, as the scan read it before ``fresh``."""
    if x in index.toggled:
        ((_, ages),) = index.ages_of((x,))
        return index.size - 1 - max(ages)
    age = index.youngest[x] if x < index.span else index.far.get(x, -1)
    for period, table in index.by_period.items():
        ages = table.get(x % period)
        if ages and ages[-1] > age:
            age = ages[-1]
    return index.size - 1 - age


def fresh_oracle(index, candidates, n):
    """``fresh`` as the scan made it before: one ``first_position`` per
    candidate."""
    chosen = []
    if n:
        for x in candidates:
            if first_position(index, x) < n:
                continue
            chosen.append(x)
            if len(chosen) == n:
                break
    return chosen


def tally_oracle(index, blocks):
    """``tally`` as the recount made it before: every age of each picked
    natural read through ``ages_of``, block by block."""
    top = index.size - 1
    counts = [0] * index.size
    maxima = [-1] * index.size
    for block in blocks:
        for x, ages in index.ages_of(block):
            counts[top - max(ages)] += 1
            for age in ages:
                if x > maxima[top - age]:
                    maxima[top - age] = x
    return counts, maxima


def _assert_index_matches_the_oracle(prev, xs):
    new, old = _MembershipIndex(prev), TupleIndex(prev)
    assert new.size == old.size == len(prev)
    held = sum(1 for age in new.youngest if age >= 0)
    assert held + len(new.far) == new.naturals == len(old.finite)
    for x in xs:
        assert first_position(new, x) == old.first(x), (prev, x)
        assert positions(new, x) == old.positions(x), (prev, x)
    # read in bulk, as the recount reads a block
    assert ([(x, sorted(ages)) for x, ages in new.ages_of(xs)]
            == [(x, sorted(old._ages(x))) for x in xs]), prev


def index_prevs():
    """The prior families the index is checked on: the stages of a run
    over the progressions mod 8 with the base behind them, families with
    deltas and stages mixed in (``delta``), and stages far apart (``far``)."""
    base = ADFamily.progressions(8)
    stages = lusin_iterate(base, 6)
    # each delta drops residue members (0, 12; 3) and adds others (5, 7; 0, 2)
    periodic = [EvPeriodicSet(4, frozenset({1})), EvPeriodicSet(6, frozenset({0, 2})),
                EvPeriodicSet(4, frozenset({0}), frozenset({0, 12, 5, 7})),
                EvPeriodicSet(6, frozenset({3}), frozenset({3, 0, 2, 40}))]
    runs = [list(reversed(stages[:step])) + list(base.sets) for step in range(len(stages) + 1)]
    delta = [periodic, list(reversed(stages)) + periodic,
             [stages[3], periodic[2], stages[0], periodic[0], stages[5], periodic[3],
              stages[1], periodic[1], stages[4]],
             [periodic[3], *stages, periodic[2], *base.sets[:3]],
             # the index does not need almost disjointness: residue 1 mod 4 twice
             [stages[2], periodic[0], EvPeriodicSet(4, frozenset({1, 2})), periodic[2]]]
    # stages far apart: members near SCAN_CAP stay in the dict, and a
    # dense stage pushed later moves the dict's 400 into the array
    sparse = LusinStage(((), (400,), (9_999_990, 9_999_999)), 3, ())
    dense = finite_stage(*range(0, 1_000, 2))
    near_cap = LusinStage(((9_999_990,), (3, 9_999_991)), 2, ())
    far = [[sparse], [dense, sparse], [near_cap, dense, sparse, *base.sets],
           [sparse, near_cap, *stages[:2], *periodic],
           [dense, near_cap, stages[5], sparse, periodic[2], periodic[3]]]
    return stages, runs, delta, far


def test_membership_index_matches_the_tuple_oracle():
    stages, runs, delta, far_prevs = index_prevs()
    horizon = 2 + max(x for stage in stages for x in stage.members)
    for prev in runs + delta:
        held = [x for x in range(horizon) if any(holds(s, x) for s in prev)]
        assert len(held) > horizon // 2
        _assert_index_matches_the_oracle(prev, held)
    for prev in far_prevs:
        held = [x for x in range(1_002) if any(holds(s, x) for s in prev)]
        held += sorted({x for s in prev if isinstance(s, LusinStage)
                        for x in s.members if x >= 1_002})
        _assert_index_matches_the_oracle(prev, held)
    dense, sparse = far_prevs[1]
    new = _MembershipIndex([dense, sparse])
    assert new.span == 999 and set(new.far) == {9_999_990, 9_999_999}
    assert new.youngest[400] == 1 and new.older[400] == (0,)
    size, new = _traced_size(lambda: _MembershipIndex(far_prevs[2]))
    assert new.span < 1_000 and size < 20_000, (new.span, size)


def listed_recount(index, blocks):
    """The recount as ``lusin_stage`` made it before ``ages_of``: the sorted
    positions of each picked natural, and each probe counted over all m
    sets.  Returns the fresh-intersection counts and ``l1_counts``."""
    m = index.size
    counts = [0] * m
    maxima = [-1] * m
    for block in blocks:
        for x in block:
            pos = positions(index, x)
            counts[pos[0]] += 1
            for n in pos:
                if x > maxima[n]:
                    maxima[n] = x
    probes = sorted({0, 1} | {max(b) + 1 for b in blocks if b})
    return counts, tuple((k, sum(1 for n in range(m) if maxima[n] < k)) for k in probes)


def brute_l1_counts(stage, prev):
    """``l1_counts`` read through ``holds`` alone: for each probe k, the
    prior sets that hold no element of the stage from k on."""
    descending = sorted(block_elements(stage), reverse=True)
    tops = [next((x for x in descending if holds(s, x)), -1) for s in prev]
    probes = sorted({0, 1} | {max(b) + 1 for b in stage.blocks if b})
    return tuple((k, sum(1 for top in tops if top < k)) for k in probes)


def test_lusin_recount_matches_the_listed_recount(lusin64):
    base, stages = lusin64
    index = _MembershipIndex(base.sets)
    for step, stage in enumerate(stages):
        prev = list(reversed(stages[:step])) + list(base.sets)
        counts, l1 = listed_recount(index, stage.blocks)
        assert counts == list(range(len(prev))), f"stage {step}"
        assert stage.l1_counts == l1, f"stage {step}"
        # the brute count takes 0.15 s at the last stage, 3.3 s over all 50
        if step < 5 or step == len(stages) - 1:
            assert l1 == brute_l1_counts(stage, prev), f"stage {step}"
        index.push(stage)


def test_lusin_recount_matches_the_listed_recount_on_delta_bearing_prevs():
    stages, _, delta, far_prevs = index_prevs()
    # the fourth delta family has one set that the earlier ones cover from
    # some point on, so its scan runs to SCAN_CAP
    prevs = [delta[0], delta[1], delta[2], delta[4], far_prevs[3]]
    toggled = 0
    for prev in prevs:
        # an index passed in skips the input checks, so a family that is
        # not almost disjoint is served too
        index = _MembershipIndex(prev)
        stage = lusin_stage(prev, index)
        counts, l1 = listed_recount(index, stage.blocks)
        assert counts == recount_oracle(stage, prev) == list(range(len(prev)))
        assert stage.l1_counts == l1 == brute_l1_counts(stage, prev)
        toggled += sum(1 for x in stage.members if x in index.toggled)
    assert toggled >= 8  # picks whose ages the deltas flip


def test_fresh_and_tally_match_the_per_natural_path_on_lusin64(lusin64):
    base, stages = lusin64
    index = _MembershipIndex(base.sets)
    for step, stage in enumerate(stages):
        prev = list(reversed(stages[:step])) + list(base.sets)
        starts = index.starts
        for n in range(1, len(prev)):
            picks = index.fresh(prev[n].ascending(starts[n]), n)
            assert picks == fresh_oracle(index, prev[n].ascending(starts[n]), n), (step, n)
            assert tuple(picks) == tuple(stage.blocks[n]), (step, n)
        # from 0 most candidates are covered; the later stages take too long
        if step < 4:
            for n in range(1, len(prev)):
                assert (index.fresh(prev[n].ascending(), n)
                        == fresh_oracle(index, prev[n].ascending(), n)), (step, n)
        counts, maxima = index.tally(stage.blocks)
        assert (counts, maxima) == tally_oracle(index, stage.blocks), step
        assert counts == list(range(len(prev))), step
        if step + 1 < len(stages):
            index.advance(stage)


def test_fresh_and_tally_match_the_per_natural_path_on_index_prevs():
    stages, runs, delta, far_prevs = index_prevs()
    horizon = 2 + max(x for stage in stages for x in stage.members)
    # a pick that a later set holds too: 9 is the last set's largest pick
    # only through ``older``, and the last set's 1 mod 4 has a younger age
    # besides the oldest
    shared = [[finite_stage(0), finite_stage(9), finite_stage(1, 3, 9)],
              [EvPeriodicSet(4, frozenset({1})), stages[1], EvPeriodicSet(4, frozenset({1, 3}))]]
    toggled = in_youngest = in_far = short = 0
    for prev in runs + delta + far_prevs + shared:
        index = _MembershipIndex(prev)
        # every held natural below the horizon and every stage member: the
        # periodic sets' scans would otherwise run to SCAN_CAP
        naturals = sorted(set(range(horizon)).union(
            x for s in prev if isinstance(s, LusinStage) for x in s.members))
        blocks = []
        for n, s in enumerate(prev):
            candidates = [x for x in naturals if holds(s, x)]
            picks = index.fresh(iter(candidates), n)
            assert picks == fresh_oracle(index, iter(candidates), n), (prev, n)
            blocks.append(tuple(picks))
            toggled += sum(1 for x in picks if x in index.toggled)
            in_youngest += sum(1 for x in candidates if x < index.span and index.youngest[x] >= 0)
            in_far += sum(1 for x in candidates if x in index.far)
            short += len(picks) < n
        assert index.tally(blocks) == tally_oracle(index, blocks), prev
    assert toggled >= 8 and in_youngest and in_far and short, (toggled, in_youngest, in_far, short)


def test_fresh_returns_fewer_picks_when_the_candidates_run_out():
    prev = [EVENS, finite_stage(1, 2, 4, 6), finite_stage(0, 2, 3)]
    index = _MembershipIndex(prev)
    # 0 and 2 are even, so 3 is the one fresh member of the last set
    assert index.fresh(prev[2].ascending(), 2) == fresh_oracle(index, prev[2].ascending(), 2) == [3]
    with pytest.raises(MrowkaError,
                       match=r"^prior set 2 has fewer than 2 elements outside its predecessors$"):
        lusin_stage(prev)


def test_lusin_recount_catches_a_scan_that_picks_covered_naturals(monkeypatch):
    base = ADFamily.progressions(8)
    prev = list(reversed(lusin_iterate(base, 3))) + list(base.sets)
    # every natural looks fresh, so each block takes the least members of its set
    monkeypatch.setattr(_MembershipIndex, "fresh",
                        lambda self, candidates, n: list(islice(candidates, n)))
    with pytest.raises(AssertionError, match=r"^fresh-intersection count at 0 is 5, wanted 0$"):
        lusin_stage(prev)


def test_lusin_iterate_does_not_index_its_last_stage(monkeypatch):
    base = ADFamily.progressions(8)
    # stage by stage, each built alone with its scans from 0
    expected = []
    for step in range(6):
        prev = list(reversed(expected)) + list(base.sets)
        expected.append(lusin_stage(prev))
        assert [tuple(b) for b in expected[-1].blocks] == rescan_stage(prev)
    advanced = []
    advance = _MembershipIndex.advance

    def counted(self, stage):
        advanced.append(stage)
        advance(self, stage)

    monkeypatch.setattr(_MembershipIndex, "advance", counted)
    for steps in (1, 2, 6):
        advanced.clear()
        stages = lusin_iterate(base, steps)
        assert stages == expected[:steps]
        assert advanced == stages[:-1]


def _traced_size(build):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build()
        return tracemalloc.get_traced_memory()[0] - before, index
    finally:
        tracemalloc.stop()


def test_membership_index_is_two_thirds_of_the_tuple_oracle(lusin64):
    base, stages = lusin64
    prev = list(reversed(stages)) + list(base.sets)
    new_size, new = _traced_size(lambda: _MembershipIndex(prev))
    old_size, old = _traced_size(lambda: TupleIndex(prev))
    # the naturals that hold a stage age, in the array and in the dict
    held = sum(1 for age in new.youngest if age >= 0)
    assert held + len(new.far) == new.naturals == len(old.finite) == 179_200
    assert 5 * new_size <= old_size, (new_size, old_size)


def _peak_rss(code):
    """Peak RSS, in bytes, of a fresh interpreter that runs ``code``: its
    VmHWM, since getrusage and wait4 count the RSS of the forking parent
    (here the whole test session) as well."""
    src = os.path.dirname(os.path.dirname(mrowka.__file__))
    code += "\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    return int(proc.stdout) * 1024  # in kB


def test_lusin_iterate_peak_memory():
    # criterion 13's run, against a process that only imports the module;
    # its 50 stages alone take about 5.2 MB, their picks unboxed
    peak = (_peak_rss("from ordtop.mrowka import ADFamily, lusin_iterate\n"
                      "lusin_iterate(ADFamily.progressions(64), 50)")
            - _peak_rss("import ordtop.mrowka"))
    assert peak <= 7_000_000, peak


def test_lusin_iterate_refuses_runs_over_max_picks(lusin64, monkeypatch):
    # criterion 13's run is admitted: one pick per block element
    _, stages = lusin64
    assert sum(len(b) for stage in stages for b in stage.blocks) == 198_800 <= MAX_LUSIN_PICKS
    # the largest admitted run over 64 sets, counted stage by stage
    steps, picks = 0, 0
    while picks + (64 + steps) * (63 + steps) // 2 <= MAX_LUSIN_PICKS:
        picks += (64 + steps) * (63 + steps) // 2
        steps += 1
    base = ADFamily.progressions(64)
    assert lusin_iterate(base, 0) == [] and lusin_iterate(base, -3) == []
    # an admitted run reaches the scan, a refused one is refused before it
    def scan_reached(prev):
        raise RuntimeError("scan reached")

    monkeypatch.setattr(mrowka, "_MembershipIndex", scan_reached)
    with pytest.raises(RuntimeError, match="scan reached"):
        lusin_iterate(base, steps)
    for over in (steps + 1, 10 ** 18):
        with pytest.raises(MrowkaError, match=f"over MAX_LUSIN_PICKS = {MAX_LUSIN_PICKS}$"):
            lusin_iterate(base, over)

# -- canonical selector -------------------------------------------------------------

def test_selector_two_progressions():
    rep = mrowka_selector_check(ADFamily.progressions(2), truncation=16)
    assert rep.passed


def test_selector_overlapping_input_fails_with_witness():
    rep = mrowka_selector_check([EVENS, EvPeriodicSet(4, frozenset({0}))],
                                truncation=16)
    assert not rep.passed
    conditions = rep.data["conditions"]
    assert not conditions["antisymmetry"] or not conditions["nesting"]
    assert rep.witness is not None


def test_selector_five_branches():
    rep = mrowka_selector_check(ADFamily.progressions(5), truncation=64)
    assert rep.passed
    assert rep.data["induced_order"]


def test_selector_empty_branch_at_truncation():
    far = EvPeriodicSet(64, frozenset({63}))
    rep = mrowka_selector_check([far], truncation=4)
    assert not rep.data["heights"]
    assert rep.witness == ("heights", "branch empty at truncation")


def test_selector_on_an_empty_family_names_no_branch():
    # an empty family has no branch to be empty at the truncation
    for sets in ([], ADFamily([])):
        rep = mrowka_selector_check(sets, 16)
        assert (rep.passed, rep.data["heights"]) == (False, False)
        assert rep.witness == ("heights", "family has no branch")


def test_selector_truncation_limit_for_library_callers():
    fam = ADFamily.progressions(2)
    assert mrowka_selector_check(fam, mrowka.MAX_TRUNCATION).passed
    # the CLI reads no sign; a library caller's negative truncation keeps no naturals
    assert mrowka_selector_check(fam, -3) == mrowka_selector_check(fam, 0)
    with pytest.raises(MrowkaError, match="^truncation bound 16385 over MAX_TRUNCATION = 16384$"):
        mrowka_selector_check(fam, mrowka.MAX_TRUNCATION + 1)


def _selector_check_on_frozensets(sets, truncation):
    # the check before it ran on bitmasks: points and their sets as
    # frozensets of naturals, ("branch", k) tuples and "inf"
    members = tuple(sets.sets) if isinstance(sets, ADFamily) else tuple(sets)
    points = list(range(truncation)) + [("branch", k) for k in range(len(members))] + ["inf"]
    u = {}
    for n in range(truncation):
        u[n] = frozenset({n})
    for k, a in enumerate(members):
        accumulating = {("branch", j) for j, b in enumerate(members)
                        if j != k and common_residue_classes(a, b)}
        u[("branch", k)] = (frozenset(elements_below(a, truncation))
                            | {("branch", k)} | accumulating)
    u["inf"] = frozenset(points)
    conditions = {"membership": True, "antisymmetry": True, "nesting": True}
    witness = None
    for x in points:
        if x not in u[x]:
            conditions["membership"] = False
            witness = witness or ("membership", str(x))
    for x in points:
        for y in points:
            if x != y and x in u[y] and y in u[x]:
                conditions["antisymmetry"] = False
                witness = witness or ("antisymmetry", (str(x), str(y)))
    for x in points:
        for y in u[x]:
            if not u[y] <= u[x]:
                conditions["nesting"] = False
                witness = witness or ("nesting", (str(x), str(y)))
    induced_ok = True
    for n in range(truncation):
        for k, a in enumerate(members):
            if (n in u[("branch", k)]) != a.contains(n):
                induced_ok = False
    for k in range(len(members)):
        if ("branch", k) not in u["inf"]:
            induced_ok = False
    ad_ok = True
    try:
        rep = ad_check(members)
        ad_ok = rep.passed
        if not rep.passed:
            witness = witness or ("infinite overlap", rep.witness)
    except MrowkaError as e:
        ad_ok = False
        witness = witness or ("bad member", str(e))
    heights_ok = all(a.is_infinite and elements_below(a, truncation)
                     for a in members) and bool(members)
    if not heights_ok:
        witness = witness or ("heights", "branch empty at truncation")
    passed = all(conditions.values()) and induced_ok and ad_ok and heights_ok
    return CheckReport("mrowka-selector", passed, witness, {
        "conditions": conditions, "induced_order": induced_ok, "ad": ad_ok,
        "heights": heights_ok})


def _random_family(rng):
    def delta():
        return frozenset(rng.sample(range(40), rng.randint(0, 3)))

    if rng.random() < 0.2:
        # residue classes mod 12 are almost disjoint; one later set that
        # also takes an earlier set's class makes the only non-AD pair, with
        # indices straddling 10, where "('branch', 10)" sorts before
        # "('branch', 2)" as a string
        m = rng.randint(11, 12)
        residues = rng.sample(range(12), m)
        sets = [EvPeriodicSet(12, frozenset({r}), delta()) for r in residues]
        i, j = rng.randint(0, 9), rng.randint(10, m - 1)
        sets[j] = EvPeriodicSet(12, frozenset({residues[i], residues[j]}), delta())
        return sets
    sets = []
    for _ in range(rng.randint(0, 14)):
        p = rng.choice([1, 2, 3, 4, 6, 12])
        sets.append(EvPeriodicSet(p, frozenset(rng.sample(range(p), rng.randint(0, p))),
                                  delta()))
    return sets


def test_selector_on_masks_matches_frozenset_scan():
    rng = random.Random(12)
    truncations = (-2, -1, 0, 1, 4, 16, 32)
    kinds = set()
    straddled = 0
    late_branches = {f"('branch', {k})" for k in range(10, 14)}
    for case in range(2100):
        sets = _random_family(rng)
        t = truncations[case % len(truncations)]
        got = mrowka_selector_check(sets, t).to_json()
        want = _selector_check_on_frozensets(sets, t).to_json()
        if not sets:  # the oracle predates the empty family's own witness
            want["witness"] = ("heights", "family has no branch")
        assert got == want, (sets, t)
        kinds.add(got["witness"] and got["witness"][0])
        if got["witness"] and got["witness"][0] == "antisymmetry":
            straddled += got["witness"][1][1] in late_branches
    # an infinite overlap always shows first as a mutual pair of branches
    assert kinds == {None, "antisymmetry", "bad member", "heights"}
    assert straddled >= 20


def test_common_residue_classes_equal_periods_match_full_scan():
    # oracle: the scan over all residues mod the lcm, which equal periods skip
    rng = random.Random(3)
    for _ in range(100):
        p = rng.randint(1, 12)
        a = EvPeriodicSet(p, frozenset(rng.sample(range(p), rng.randint(0, p))))
        b = EvPeriodicSet(p, frozenset(rng.sample(range(p), rng.randint(0, p))))
        assert common_residue_classes(a, b) == [
            r for r in range(p) if r in a.residues and r in b.residues]


def test_common_residue_classes_match_the_lcm_walk():
    # oracle: the walk over every residue mod the lcm that the Chinese
    # remainder pairing replaced
    rng = random.Random(4)
    for _ in range(400):
        pa, pb = rng.randint(1, 60), rng.randint(1, 60)
        a = EvPeriodicSet(pa, frozenset(rng.sample(range(pa), rng.randint(0, min(pa, 6)))))
        b = EvPeriodicSet(pb, frozenset(rng.sample(range(pb), rng.randint(0, min(pb, 6)))))
        assert common_residue_classes(a, b) == [
            r for r in range(lcm(pa, pb))
            if r % pa in a.residues and r % pb in b.residues], (a, b)


def test_common_residue_classes_with_large_periods():
    # periods near a million: the lcm is about 10^12, the answer one class
    a = EvPeriodicSet(1000003, frozenset({5}))
    b = EvPeriodicSet(1000033, frozenset({7}))
    (r,) = common_residue_classes(a, b)
    assert r % 1000003 == 5 and r % 1000033 == 7 and 0 <= r < 1000003 * 1000033
    rep = ad_check([a, b])
    assert not rep.passed and rep.witness == {"pair": [0, 1], "residue": r,
                                              "modulus": 1000003 * 1000033}


def test_common_residue_classes_symmetry():
    a = EvPeriodicSet(6, frozenset({0, 3}))
    b = EvPeriodicSet(4, frozenset({3}))
    assert bool(common_residue_classes(a, b)) == bool(common_residue_classes(b, a))


def test_selector_scans_pairs_once_on_an_almost_disjoint_family(monkeypatch):
    # ad_check's scan decides every pair: the ADFamily constructor's for a
    # validated family, which the check does not repeat, and the check's own
    # for a raw list; only a failed check scans them again
    calls = []

    def counted(a, b):
        calls.append(1)
        return common_residue_classes(a, b)

    m = 12
    monkeypatch.setattr(mrowka, "common_residue_classes", counted)
    family = ADFamily.progressions(m)
    assert len(calls) == m * (m - 1) // 2
    calls.clear()
    assert mrowka_selector_check(family, 16).passed
    assert calls == []
    assert mrowka_selector_check(list(family.sets), 16) == mrowka_selector_check(family, 16)
    assert len(calls) == m * (m - 1) // 2
    calls.clear()
    overlapping = [EVENS, EvPeriodicSet(4, frozenset({0})), EvPeriodicSet(4, frozenset({1}))]
    assert not mrowka_selector_check(overlapping, 16).passed
    assert len(calls) == 1 + 3 * 2  # ad_check stops at the first pair; the scan takes all
