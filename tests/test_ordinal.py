import math
import random
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordtop.acceptance import _decompose_by_enumeration
from ordtop.ordinal import (
    MAX_COEFF_BITS,
    MAX_NESTING,
    MAX_PRODUCT_PAIRS,
    MAX_TERMS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    ParseError,
    format_ordinal,
    nat_prod,
    nat_sum,
    nat_sum_split_below,
    odot,
    one_plus_inverse,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_natural,
    parse_ordinal,
    random_ordinal,
    random_ordinal_below,
    tip_deg,
)
from ordtop.ordinal import TipInfo, _add, _coeff_mul, _mul, _pow_nat, _trusted

P = parse_ordinal


def w_pow(e, c=1):
    return Ordinal.omega_power(P(e) if isinstance(e, str) else Ordinal.from_int(e), c)


def assert_view_agrees(*xs):
    """The ``terms`` view rebuilds each key, and each printed form parses
    back to the same ordinal."""
    for x in xs:
        assert Ordinal(x.terms)._key == x._key, x
        assert parse_ordinal(format_ordinal(x)) == x, x


@st.composite
def ordinals(draw, depth=1, max_terms=4):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_ordinal(random.Random(seed), max_terms=max_terms, depth=depth)


# -- parsing and formatting ------------------------------------------

def test_parse_zero_is_empty_term_list():
    assert P("0") == ZERO
    assert P("0").terms == ()


def test_parse_example_antichain_value():
    a = P("w^(w+7) + w^9*2 + w^2 + w + 2")
    exps = [t[0] for t in a.terms]
    coeffs = [t[1] for t in a.terms]
    assert exps == [P("w+7"), P("9"), P("2"), P("1"), P("0")]
    assert coeffs == [1, 2, 1, 1, 2]


def test_parse_normalizes_w_plus_w():
    # oracle: ordinal addition of the parsed halves
    assert P("w + w") == ord_add(P("w"), P("w"))
    assert format_ordinal(P("w + w")) == "w*2"


def test_format_trivial():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(OMEGA) == "w"


def test_format_example_value_byte_exact():
    s = "w^(w+7) + w^9*2 + w^2 + w + 2"
    assert format_ordinal(P(s)) == s


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as e:
        P("w + ")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        P("w^")
    with pytest.raises(ParseError):
        P("w*0")
    with pytest.raises(ParseError):
        P("w w")


def test_parse_reads_ascii_digits_only():
    # str.isdigit also holds for superscripts, other scripts' digits and
    # full-width digits; the grammar's numbers are ASCII 0-9, so each of
    # these is a parse error at its own position
    assert P(" 12 ") == Ordinal.from_int(12) and parse_natural(" 0907 ") == 907
    for text, at, message in (("\u00b2", 0, "expected '0', a number, or 'w'"),
                              ("\u0663", 0, "expected '0', a number, or 'w'"),
                              ("\uff11\uff12", 0, "expected '0', a number, or 'w'"),
                              ("1 + \u0663", 4, "expected '0', a number, or 'w'"),
                              ("w^\u00b2", 2, "expected '0', a number, or 'w'"),
                              ("w*\u0663", 2, "expected a number"),
                              ("w*3\u0663", 3, "unexpected trailing input")):
        with pytest.raises(ParseError, match=message) as e:
            P(text)
        assert e.value.position == at, text
    for text, at in (("\u0663", 0), (" \u00b2", 1), ("7\uff17", 1)):
        with pytest.raises(ParseError) as e:
            parse_natural(text)
        assert e.value.position == at, text


def test_parse_nesting_limit():
    # a tower at the limit parses and round-trips, in both spellings
    for text in ("w^" * MAX_NESTING + "2", "w^(" * MAX_NESTING + "2" + ")" * MAX_NESTING):
        a = P(text)
        assert P(format_ordinal(a)) == a
    tower = P("w^" * MAX_NESTING + "2")
    assert ord_cmp(tower, P("w^" * (MAX_NESTING - 1) + "3")) == 1
    # one level more fails at the 'w' that opens it
    for text, at in (("w^" * (MAX_NESTING + 1) + "2", 2 * MAX_NESTING),
                     ("1 + " + "w^(" * (MAX_NESTING + 1) + "2" + ")" * (MAX_NESTING + 1),
                      4 + 3 * MAX_NESTING)):
        with pytest.raises(ParseError) as e:
            P(text)
        assert e.value.position == at
        assert text[at:at + 2] == "w^"
    # the depth counts nesting, not the number of exponents side by side
    wide = " + ".join("w^" * MAX_NESTING + str(k) for k in range(9, 0, -1))
    assert len(P(wide).terms) == 9


def test_roundtrip_on_random_normal_forms():
    rng = random.Random(7)
    for _ in range(10_000):
        a = random_ordinal(rng, depth=2)
        assert P(format_ordinal(a)) == a


# -- comparison -------------------------------------------------------

def test_cmp_trivial():
    assert ord_cmp(OMEGA, OMEGA) == 0
    assert ord_cmp(P("w+1"), P("w*2")) == -1


def test_cmp_leading_exponent_rule():
    # oracle: independent leading-exponent comparison from the order axioms
    a, b = P("w^w"), P("w^9*500")
    assert a.degree > b.degree
    assert ord_cmp(a, b) == 1


@given(ordinals(), ordinals(), ordinals())
def test_cmp_is_a_total_order(a, b, c):
    assert ord_cmp(a, b) == -ord_cmp(b, a)
    if a <= b and b <= c:
        assert a <= c
    if ord_cmp(a, b) == 0:
        assert a == b



# -- differential oracles ---------------------------------------------
#
# The recursive comparison and the dict-plus-sort natural sum and product
# that the cached key and the merges replaced, kept verbatim as oracles.
# Their dicts are keyed by ``structure`` (plain nested tuples), so they do
# not lean on the hashing and equality they check.

def oracle_cmp(a, b):
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = oracle_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    na, nb = len(a.terms), len(b.terms)
    if na == nb:
        return 0
    return -1 if na < nb else 1


def structure(a):
    return tuple((structure(e), c) for e, c in a.terms)


def _oracle_merge(pairs):
    coeffs, exps = {}, {}
    for exp, coeff in pairs:
        s = structure(exp)
        coeffs[s] = coeffs.get(s, 0) + coeff
        exps.setdefault(s, exp)
    merged = sorted(((exps[s], c) for s, c in coeffs.items()),
                    key=cmp_to_key(lambda x, y: oracle_cmp(x[0], y[0])), reverse=True)
    return Ordinal(tuple(merged))


def oracle_nat_sum(a, b):
    return _oracle_merge(a.terms + b.terms)


def oracle_nat_prod(a, b):
    return _oracle_merge((oracle_nat_sum(ea, eb), ca * cb)
                         for ea, ca in a.terms for eb, cb in b.terms)


@st.composite
def ordinal_pairs(draw, max_terms=5):
    """Pairs that often share structure: independent, equal but built
    apart, a prefix, or one coefficient changed."""
    a = draw(ordinals(depth=draw(st.integers(0, 2)), max_terms=max_terms))
    how = draw(st.sampled_from(["independent", "copy", "prefix", "coefficient"]))
    if how == "independent":
        b = draw(ordinals(depth=draw(st.integers(0, 2)), max_terms=max_terms))
    elif how == "copy":
        b = P(format_ordinal(a))
    elif how == "prefix":
        b = Ordinal(a.terms[:draw(st.integers(0, len(a.terms)))])
    elif a.is_zero:
        b = a
    else:
        i = draw(st.integers(0, len(a.terms) - 1))
        e, c = a.terms[i]
        terms = list(a.terms)
        terms[i] = (e, c + draw(st.integers(1 - c, 2)))
        b = Ordinal(terms)
    return draw(st.permutations([a, b]))


@settings(max_examples=300)
@given(ordinal_pairs())
def test_order_equality_and_hash_match_recursive_oracle(pair):
    a, b = pair
    want = oracle_cmp(a, b)
    assert ord_cmp(a, b) == want
    assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)
    assert (a == b, a != b) == (want == 0, want != 0)
    if a == b:
        assert hash(a) == hash(b)
    # the generator's output passes the public constructor's checks
    assert Ordinal(a.terms) == a and Ordinal(b.terms) == b
    assert_view_agrees(a, b)


@settings(max_examples=300)
@given(ordinal_pairs())
def test_nat_sum_matches_dict_sort_oracle(pair):
    a, b = pair
    assert structure(nat_sum(a, b)) == structure(oracle_nat_sum(a, b))
    assert_view_agrees(nat_sum(a, b))


@settings(max_examples=150)
@given(ordinal_pairs(max_terms=3))
def test_nat_prod_matches_dict_sort_oracle(pair):
    a, b = pair
    assert structure(nat_prod(a, b)) == structure(oracle_nat_prod(a, b))
    assert_view_agrees(nat_prod(a, b))


def test_ordinals_are_unequal_to_other_types():
    assert ONE != 1 and not ONE == 1
    assert OMEGA != "w" and ZERO != ()
    assert ONE < 2 and OMEGA > 5


# -- rejection of malformed public input ------------------------------

@pytest.mark.parametrize("terms,message", [
    (((ONE, 1), (OMEGA, 1)), "strictly decrease"),
    (((ONE, 1), (ONE, 2)), "strictly decrease"),
    (((OMEGA, 2), (ZERO, 1), (ZERO, 1)), "strictly decrease"),
    (((ONE, 0),), "integer >= 1"),
    (((ONE, -3),), "integer >= 1"),
    (((ONE, 1.0),), "integer >= 1"),
    (((1, 1),), "must be an Ordinal"),
    (((OMEGA, 1), ("w", 1)), "must be an Ordinal"),
    (((ONE, True),), "integer >= 1"),
    (((ONE, False),), "integer >= 1"),
    (((ONE, "1"),), "integer >= 1"),
], ids=["increasing", "equal", "equal-last", "coefficient-0", "negative",
        "float", "int-exponent", "str-exponent", "bool-true", "bool-false", "str"])
def test_public_constructor_rejects_malformed_terms(terms, message):
    with pytest.raises(OrdinalError, match=message):
        Ordinal(terms)


def test_public_constructors_reject_bad_numbers():
    with pytest.raises(OrdinalError):
        Ordinal.from_int(-1)
    with pytest.raises(OrdinalError):
        Ordinal.from_int(2.5)
    with pytest.raises(OrdinalError):
        Ordinal.omega_power(ONE, 0)
    with pytest.raises(OrdinalError):
        Ordinal.omega_power(3)
    # a bool is an int to isinstance, but not a number of terms
    for bad in (True, False, "1"):
        with pytest.raises(OrdinalError, match="integer >= 1"):
            Ordinal.from_int(bad)
        with pytest.raises(OrdinalError, match="integer >= 1"):
            Ordinal.omega_power(ONE, bad)
    # nor an ordinal operand
    with pytest.raises(TypeError, match="cannot interpret True as an ordinal"):
        ONE + True
    with pytest.raises(TypeError, match="cannot interpret True as an ordinal"):
        OMEGA < True
    # nor a natural for odot's right operand, which is read as an ordinal
    for bad, error, message in ((True, TypeError, "cannot interpret True as an ordinal"),
                                (False, TypeError, "cannot interpret False as an ordinal"),
                                (-1, OrdinalError, "non-negative"),
                                (1.0, TypeError, "cannot interpret 1.0 as an ordinal"),
                                ("1", TypeError, "cannot interpret '1' as an ordinal")):
        with pytest.raises(error, match=message):
            odot(OMEGA, bad)

# -- ordinary arithmetic ----------------------------------------------

def test_add_trivial_and_absorption():
    assert ord_add(OMEGA, ONE) == P("w+1")
    # oracle: sup of finite approximants 1+n is omega
    approx = [ord_add(ONE, Ordinal.from_int(n)) for n in range(50)]
    assert all(x < OMEGA for x in approx)
    assert all(approx[i] < approx[i + 1] for i in range(49))
    assert ord_add(ONE, OMEGA) == OMEGA


def test_add_merges_equal_exponents():
    assert ord_add(P("w^9*2"), P("w^9 + w")) == P("w^9*3 + w")


@given(ordinals(), ordinals(), ordinals())
def test_add_monotone_and_associative(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
    if b < c:
        assert ord_add(a, b) < ord_add(a, c)
    assert ord_add(a, b) >= a
    assert_view_agrees(ord_add(a, b), ord_add(ord_add(a, b), c))


def test_mul_trivial():
    assert ord_mul(OMEGA, ZERO) == ZERO
    assert ord_mul(ZERO, OMEGA) == ZERO
    assert ord_mul(w_pow(2), Ordinal.from_int(3)) == P("w^2*3")


def test_mul_two_times_omega():
    # oracle: sup of 2*n is omega
    approx = [ord_mul(Ordinal.from_int(2), Ordinal.from_int(n)) for n in range(30)]
    assert all(x < OMEGA for x in approx)
    assert ord_mul(Ordinal.from_int(2), OMEGA) == OMEGA


@given(ordinals(), ordinals())
def test_mul_successor_recursion(a, b):
    # a * (b+1) = a*b + a at every successor step
    assert ord_mul(a, ord_add(b, ONE)) == ord_add(ord_mul(a, b), a)
    assert_view_agrees(ord_mul(a, b), ord_mul(a, ord_add(b, ONE)))


@given(ordinals(depth=0, max_terms=3), ordinals(depth=0, max_terms=3))
def test_mul_limit_approximants(a, b):
    # a*(b + w) dominates every a*(b + n)
    limit = ord_mul(a, ord_add(b, OMEGA))
    for n in (1, 2, 5):
        assert ord_mul(a, ord_add(b, Ordinal.from_int(n))) <= limit


def _mul_by_add(ka, kb):
    # the _mul that ord_mul replaced: each piece added to the product so far
    # with _add, a scan and a copy per term of b
    if not ka:
        return ka
    (kd, lead), tail = ka[0], ka[1:]
    out = ()
    for ke, coeff in kb:
        if ke:
            out = _add(out, ((_add(kd, ke), coeff),))
        else:
            # a * finite: scale the leading coefficient, keep the tail once
            out = _add(out, ((kd, _coeff_mul(lead, coeff)),) + tail)
    return out


def test_mul_matches_the_piecewise_sum_oracle():
    rng = random.Random(44)
    keys = [(), ONE._key, P("7")._key, P("w+1")._key, P("w^(w^w*2+w)*3 + w^w + w*5 + 9")._key,
            ord_pow(P("w+1"), Ordinal.from_int(60))._key, ord_pow(P("w^w+w+3"), Ordinal.from_int(9))._key]
    keys += [random_ordinal(rng, max_terms=t, depth=d)._key
             for d in range(4) for t in (1, 3, 8) for _ in range(15)]
    assert sum(1 for k in keys if k and not k[-1][0]) > 50  # a finite last term
    for ka in keys:
        for kb in keys:
            assert _mul(ka, kb) == _mul_by_add(ka, kb), (ka, kb)


def test_pow_trivial():
    for a in (ZERO, ONE, OMEGA, P("w^2+3")):
        assert ord_pow(a, ZERO) == ONE
    assert ord_pow(ZERO, P("w")) == ZERO


def test_pow_single_term():
    assert ord_pow(OMEGA, P("w+7")) == w_pow("w+7")
    assert ord_pow(OMEGA, P("w+7")).terms == ((P("w+7"), 1),)


def test_pow_two_to_omega():
    # oracle: sup of 2^n is omega
    approx = [ord_pow(Ordinal.from_int(2), Ordinal.from_int(n)) for n in range(20)]
    assert all(x < OMEGA for x in approx)
    assert ord_pow(Ordinal.from_int(2), OMEGA) == OMEGA


def test_pow_finite_base_limits():
    assert ord_pow(Ordinal.from_int(2), P("w^2")) == P("w^w")
    assert ord_pow(Ordinal.from_int(3), P("w*2 + 3")) == P("w^2*27")


def test_pow_coefficient_limit():
    n = MAX_COEFF_BITS
    two = Ordinal.from_int(2)
    # 2^(n-1) has exactly n bits and is built; 2^n has one bit too many
    assert int(ord_pow(two, Ordinal.from_int(n - 1))).bit_length() == n
    with pytest.raises(OrdinalError, match="MAX_COEFF_BITS"):
        ord_pow(two, Ordinal.from_int(n))
    # the same edge for the finite factor of an infinite power: 2^(w+k) = w*2^k
    assert ord_pow(two, P(f"w+{n - 1}")).terms[0][1].bit_length() == n
    with pytest.raises(OrdinalError, match="MAX_COEFF_BITS"):
        ord_pow(two, P(f"w+{n}"))
    # base 3: the largest allowed exponent passes the cheap bound, and so does
    # the next one, which only the exact bit length rejects
    k = int(n / math.log2(3))
    while (3 ** (k + 1)).bit_length() <= n:
        k += 1
    while (3 ** k).bit_length() > n:
        k -= 1
    three = Ordinal.from_int(3)
    assert int(ord_pow(three, Ordinal.from_int(k))) == 3 ** k
    with pytest.raises(OrdinalError, match="MAX_COEFF_BITS"):
        ord_pow(three, Ordinal.from_int(k + 1))
    # an exponent far past the limit is rejected without building the integer
    with pytest.raises(OrdinalError, match="MAX_COEFF_BITS"):
        ord_pow(three, Ordinal.from_int(10 ** 9))
    # infinite bases keep their coefficients: (w*2)^n = w^n*2
    assert ord_pow(P("w*2"), Ordinal.from_int(10 ** 9)) == P("w^1000000000*2")


def test_pow_term_limit():
    w1 = P("w+1")
    # (w+1)^n has n + 1 terms
    assert len(ord_pow(w1, Ordinal.from_int(MAX_TERMS - 1)).terms) == MAX_TERMS
    for n in (MAX_TERMS, 10 ** 9):
        with pytest.raises(OrdinalError, match=f"MAX_TERMS = {MAX_TERMS}"):
            ord_pow(w1, Ordinal.from_int(n))
    with pytest.raises(OrdinalError, match="MAX_TERMS"):
        ord_pow(w1, P(f"w+{MAX_TERMS}"))
    # (w^2+w+1)^n has 2n + 1 terms: the limit falls between two powers
    a = P("w^2 + w + 1")
    half = (MAX_TERMS - 1) // 2
    assert len(ord_pow(a, Ordinal.from_int(half)).terms) == 2 * half + 1 <= MAX_TERMS
    with pytest.raises(OrdinalError, match="MAX_TERMS"):
        ord_pow(a, Ordinal.from_int(half + 1))


def test_product_coefficient_limit():
    n = MAX_COEFF_BITS
    small, big = n // 2, n - n // 2
    # 2^(small-1) * 2^big has exactly n bits; one more bit is refused unbuilt
    x = Ordinal.from_int(1 << (small - 1))
    assert nat_prod(x, Ordinal.from_int(1 << big)).terms[0][1].bit_length() == n
    assert ord_mul(P("w") * (1 << (small - 1)), Ordinal.from_int(1 << big)) == \
        Ordinal.omega_power(ONE, 1 << (n - 1))
    # all-ones factors of small and big + 1 bits pass the cheap bound, and
    # only the exact bit length of their product (n + 1 bits) refuses it
    x = Ordinal.from_int((1 << small) - 1)
    y = Ordinal.from_int((1 << (big + 1)) - 1)
    for product in (lambda: nat_prod(x, y), lambda: nat_prod(y, x),
                    lambda: ord_mul(ord_mul(OMEGA, x), y),
                    lambda: odot(x, int(y))):
        with pytest.raises(OrdinalError, match=f"MAX_COEFF_BITS = {n}"):
            product()
    assert nat_prod(x, Ordinal.from_int((1 << big) - 1)).terms[0][1].bit_length() == n
    with pytest.raises(OrdinalError, match="MAX_COEFF_BITS"):
        nat_prod(P("w*2 + 1"), Ordinal.from_int(1 << n))


def test_parse_coefficient_limit():
    largest = str((1 << MAX_COEFF_BITS) - 1)
    assert P(largest).terms[0][1].bit_length() == MAX_COEFF_BITS
    assert P("w*" + largest).terms[0][1].bit_length() == MAX_COEFF_BITS
    # leading zeros do not count
    assert P("w*" + "0" * 5000 + "7") == P("w*7")
    too_big = str(1 << MAX_COEFF_BITS)
    for text, at in ((too_big, 0), ("w*" + too_big, 2), ("w^" + too_big, 2),
                     ("w + " + "9" * 5000, 4)):
        with pytest.raises(ParseError, match=f"MAX_COEFF_BITS = {MAX_COEFF_BITS}") as e:
            P(text)
        assert e.value.position == at


def atom_texts(rng, depth=2):
    """Seeded texts of the grammar's atoms: 0, a number, w, w^atom, w^(expr)."""
    kind = rng.randrange(5 if depth else 3)
    if kind == 0:
        return "0"
    if kind == 1:
        return str(rng.getrandbits(rng.choice((3, 64, 5001, 9999))))
    if kind == 2:
        return "w"
    if kind == 3:
        return "w^" + atom_texts(rng, depth - 1)
    return f"w^({format_ordinal(random_ordinal(rng, depth=depth - 1))})"


def test_parse_atom_times_coefficient_matches_ord_mul():
    # the parser scales an atom's one coefficient; ord_mul by the number is the oracle
    rng = random.Random(76)
    over = 0
    for _ in range(3000):
        atom = atom_texts(rng)
        coeff = rng.getrandbits(rng.choice((1, 4, 64, 5006, 9999))) or 1
        text = atom + rng.choice(("*", " * ", "*  ")) + str(coeff)
        try:
            want = ord_mul(P(atom), Ordinal.from_int(coeff))
        except OrdinalError as e:
            over += 1
            with pytest.raises(OrdinalError) as got:
                P(text)
            assert (type(got.value), str(got.value)) == (type(e), str(e)) == (
                OrdinalError,
                f"product coefficient exceeds MAX_COEFF_BITS = {MAX_COEFF_BITS} bits")
            continue
        got = P(text)
        assert type(got) is Ordinal and got._key == want._key, text
    assert over > 50
    # the over-limit edge: 5,001 bits times 5,006 bits
    with pytest.raises(OrdinalError, match=r"^product coefficient exceeds MAX_COEFF_BITS"):
        P(f"{(1 << 5001) - 1}*{(1 << 5006) - 1}")
    # a zero coefficient is refused where it starts, whatever the atom
    for text, at in (("w*0", 2), ("0 * 0", 4), ("w^(w+1)*00", 8), ("5*0 + w", 2)):
        with pytest.raises(ParseError, match="coefficient 0 is not allowed") as e:
            P(text)
        assert e.value.position == at


@given(ordinals(max_terms=2), st.integers(min_value=0, max_value=4))
def test_pow_successor_recursion(a, n):
    b = Ordinal.from_int(n)
    assert ord_pow(a, ord_add(b, ONE)) == ord_mul(ord_pow(a, b), a)
    assert_view_agrees(ord_pow(a, b), ord_pow(a, ord_add(b, ONE)))


def test_pow_infinite_base_against_repeated_mul():
    a = P("w^2 + w")
    sq = ord_mul(a, a)
    assert ord_pow(a, Ordinal.from_int(2)) == sq
    assert ord_pow(a, Ordinal.from_int(3)) == ord_mul(sq, a)
    # degree of a is 2 and 2*w = w, so the powers a^n (degree 2n) climb to w^w
    assert ord_pow(a, OMEGA) == P("w^w")



def ord_pow_by_squaring(a, b):
    """Oracle: ``ord_pow``'s path for an infinite base, which it skips for
    the base w: w^(d * limit part of b) times a^(finite part of b)."""
    inf_part = tuple(t for t in b.terms if not t[0].is_zero)
    fin = b.terms[-1][1] if b.terms and b.terms[-1][0].is_zero else 0
    head = Ordinal.omega_power(ord_mul(a.degree, Ordinal(inf_part))) if inf_part else ONE
    return ord_mul(head, _pow_nat(a, fin)) if fin else head


def test_pow_of_omega_matches_repeated_squaring():
    exps = [ZERO] + [Ordinal.from_int(n) for n in (1, 2, 7, 64, 10**9)]
    exps += [P("w + 1000000000"), P("w^(w+1)*2 + w^3 + 1000000000")]
    rng = random.Random(5)
    exps += [random_ordinal(rng, depth=d) for d in (0, 1, 2) for _ in range(100)]
    for b in exps:
        got, want = ord_pow(OMEGA, b), ord_pow_by_squaring(OMEGA, b)
        assert got.terms == want.terms and got._key == want._key, b
        assert got.terms == ((b, 1),)

# -- natural sum and product ------------------------------------------

def test_nat_sum_worked_example():
    a = P("w^(w+w)*8 + w^7*3")
    b = P("w^w + w^7 + w^2 + 5")
    assert nat_sum(a, b) == P("w^(w+w)*8 + w^w + w^7*4 + w^2 + 5")


def test_nat_sum_zero_identity():
    for a in (ZERO, OMEGA, P("w^3*4+2")):
        assert nat_sum(a, ZERO) == a


def test_nat_sum_two_term_hand_merge():
    # oracle: coefficient merge by hand on two-term normal forms
    assert nat_sum(OMEGA, ONE) == P("w+1")
    assert nat_sum(ONE, OMEGA) == P("w+1")


@given(ordinals(), ordinals(), ordinals())
def test_nat_sum_laws(a, b, c):
    assert nat_sum(a, b) == nat_sum(b, a)
    assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))
    assert_view_agrees(nat_sum(a, b), nat_sum(nat_sum(a, b), c))
    if b < c:
        assert nat_sum(a, b) < nat_sum(a, c)
    assert ord_add(a, b) <= nat_sum(a, b)


def test_nat_prod_examples():
    two = Ordinal.from_int(2)
    assert nat_prod(OMEGA, two) == P("w+w")
    assert nat_prod(two, OMEGA) == P("w+w")
    assert nat_prod(P("w^3+5"), ONE) == P("w^3+5")
    # oracle: the exponent rule agrees with ordinary product on monomials
    assert nat_prod(w_pow(2), w_pow(3)) == ord_mul(w_pow(2), w_pow(3)) == P("w^5")


def test_nat_prod_refuses_more_than_max_product_pairs_of_terms():
    # n interleaved terms by n, every pair a term of its own: accepted at
    # MAX_PRODUCT_PAIRS pairs of terms, refused past it before any pair is
    # multiplied, as a flat sum of one term more than that is by 2
    def interleaved(n):  # w^(w+n) + ... + w^(w+1), and w^(w^n)*3 + ... + w^(w^1)*3
        return (Ordinal(tuple((P(f"w+{k}"), 1) for k in range(n, 0, -1))),
                Ordinal(tuple((P(f"w^{k}"), 3) for k in range(n, 0, -1))))

    b, d = interleaved(50)
    assert 50 * 50 == MAX_PRODUCT_PAIRS
    assert [c for _, c in nat_prod(b, d).terms] == [3] * MAX_PRODUCT_PAIRS
    flat = Ordinal(tuple((Ordinal.from_int(k), 1) for k in range(MAX_PRODUCT_PAIRS + 1, 0, -1)))
    two = Ordinal.from_int(2)
    says = f"^natural product of more than MAX_PRODUCT_PAIRS = {MAX_PRODUCT_PAIRS} pairs of terms$"
    for x, y in [(b, interleaved(51)[1]), interleaved(999), (flat, two), (two, flat)]:
        with pytest.raises(OrdinalError, match=says):
            nat_prod(x, y)
    with pytest.raises(OrdinalError, match=says):
        odot(flat, 2)


@given(ordinals(max_terms=3), ordinals(max_terms=3))
def test_nat_prod_commutative(a, b):
    assert nat_prod(a, b) == nat_prod(b, a)
    assert_view_agrees(nat_prod(a, b))


# -- odot --------------------------------------------------------------

def test_odot_worked_examples():
    assert odot(OMEGA, 2) == P("w+w")
    assert odot(Ordinal.from_int(2), OMEGA) == OMEGA
    assert odot(P("w^2*4 + 3"), 0) == ZERO


def test_odot_matches_iterated_nat_sum():
    rng = random.Random(3)
    for _ in range(100):
        a = random_ordinal(rng)
        acc = ZERO
        for n in range(5):
            assert odot(a, n) == acc
            acc = nat_sum(acc, a)


def test_odot_omega_is_sup_of_finite_multiples():
    rng = random.Random(4)
    for _ in range(60):
        a = random_ordinal(rng)
        limit = odot(a, OMEGA)
        for n in range(1, 6):
            assert odot(a, n) < limit or a.is_zero
        if not a.is_zero:
            # the finite multiples are cofinal below the limit's base power
            assert limit == Ordinal.omega_power(ord_add(a.degree, ONE))


def test_odot_rejects_arguments_beyond_omega():
    with pytest.raises(OrdinalError):
        odot(OMEGA, P("w+1"))
    with pytest.raises(OrdinalError):
        odot(OMEGA, P("w^2"))


def test_odot_on_monomials_matches_ordinary_product():
    rng = random.Random(5)
    for _ in range(60):
        e = random_ordinal(rng, max_terms=2, depth=0)
        n = rng.randint(0, 6)
        m = Ordinal.omega_power(e)
        assert odot(m, n) == ord_mul(m, Ordinal.from_int(n)) == nat_prod(m, Ordinal.from_int(n))


@given(ordinals(), ordinals(max_terms=2))
def test_product_comparison_chain(a, b):
    # a*b <= a(.)b <= a(x)b for finite and omega right arguments
    for right in (ZERO, ONE, Ordinal.from_int(3), OMEGA):
        lhs = ord_mul(a, right)
        mid = odot(a, right)
        rhs = nat_prod(a, right)
        assert lhs <= mid <= rhs


# -- tip and one_plus_inverse ------------------------------------------

def test_tip_worked_examples():
    t = tip_deg(P("w^w*2 + w^7 + w^3*5"))
    assert t.tip == P("w^3")
    assert t.tip_exponent == Ordinal.from_int(3)
    assert t.degree == P("w")
    assert tip_deg(P("w+5")).tip == ONE
    single = tip_deg(P("w^(w+7)"))
    assert single.tip == P("w^(w+7)")
    assert single.tip_exponent == P("w+7")
    assert single.degree == P("w+7")


def test_tip_rejects_zero():
    with pytest.raises(OrdinalError):
        tip_deg(ZERO)


def tip_deg_oracle(a):
    """Oracle: ``tip_deg`` as it was before it built its result without
    Python frames, through ``is_zero``, ``degree``, ``_trusted`` and the
    named tuple's own constructor."""
    if a.is_zero:
        raise OrdinalError("tip of 0 is undefined")
    last = a._key[-1][0]
    return TipInfo(_trusted(((last, 1),)), _trusted(last), a.degree)


def tip_samples():
    rng = random.Random(37)
    xs = [random_ordinal(rng, depth=d) for d in (0, 1, 2) for _ in range(1000)]
    xs += [Ordinal.from_int(n) for n in range(200)] + [Ordinal.from_int(1 << 9999)]
    xs += [Ordinal.omega_power(random_ordinal(rng, depth=d), rng.randint(1, 9))
           for d in (0, 1) for _ in range(300)]
    xs += [nat_sum(Ordinal.omega_power(OMEGA, rng.randint(1, 9)),
                   random_ordinal(rng, max_terms=4, depth=0, max_finite_exp=7))
           for _ in range(500)]
    return xs


def test_tip_deg_matches_its_oracle():
    xs = tip_samples()
    assert sum(x.is_zero for x in xs) > 10
    for x in xs:
        if x.is_zero:
            for fn in (tip_deg, tip_deg_oracle):
                with pytest.raises(OrdinalError, match=r"^tip of 0 is undefined$"):
                    fn(x)
            continue
        got, want = tip_deg(x), tip_deg_oracle(x)
        assert type(got) is TipInfo and got._fields == want._fields
        assert [type(f) for f in got] == [Ordinal] * 3
        assert [f._key for f in got] == [f._key for f in want], x
        assert repr(got) == repr(want) and got == want and hash(got) == hash(want)
        assert (got.tip, got.tip_exponent, got.degree) == tuple(want)


def test_random_ordinal_below_rejects_zero():
    with pytest.raises(OrdinalError, match=r"^no ordinal below 0$"):
        random_ordinal_below(random.Random(0), ZERO)


def test_one_plus_inverse_examples():
    assert one_plus_inverse(Ordinal.from_int(2)) == ONE
    assert one_plus_inverse(P("w+7")) == P("w+7")
    assert one_plus_inverse(Ordinal.from_int(10)) == Ordinal.from_int(9)
    with pytest.raises(OrdinalError):
        one_plus_inverse(ZERO)


@given(ordinals())
def test_one_plus_inverse_solves_equation(r):
    if r.is_zero:
        return
    assert ord_add(ONE, one_plus_inverse(r)) == r


# -- generators used by the property suites ----------------------------

def test_random_ordinal_below_is_below():
    rng = random.Random(11)
    for _ in range(300):
        bound = random_ordinal(rng)
        if bound.is_zero:
            continue
        assert random_ordinal_below(rng, bound) < bound



def randint_random_ordinal(rng, *, max_terms=4, depth=1, max_coeff=9, max_finite_exp=9):
    """Oracle: the generator as first written, drawing with ``randint`` and
    building through the public constructor."""
    k = rng.randint(0, max_terms)
    if k == 0:
        return ZERO
    exps: dict = {}
    attempts = 0
    while len(exps) < k and attempts < 12 * k:
        attempts += 1
        if depth <= 0:
            e = Ordinal.from_int(rng.randint(0, max_finite_exp))
        else:
            e = randint_random_ordinal(rng, max_terms=2, depth=depth - 1,
                                       max_coeff=3, max_finite_exp=max_finite_exp)
        exps.setdefault(e._key, e)
    return Ordinal(tuple((exps[ke], rng.randint(1, max_coeff))
                         for ke in sorted(exps, reverse=True)))


def randint_random_ordinal_below(rng, bound):
    """Oracle: the below-sampler as first written, with ``randrange`` and
    ``randint``."""
    i = rng.randrange(len(bound.terms))
    exp, coeff = bound.terms[i]
    new_coeff = rng.randint(0, coeff - 1)
    terms = list(bound.terms[:i])
    if new_coeff:
        terms.append((exp, new_coeff))
    if not exp.is_zero:
        tail = randint_random_ordinal(rng, max_terms=2, depth=0, max_coeff=3)
        for te, tc in tail.terms:
            if te < exp:
                terms.append((te, tc))
                break
    return Ordinal(tuple(terms))


# every parameter shape the package and the test suites draw with, plus
# finite exponents past the prebuilt ones, wide coefficients, and more terms
# than distinct exponents, where the attempt cap ends the loop
GENERATOR_SHAPES = {
    "defaults, criterion 5": {},
    "criterion 6": dict(max_terms=6, depth=1, max_coeff=6),
    "criterion 9": dict(max_terms=4, depth=0, max_coeff=9, max_finite_exp=7),
    "criterion 10": dict(max_terms=3, depth=1),
    "below-sampler tail": dict(max_terms=2, depth=0, max_coeff=3),
    "depth 2": dict(depth=2),
    "depth 2, 2 terms": dict(max_terms=2, depth=2),
    "test_clopen laminar": dict(max_terms=2, depth=1, max_coeff=2, max_finite_exp=2),
    "depth 0, 3 terms": dict(max_terms=3, depth=0),
    "depth 0, 2 terms": dict(max_terms=2, depth=0),
    "2 terms": dict(max_terms=2),
    "5 terms": dict(max_terms=5),
    "finite exponents past 15": dict(max_terms=5, depth=1, max_finite_exp=40),
    "wide coefficients": dict(max_terms=3, depth=0, max_coeff=10**12),
    "attempt cap": dict(max_terms=6, depth=0, max_finite_exp=3),
    "depth 1, exponents 0": dict(depth=1, max_finite_exp=0),
    "depth 1, exponents 0..1": dict(depth=1, max_finite_exp=1),
    "depth 1, coefficient 1": dict(depth=1, max_coeff=1),
    "no terms": dict(max_terms=0),
    "depth 3": dict(depth=3),
}


@pytest.mark.parametrize("shape", list(GENERATOR_SHAPES.values()), ids=list(GENERATOR_SHAPES))
def test_generators_draw_as_randint_does(shape):
    """Whole sequences of the generator, with the below-sampler drawn from
    the same stream, equal the randint oracles' term for term, and both
    leave the generator in the same state.  A Python whose ``randint`` is
    not ``a + _randbelow(b - a + 1)`` fails here."""
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(40):
            got, want = random_ordinal(rng, **shape), randint_random_ordinal(ref, **shape)
            assert got.terms == want.terms and got._key == want._key, (seed, got, want)
            if not got.is_zero:
                got, want = random_ordinal_below(rng, got), randint_random_ordinal_below(ref, want)
                assert got.terms == want.terms and got._key == want._key, (seed, got, want)
        assert rng.getstate() == ref.getstate(), seed


@pytest.mark.parametrize("shape", [dict(max_terms=-1), dict(max_coeff=0),
                                   dict(depth=0, max_finite_exp=-1)])
def test_generator_empty_ranges_raise(shape):
    # randint raises ValueError at the draw; the generator raises up front
    raised = 0
    for seed in range(10):
        with pytest.raises(ValueError):
            random_ordinal(random.Random(seed), **shape)
        try:
            randint_random_ordinal(random.Random(seed), **shape)
        except ValueError:
            raised += 1
    assert raised > 0

@settings(max_examples=60)
@given(ordinals(), ordinals())
def test_nat_sum_closure_below_power(a, b):
    d = ord_add(nat_sum(a.degree, b.degree), ONE)
    bound = Ordinal.omega_power(d)
    assert a < bound and b < bound
    assert nat_sum(a, b) < bound


# -- decomposability of the natural sum --------------------------------

def test_split_below_examples():
    a, b = P("w^2*2 + 3"), P("w + 1")
    for gamma in (ZERO, P("w^2"), P("w^2*2 + w + 3"), P("w^2 + w + 4"), P("5")):
        left, right = nat_sum_split_below(gamma, a, b, nat_sum(a, b))
        assert nat_sum(left, right) == gamma
        assert left <= a and right <= b


def test_split_below_rejects_values_at_or_above_the_sum():
    with pytest.raises(OrdinalError):
        nat_sum_split_below(P("w*2"), OMEGA, OMEGA, nat_sum(OMEGA, OMEGA))
    with pytest.raises(OrdinalError):
        nat_sum_split_below(P("w^2"), OMEGA, OMEGA, nat_sum(OMEGA, OMEGA))


@given(ordinals(), ordinals(), st.integers(min_value=0, max_value=2**32 - 1))
def test_split_below_property(a, b, gseed):
    s = nat_sum(a, b)
    if s.is_zero:
        return
    gamma = random_ordinal_below(random.Random(gseed), s)
    left, right = nat_sum_split_below(gamma, a, b, nat_sum(a, b))
    assert nat_sum(left, right) == gamma
    assert left <= a and right <= b
    assert_view_agrees(gamma, left, right)


def test_split_below_with_a_wrong_total_raises_or_still_splits():
    # the halves are re-verified, so a wrong total never gives a wrong split
    rng = random.Random(13)
    outcomes = set()
    for _ in range(2000):
        a, b = (random_ordinal(rng, max_terms=3, depth=1, max_coeff=3) for _ in range(2))
        total = random_ordinal(rng, max_terms=3, depth=1, max_coeff=3)
        gamma = random_ordinal(rng, max_terms=3, depth=1, max_coeff=3)
        if total == nat_sum(a, b):
            continue
        try:
            left, right = nat_sum_split_below(gamma, a, b, total)
        except (OrdinalError, AssertionError):
            outcomes.add("raised")
            continue
        assert nat_sum(left, right) == gamma and left <= a and right <= b, (gamma, a, b, total)
        outcomes.add("split")
    assert outcomes == {"raised", "split"}


def split_below_oracle(gamma, a, b):
    """Oracle: ``nat_sum_split_below`` as first written, building both halves
    through the public constructor."""
    s = nat_sum(a, b)
    gi = 0
    diverge = None
    tail = ()
    for es, cs in s.terms:
        if gi < len(gamma.terms) and gamma.terms[gi][0] == es:
            cg = gamma.terms[gi][1]
            if cg == cs:
                gi += 1
                continue
            if cg > cs:
                raise OrdinalError("gamma is not below the natural sum")
            diverge = (es, cg)
            tail = gamma.terms[gi + 1:]
            break
        if gi < len(gamma.terms) and gamma.terms[gi][0] > es:
            raise OrdinalError("gamma is not below the natural sum")
        diverge = (es, 0)
        tail = gamma.terms[gi:]
        break
    if diverge is None:
        raise OrdinalError("gamma is not strictly below the natural sum")
    e, g = diverge
    pa = next((c for ex, c in a.terms if ex == e), 0)
    ga = min(pa, g)
    gb = g - ga
    a_gt = tuple(t for t in a.terms if t[0] > e)
    b_gt = tuple(t for t in b.terms if t[0] > e)
    if ga < pa:
        return (Ordinal(a_gt + (((e, ga),) if ga else ()) + tail),
                Ordinal(b_gt + (((e, gb),) if gb else ())))
    return (Ordinal(a_gt + (((e, ga),) if ga else ())),
            Ordinal(b_gt + (((e, gb),) if gb else ()) + tail))


def test_split_below_halves_match_the_public_construction():
    """Seeded triples in criterion 6's shape and in deeper ones: the halves
    equal the oracle's term for term, and a gamma at or above the sum is
    refused with the oracle's message."""
    rng = random.Random(12)
    shapes = [dict(max_terms=6, depth=1, max_coeff=6), dict(max_terms=3, depth=2),
              dict(max_terms=4, depth=0, max_coeff=2)]
    for trial in range(3000):
        shape = shapes[trial % len(shapes)]
        a, b = random_ordinal(rng, **shape), random_ordinal(rng, **shape)
        s = nat_sum(a, b)
        gammas = [s, nat_sum(s, ONE), random_ordinal(rng, **shape)]
        if not s.is_zero:
            gammas.append(random_ordinal_below(rng, s))
        for gamma in gammas:
            try:
                want = split_below_oracle(gamma, a, b)
            except OrdinalError as err:
                with pytest.raises(OrdinalError, match=str(err)):
                    nat_sum_split_below(gamma, a, b, nat_sum(a, b))
                continue
            got = nat_sum_split_below(gamma, a, b, nat_sum(a, b))
            assert [h.terms for h in got] == [h.terms for h in want], (gamma, a, b)
            assert [h._key for h in got] == [h._key for h in want], (gamma, a, b)


def test_split_below_agrees_with_enumeration_exhaustively():
    """Every gamma of at most 2 terms with coefficients <= 3 over a fixed
    exponent pool, against a fixed grid of a and b: below a(+)b both the
    split and the enumeration oracle find halves; at or above it the split
    refuses and the oracle finds one only for a(+)b itself."""
    exps = [P(e) for e in ("w+1", "w", "2", "1", "0")]
    coeffs = (1, 2, 3)
    gammas = [ZERO] + [Ordinal.omega_power(e, c) for e in exps for c in coeffs]
    gammas += [Ordinal(((e1, c1), (e2, c2))) for e1, e2 in combinations(exps, 2)
               for c1 in coeffs for c2 in coeffs]
    grid = [P(x) for x in ("0", "1", "3", "w", "w*2 + 1", "w^2", "w^2 + w*3 + 2",
                           "w^w", "w^w*2 + w^2 + 1")]
    below = 0
    for a in grid:
        for b in grid:
            s = nat_sum(a, b)
            for gamma in gammas:
                if gamma < s:
                    left, right = nat_sum_split_below(gamma, a, b, nat_sum(a, b))
                    assert nat_sum(left, right) == gamma
                    assert left <= a and right <= b
                    assert _decompose_by_enumeration(gamma, a, b), (gamma, a, b)
                    below += 1
                else:
                    with pytest.raises(OrdinalError):
                        nat_sum_split_below(gamma, a, b, nat_sum(a, b))
                    assert _decompose_by_enumeration(gamma, a, b) == (gamma == s)
    assert below > 2000


# -- additional arithmetic laws ------------------------------------------

@given(ordinals(max_terms=2), ordinals(max_terms=2), ordinals(max_terms=2))
def test_mul_associative(a, b, c):
    assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))
    assert_view_agrees(ord_mul(a, b), ord_mul(ord_mul(a, b), c))


@given(ordinals(max_terms=2), ordinals(max_terms=2), ordinals(max_terms=2))
def test_mul_left_distributes_over_add(a, b, c):
    assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))


@given(ordinals(max_terms=2), ordinals(max_terms=2), ordinals(max_terms=2))
def test_pow_splits_over_exponent_sum(a, b, c):
    assert ord_pow(a, ord_add(b, c)) == ord_mul(ord_pow(a, b), ord_pow(a, c))
    assert_view_agrees(ord_pow(a, b), ord_pow(a, ord_add(b, c)))
