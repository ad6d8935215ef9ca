"""Exact arithmetic on ordinals below epsilon_0, in Cantor normal form.

An ordinal is a finite sum ``w^e0*c0 + ... + w^ek*ck`` with exponents
``e0 > ... > ek`` (themselves ordinals in normal form) and integer
coefficients ``ci >= 1``; the empty sum is 0.  Structural equality of
normalized terms coincides with equality of ordinal values, so instances
are hashable and usable as dict keys.

An ``Ordinal`` stores its normal form once, as its key: the tuple of
``(exponent key, coefficient)`` pairs, the key of 0 being ``()``.  Every
operation here reads and builds keys; ``Ordinal.terms``, the pairs with
``Ordinal`` exponents, is derived from the key when it is read.

Everything here is immutable and pure: ordinary sum/product/power, the
natural (coefficient-merging) sum, the polynomial natural product, the
iterated-natural-sum product with finite-or-omega right argument, and the
tip/degree decomposition of a normal form.
"""

from __future__ import annotations

import json
import re
from operator import attrgetter
from typing import NamedTuple


class OrdinalError(ValueError):
    """Domain error for ordinal operations."""


class ParseError(OrdinalError):
    """Malformed ordinal expression; ``position`` is the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Record:
    """Base of the package's value classes.  A subclass names its fields in
    ``_fields`` and sets them in its own ``__init__`` with ``_put``;
    ``Record`` gives ``==`` by class and by those fields, ``hash`` and
    ``repr`` over them, and refuses assignment and deletion.  It replaces
    the standard library's data classes, whose module loads ``inspect``:
    with the class decorations, about 14 ms of every fresh process."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        if len(cls._fields) > 1:  # the values in one C call
            cls._values = property(attrgetter(*cls._fields))

    @property
    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle: a dict, or (None, slots) when slotted
        for name, value in (state if type(state) is dict else state[1]).items():
            _put(self, name, value)


_put = object.__setattr__
_FRESH = object()  # a default that stands for a new {} per instance


class Ordinal(Record):
    """Cantor normal form, stored as its key alone.

    ``Ordinal(terms)`` takes a sequence of (exponent, coefficient) pairs
    with ``Ordinal`` exponents, checks it and stores only
    ``_key = tuple((e._key, c) for e, c in terms)``.  Plain tuple order on
    keys is exactly the normal-form order, so comparison, equality and
    hashing run on the key and never walk the exponents in Python.
    ``terms`` is a view that rebuilds the pairs from the key when read.
    """

    __slots__ = ("_key",)

    def __init__(self, terms=()):
        key = []
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise OrdinalError("exponent must be an Ordinal")
            _check_coeff(coeff)
            key.append((exp._key, coeff))
        for (k1, _), (k2, _) in zip(key, key[1:]):
            if k1 <= k2:
                raise OrdinalError("exponents must strictly decrease")
        _set_key(self, tuple(key))

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if not _is_int(n):
            raise OrdinalError("coefficient must be an integer >= 1")
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        return _trusted(_nat(n)) if n else ZERO

    @classmethod
    def omega_power(cls, exponent: "Ordinal", coeff: int = 1) -> "Ordinal":
        # one term is always in normal form: only the inputs need checking
        if not isinstance(exponent, Ordinal):
            raise OrdinalError("exponent must be an Ordinal")
        _check_coeff(coeff)
        return _trusted(((exponent._key, coeff),))

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (exponent, coefficient) pairs, exponents as ``Ordinal``."""
        return tuple((_trusted(k), c) for k, c in self._key)

    @property
    def is_zero(self) -> bool:
        return not self._key

    @property
    def is_finite(self) -> bool:
        return not self._key or not self._key[0][0]

    def __int__(self) -> int:
        if not self.is_finite:
            raise OrdinalError(f"{self} is not finite")
        return self._key[0][1] if self._key else 0

    @property
    def degree(self) -> "Ordinal":
        """Leading exponent; 0 for finite ordinals (including 0)."""
        return _trusted(self._key[0][0]) if self._key else ZERO

    @property
    def leading_coeff(self) -> int:
        return self._key[0][1] if self._key else 0

    # -- comparisons and operators -----------------------------------

    def __eq__(self, other):
        if other.__class__ is Ordinal:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return self._key < (other if other.__class__ is Ordinal else _coerce(other))._key

    def __le__(self, other):
        return self._key <= (other if other.__class__ is Ordinal else _coerce(other))._key

    def __gt__(self, other):
        return self._key > (other if other.__class__ is Ordinal else _coerce(other))._key

    def __ge__(self, other):
        return self._key >= (other if other.__class__ is Ordinal else _coerce(other))._key

    def __add__(self, other):
        return ord_add(self, _coerce(other))

    def __radd__(self, other):
        return ord_add(_coerce(other), self)

    def __mul__(self, other):
        return ord_mul(self, _coerce(other))

    def __rmul__(self, other):
        return ord_mul(_coerce(other), self)

    def __pow__(self, other):
        return ord_pow(self, _coerce(other))

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ord({format_ordinal(self)})"


def _is_int(x) -> bool:
    """An int that is not a bool, which ``isinstance(x, int)`` admits."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_coeff(c) -> None:
    if not _is_int(c) or c < 1:
        raise OrdinalError("coefficient must be an integer >= 1")


def _coerce(x) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if _is_int(x):
        return Ordinal.from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


_new = object.__new__
_set_key = Ordinal._key.__set__


def _trusted(key: tuple) -> Ordinal:
    """Internal constructor from a key, the one stored form, whose normal
    form is guaranteed by how it was built.  Skips the checks of the
    public constructor."""
    o = _new(Ordinal)
    _set_key(o, key)
    return o


def _nat(n: int) -> tuple:
    """Key of the natural number ``n``."""
    return (((), n),) if n else ()


sort_key = attrgetter("_key")
"""Key function: ``sorted(xs, key=sort_key)`` sorts ordinals ascending."""

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


# -- comparison ------------------------------------------------------

def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    """Total order on normal forms: -1 (LT), 0 (EQ) or 1 (GT)."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


# -- ordinary arithmetic ---------------------------------------------

def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum: terms of ``a`` below the degree of ``b`` are absorbed."""
    return _trusted(_add(a._key, b._key))


def _add(ka: tuple, kb: tuple) -> tuple:
    # ord_add on keys
    if not kb:
        return ka
    ke = kb[0][0]
    keep = 0
    for k, coeff in ka:
        if k > ke:
            keep += 1
        else:
            if k == ke:
                return ka[:keep] + ((ke, coeff + kb[0][1]),) + kb[1:]
            break
    return ka[:keep] + kb


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product, distributing ``a`` over the normal form of ``b``."""
    return _trusted(_mul(a._key, b._key))


def _mul(ka: tuple, kb: tuple) -> tuple:
    # ord_mul on keys, for a = w^d * lead + tail.  Each piece of the product
    # lies below the pieces before it, so they are concatenated: w^(d + e) * c
    # for each infinite term w^e * c of b (d + e falls as e falls), then, for
    # a finite last term n, w^d * (lead * n) + tail
    if not ka:
        return ka
    (kd, lead), tail = ka[0], ka[1:]
    out = tuple([(_add(kd, ke), c) for ke, c in kb if ke])
    if kb and not kb[-1][0]:
        out += ((kd, _coeff_mul(lead, kb[-1][1])),) + tail
    return out


MAX_COEFF_BITS = 10_000
"""Largest bit length of a coefficient that ``parse_ordinal`` reads, that
``ord_mul`` and ``nat_prod`` build as a product of two coefficients, and
of the finite factor ``k ** n`` that ``ord_pow`` computes for a finite
base ``k``.

The limit keeps these operations from building unbounded integers, and
sits below Python's 4300-digit limit on integer-to-string conversion
(10 000 bits are 3011 decimal digits), so every coefficient it allows, and
the sum of two of them, can be printed.  A larger coefficient raises
``OrdinalError`` (``ParseError`` in the parser) before it is computed.
"""

MAX_TERMS = 1_000
"""Most terms that ``ord_pow`` builds for an infinite base.

``(w+1)^n`` has ``n + 1`` terms, so an unchecked power could ask for a
billion terms.
The power is built by repeated squaring, and each partial power has at
most as many terms as the result, so a power over the limit is refused as
soon as a partial power passes it, with an ``OrdinalError``.
"""

# pairs of terms nat_prod multiplies: two 50-term operands, as perfbench's wide products are; the
# slowest accepted shape, a 2,500-term sum times 2, takes about 0.5 s in process
MAX_PRODUCT_PAIRS = 50 * 50


def _coeff_mul(x: int, y: int) -> int:
    """``x * y``, refused when it exceeds ``MAX_COEFF_BITS`` bits.

    ``bits(x) + bits(y) - 1 <= bits(x * y) <= bits(x) + bits(y)``, so a
    product over the limit is mostly rejected unbuilt, and one that is
    built has at most twice the limit's bits.
    """
    c = x * y if x.bit_length() + y.bit_length() - 1 <= MAX_COEFF_BITS else None
    if c is None or c.bit_length() > MAX_COEFF_BITS:
        raise OrdinalError(f"product coefficient exceeds MAX_COEFF_BITS = {MAX_COEFF_BITS} bits")
    return c


def _pow_nat(a: Ordinal, n: int) -> Ordinal:
    """``a ^ n`` for an infinite ``a`` and ``n >= 1``, by repeated squaring.

    The number of terms of ``a ^ m`` never falls as ``m`` grows, and every
    partial power here is ``a ^ m`` with ``m <= n`` (the base is not
    squared past the top bit of ``n``), so checking each one against
    ``MAX_TERMS`` refuses exactly the powers whose result is over it.
    """
    result = None
    base = a._key
    while True:
        if n & 1:
            result = base if result is None else _mul(result, base)
            if len(result) > MAX_TERMS:
                break
        n >>= 1
        if not n:
            return _trusted(result)
        base = _mul(base, base)
        if len(base) > MAX_TERMS:
            break
    raise OrdinalError(f"power exceeds MAX_TERMS = {MAX_TERMS} terms")


def ord_pow(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal exponentiation (with 0^0 = 1).

    For a finite base ``k`` the result carries the integer ``k ** n``, where
    ``n`` is the finite part of ``b``; it raises ``OrdinalError`` when that
    integer would exceed ``MAX_COEFF_BITS`` bits.  For an infinite base it
    raises ``OrdinalError`` when the result would have more than
    ``MAX_TERMS`` terms.
    """
    if b.is_zero:
        return ONE
    if a.is_zero:
        return ZERO
    if a == ONE:
        return ONE
    if a == OMEGA:
        return Ordinal.omega_power(b)
    # only the last term of b can be finite
    kb = b._key
    inf_part, fin = (kb[:-1], kb[-1][1]) if not kb[-1][0] else (kb, 0)
    if a.is_finite:
        k = int(a)
        # with b = k.bit_length() >= 2, (b - 1) * fin < bit_length(k ** fin)
        # <= b * fin: a power over the limit is rejected unbuilt, and one
        # that is built has fewer than twice the limit's bits
        factor = k ** fin if (k.bit_length() - 1) * fin < MAX_COEFF_BITS else None
        if factor is None or factor.bit_length() > MAX_COEFF_BITS:
            raise OrdinalError(f"power coefficient exceeds MAX_COEFF_BITS = {MAX_COEFF_BITS} bits")
        if not inf_part:
            return Ordinal.from_int(factor)
        # k^(w^e * q) = w^(w^d * q) where 1 + d = e; 1 + d = e is
        # one-to-one, so the exponents w^d * q still strictly decrease
        head = ((tuple((one_plus_inverse(_trusted(ke))._key, q) for ke, q in inf_part), 1),)
        return _trusted(_mul(head, _nat(factor)))
    head = _trusted(((_mul(a._key[0][0], inf_part), 1),)) if inf_part else ONE
    return ord_mul(head, _pow_nat(a, fin)) if fin else head


# -- natural (Hessenberg) operations ---------------------------------

def _merge(ka: tuple, kb: tuple) -> tuple:
    """Merge two keys, adding the coefficients of equal exponents: the key
    of the natural sum."""
    key = []
    i = j = 0
    na, nb = len(ka), len(kb)
    while i < na and j < nb:
        ea, eb = ka[i][0], kb[j][0]
        if ea == eb:
            key.append((ea, ka[i][1] + kb[j][1]))
            i += 1
            j += 1
        elif ea > eb:
            key.append(ka[i])
            i += 1
        else:
            key.append(kb[j])
            j += 1
    return (*key, *ka[i:], *kb[j:])


def nat_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Natural sum: coefficient-wise addition over the merged exponents."""
    if not b._key:
        return a
    if not a._key:
        return b
    return _trusted(_merge(a._key, b._key))


def nat_prod(a: Ordinal, b: Ordinal) -> Ordinal:
    """Natural product: multiply normal forms as polynomials in w.

    Each term of ``a`` times ``b`` is a row already sorted by exponent
    (natural sum is strictly monotone), and the rows are merged in turn.
    Raises ``OrdinalError`` when the operands have more than
    ``MAX_PRODUCT_PAIRS`` pairs of terms, before any is multiplied, or when
    a product of two coefficients would exceed ``MAX_COEFF_BITS`` bits.
    """
    if len(a._key) * len(b._key) > MAX_PRODUCT_PAIRS:
        raise OrdinalError(
            f"natural product of more than MAX_PRODUCT_PAIRS = {MAX_PRODUCT_PAIRS} pairs of terms")
    key = ()
    for ea, ca in a._key:
        key = _merge(key, tuple((_merge(ea, eb), _coeff_mul(ca, cb)) for eb, cb in b._key))
    return _trusted(key)


def nat_sum_split_below(gamma: Ordinal, a: Ordinal, b: Ordinal, total: Ordinal):
    """Split gamma < a(+)b as gamma = a'(+)b' with a' <= a and b' <= b,
    given ``total = nat_sum(a, b)``.

    Walks the normal form of the total to the first exponent where gamma
    falls short, splits the coefficient there between the two sides, and
    hands gamma's free tail to whichever side was strictly reduced.  The
    halves are re-verified before returning, so a wrong total cannot give
    a wrong split: it raises, or the halves still sum to gamma within a
    and b.
    """
    gk = gamma._key
    gi = 0
    for si, (ks, cs) in enumerate(total._key):
        if gi < len(gk) and gk[gi][0] == ks:
            g = gk[gi][1]
            if g == cs:
                gi += 1
                continue
            if g > cs:
                raise OrdinalError("gamma is not below the natural sum")
            tail = gi + 1
            break
        if gi < len(gk) and gk[gi][0] > ks:
            raise OrdinalError("gamma is not below the natural sum")
        g, tail = 0, gi
        break
    else:
        raise OrdinalError("gamma is not strictly below the natural sum")
    ke = total._key[si][0]

    def half(x, c, t):
        # x's terms above e, then (e, c), then gamma's terms from t on, all below e
        n = next((i for i, (k, _) in enumerate(x._key) if k <= ke), len(x._key))
        key = x._key[:n] + ((ke, c),) if c else x._key[:n]
        return _trusted(key + gk[t:])

    pa = next((c for k, c in a._key if k == ke), 0)
    ga = min(pa, g)
    # gamma's tail goes to the side that was strictly reduced
    a_half = half(a, ga, tail if ga < pa else len(gk))
    b_half = half(b, g - ga, len(gk) if ga < pa else tail)
    if nat_sum(a_half, b_half) != gamma or not (a_half <= a and b_half <= b):
        raise AssertionError("split verification failed")
    return a_half, b_half


def odot(a: Ordinal, b) -> Ordinal:
    """Iterated natural sum of ``a``: a(.)0 = 0, a(.)(n+1) = (a(.)n) (+) a,
    and a(.)w is the supremum of the a(.)n.

    The right argument is an int or an ``Ordinal`` no larger than omega;
    anything between omega and epsilon_0 is rejected as unsupported.
    """
    n = _coerce(b)
    if n == OMEGA:
        if a.is_zero:
            return ZERO
        return Ordinal.omega_power(ord_add(a.degree, ONE))
    if not n.is_finite:
        raise OrdinalError(f"{n} is neither finite nor omega")
    # n-fold natural sum = coefficient-wise scaling
    return nat_prod(a, n)


class TipInfo(NamedTuple):
    tip: Ordinal
    tip_exponent: Ordinal
    degree: Ordinal


def tip_deg(a: Ordinal) -> TipInfo:
    """Last block w^(e_last) of the normal form, its exponent, and the degree.

    The tip exponent is the Cantor-Bendixson rank of ``a`` as a point of any
    ordinal interval containing it.
    """
    key = a._key
    if not key:
        raise OrdinalError("tip of 0 is undefined")
    last = key[-1][0]
    # the three ordinals and the named tuple built as _trusted and TipInfo() would,
    # without their Python frames: criteria 10 and 11 call this in their inner loops
    tip, exp, deg = _new(Ordinal), _new(Ordinal), _new(Ordinal)
    _set_key(tip, ((last, 1),))
    _set_key(exp, last)
    _set_key(deg, key[0][0])
    return tuple.__new__(TipInfo, (tip, exp, deg))


def one_plus_inverse(r: Ordinal) -> Ordinal:
    """The unique a with 1 + a = r (requires r >= 1)."""
    if r.is_zero:
        raise OrdinalError("no ordinal a satisfies 1 + a = 0")
    if r.is_finite:
        return Ordinal.from_int(int(r) - 1)
    return r


# -- parsing and formatting ------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr := term ('+' term)*
#   term := atom ('*' nat)?
#   atom := '0' | nat | 'w' | 'w^' atom | 'w^(' expr ')'
#   nat  := [0-9]+   (ASCII digits only)

MAX_NESTING = 100
"""Deepest tower of ``w^`` exponents that ``parse_ordinal`` accepts.

The parser, the formatter and tuple comparison of keys all recurse once per
level, so an unbounded tower would end in ``RecursionError``.  A deeper
input is rejected with a ``ParseError`` at the ``w`` that opens the first
level too many.
"""


class JSONDepthError(ValueError):
    """JSON input nested deeper than the decoder can recurse."""


def loads_json(text: str):
    """``json.loads``, with a decoder recursion overflow as an input error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise JSONDepthError("JSON nested too deep to decode") from None


_JSON = json.JSONDecoder()


def loads_json_at(text: str, pos: int) -> tuple:
    """The JSON value that starts at ``text[pos]`` and the index just past
    it, with a decoder recursion overflow as an input error."""
    try:
        return _JSON.raw_decode(text, pos)
    except RecursionError:
        raise JSONDepthError("JSON nested too deep to decode") from None


_MAX_COEFF_DIGITS = len(str(1 << MAX_COEFF_BITS))
_DIGITS = re.compile("[0-9]+")


def parse_ordinal(text: str) -> Ordinal:
    """Parse an expression of the grammar above into normal form.

    Raises ``ParseError`` with the failing position on malformed input, on
    exponents nested more than ``MAX_NESTING`` deep and on a number of more
    than ``MAX_COEFF_BITS`` bits.
    """
    return _parse_whole(text, _Parser.parse_expr)


def parse_natural(text: str, start: int = 0) -> int:
    """Parse ``text[start:]`` as a natural number the way ``parse_ordinal``
    reads one: ASCII decimal digits with optional surrounding whitespace,
    at most ``MAX_COEFF_BITS`` bits, else ``ParseError`` at a position
    counted from the start of ``text``."""
    return _parse_whole(text, _Parser.parse_nat, start)


def parse_naturals(text: str, start: int = 0) -> list:
    """The naturals of the comma-separated list ``text[start:]``, each read
    as ``parse_natural`` reads one; blank items are skipped.  A
    ``ParseError`` counts its position from the start of ``text``."""
    return _parse_list(text, _Parser.parse_nat, start)


def parse_ordinals(text: str) -> list:
    """The ordinals of a comma-separated list, read as ``parse_naturals`` reads naturals."""
    return _parse_list(text, _Parser.parse_expr)


def _parse_list(text: str, item, start: int = 0) -> list:
    parser = _Parser(text, start)
    values = []
    while True:
        parser.skip_ws()
        if parser.peek() not in (",", ""):
            values.append(item(parser))
            parser.skip_ws()
        if not parser.peek():
            return values
        if parser.peek() != ",":
            raise ParseError("expected ','", parser.pos)
        parser.pos += 1


def _parse_whole(text: str, rule, start: int = 0):
    parser = _Parser(text, start)
    value = rule(parser)
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise ParseError("unexpected trailing input", parser.pos)
    return value


class _Parser:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str, where: str, error: type) -> None:
        """Move past ``ch``, the next character after whitespace, and past
        any whitespace after it; else raise ``error`` naming the position."""
        self.skip_ws()
        if self.peek() != ch:
            raise error(f"expected {ch!r} {where} at position {self.pos}")
        self.pos += 1
        self.skip_ws()

    def parse_expr(self) -> Ordinal:
        value = self.parse_term()
        while True:
            self.skip_ws()
            if self.peek() == "+":
                self.pos += 1
                value = ord_add(value, self.parse_term())
            else:
                return value

    def parse_term(self) -> Ordinal:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "*":
            self.pos += 1
            self.skip_ws()
            at = self.pos
            coeff = self.parse_nat()
            if coeff == 0:
                raise ParseError("coefficient 0 is not allowed", at)
            # an atom is one term (0, n or w^e), so atom*c scales its coefficient
            key = atom._key
            return _trusted(((key[0][0], _coeff_mul(key[0][1], coeff)),)) if key else atom
        return atom

    def parse_atom(self) -> Ordinal:
        self.skip_ws()
        ch = self.peek()
        if ch == "w":
            at = self.pos
            self.pos += 1
            if self.peek() == "^":
                if self.depth == MAX_NESTING:
                    raise ParseError(f"exponents nested deeper than MAX_NESTING = {MAX_NESTING}",
                                     at)
                self.depth += 1
                self.pos += 1
                self.skip_ws()
                if self.peek() == "(":
                    self.pos += 1
                    exp = self.parse_expr()  # which ends past any whitespace
                    if self.peek() != ")":
                        raise ParseError("expected ')'", self.pos)
                    self.pos += 1
                else:
                    exp = self.parse_atom()
                self.depth -= 1
                return Ordinal.omega_power(exp)
            return OMEGA
        if "0" <= ch <= "9":
            return Ordinal.from_int(self.parse_nat())
        raise ParseError("expected '0', a number, or 'w'", self.pos)

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        match = _DIGITS.match(self.text, start)
        if match is None:
            raise ParseError("expected a number", start)
        self.pos = match.end()
        # more digits than the largest allowed value has: refused unconverted
        digits = match[0].lstrip("0") or "0"
        if len(digits) > _MAX_COEFF_DIGITS or int(digits).bit_length() > MAX_COEFF_BITS:
            raise ParseError(f"number exceeds MAX_COEFF_BITS = {MAX_COEFF_BITS} bits",
                             start)
        return int(digits)


def format_ordinal(a: Ordinal, compact: bool = False) -> str:
    """Canonical rendering; parse_ordinal(format_ordinal(a)) == a.

    Terms are joined with ' + ' at the top level and with a compact '+'
    inside parenthesized exponents; ``compact=True`` uses '+' throughout
    (for embedding in larger expressions).
    """
    return _format(a._key, compact=compact)


def _format(key: tuple, compact: bool) -> str:
    if not key:
        return "0"
    parts = []
    for ke, coeff in key:
        if not ke:
            parts.append(str(coeff))
            continue
        if ke == ONE._key:
            base = "w"
        elif not ke[0][0]:
            base = f"w^{ke[0][1]}"
        elif ke == OMEGA._key:
            base = "w^w"
        else:
            base = f"w^({_format(ke, compact=True)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return ("+" if compact else " + ").join(parts)


# -- seeded generation (for property suites and the CLI self test) ----

def random_ordinal(rng, *, max_terms: int = 4, depth: int = 1,
                   max_coeff: int = 9, max_finite_exp: int = 9) -> Ordinal:
    """Random normalized ordinal with at most ``max_terms`` terms.

    ``depth`` bounds the nesting of exponents: at depth 0 all exponents
    are finite.  The seed fixes the ordinals.  Each draw from ``range(n)``
    is ``rng.getrandbits(n.bit_length())``, repeated until it falls below
    ``n``: the rejection loop ``rng.randint`` makes on CPython 3.10-3.13.
    So a seed gives the ordinals that drawing with ``randint`` in the same
    order gives, and leaves ``rng`` in the same state.  An empty range
    raises ``ValueError`` up front, where ``randint`` did at a draw.
    """
    if max_terms < 0 or max_coeff < 1 or max_finite_exp < 0:
        raise ValueError("empty range for random_ordinal")
    return _trusted(_random_key(rng.getrandbits, max_terms + 1, depth, max_coeff,
                                max_finite_exp + 1))


def _random_key(bits, n_terms, depth, n_coeffs, n_finite):
    # the key of random_ordinal, with each range given by its size; a draw
    # from range(n) is bits(n.bit_length()) until below n (CPython's _randbelow)
    w = n_terms.bit_length()
    k = bits(w)
    while k >= n_terms:
        k = bits(w)
    if k == 0:
        return ()
    wf = n_finite.bit_length()
    exps = set()
    attempts = 12 * k
    while len(exps) < k and attempts:
        attempts -= 1
        if depth <= 0:
            n = bits(wf)
            while n >= n_finite:
                n = bits(wf)
            exps.add(_nat(n))
        elif depth > 1:
            exps.add(_random_key(bits, 3, depth - 1, 3, n_finite))  # <= 2 terms, coeffs <= 3
        else:
            # _random_key(bits, 3, 0, 3, n_finite) unrolled: w^n*c for
            # j = 1, and for j = 2 also + w^m*d (n != m) unless 24 attempts
            # draw one exponent only
            j = bits(2)
            while j == 3:
                j = bits(2)
            if j == 0:
                exps.add(())
                continue
            n = m = bits(wf)
            while n >= n_finite:
                n = m = bits(wf)
            if j == 2:
                for _ in range(23):
                    m = bits(wf)
                    while m >= n_finite:
                        m = bits(wf)
                    if m != n:
                        break
            c = bits(2)
            while c == 3:
                c = bits(2)
            if m == n:
                exps.add(((_nat(n), c + 1),))
                continue
            d = bits(2)
            while d == 3:
                d = bits(2)
            # the first coefficient drawn goes with the larger exponent
            exps.add(((_nat(max(n, m)), c + 1), (_nat(min(n, m)), d + 1)))
    w = n_coeffs.bit_length()
    key = []
    for ke in sorted(exps, reverse=True):
        c = bits(w)
        while c >= n_coeffs:
            c = bits(w)
        key.append((ke, c + 1))
    return tuple(key)


def random_ordinal_below(rng, bound: Ordinal) -> Ordinal:
    """Random ordinal strictly below ``bound`` (which must be positive),
    with draws as in ``random_ordinal``."""
    kb = bound._key
    if not kb:
        raise OrdinalError("no ordinal below 0")
    bits = rng.getrandbits
    n = len(kb)
    w = n.bit_length()
    i = bits(w)
    while i >= n:
        i = bits(w)
    ke, coeff = kb[i]
    w = coeff.bit_length()
    new_coeff = bits(w)
    while new_coeff >= coeff:
        new_coeff = bits(w)
    key = kb[:i] + ((ke, new_coeff),) if new_coeff else kb[:i]
    if ke:
        # any tail below w^exp keeps the value below bound
        tail = _random_key(bits, 3, 0, 3, 10)  # random_ordinal(max_terms=2, depth=0, max_coeff=3)
        for kt in tail:
            if kt[0] < ke:
                return _trusted(key + (kt,))
    return _trusted(key)


# -- check reports ----------------------------------------------------------

class CheckReport(Record):
    """Outcome of one check, the single report shape of every layer.

    ``witness`` backs the verdict: for most checks the first violation
    found, None when there is none.  ``data`` holds the extra keys the
    check prints, already JSON-ready (ordinals formatted, witnesses as
    printed), so ``to_json()`` is ``{"check", "pass", "witness"}`` plus
    ``data``.
    """

    __slots__ = _fields = ("check", "passed", "witness", "data")

    def __init__(self, check: str, passed: bool, witness=None, data: dict = _FRESH):
        _put(self, "check", check)
        _put(self, "passed", passed)
        _put(self, "witness", witness)
        _put(self, "data", {} if data is _FRESH else data)

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed, "witness": self.witness,
                **self.data}
