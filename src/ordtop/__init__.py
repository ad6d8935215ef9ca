"""Symbolic calculus for scattered ordered spaces: exact ordinal
arithmetic, finite-poset downset machinery, hyperspaces of downsets,
clopen interval algebra of ordinal spaces, and almost disjoint families.
"""

from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    ParseError,
    format_ordinal,
    nat_prod,
    nat_sum,
    odot,
    one_plus_inverse,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_pow,
    parse_ordinal,
    tip_deg,
)

__version__ = "0.1.0"
