"""Two-bridge knot and link invariants from admissible expansions.

A 4-plat presentation P(a1, b1, ..., an) closes to the two-bridge knot
or link S(alpha, beta) where alpha/beta = [a1, 2b1, ..., an].  The plat
is a knot exactly when sum(a_i) is odd.  Orientation convention: S(3, 1)
is the trefoil with signature +2; tables built with the opposite
convention differ from these values by a global sign.  plat_invariants
reads every invariant of a record's plat from one tally of its a-terms;
the lens rows read the signature and the genus bound from the tally of
a walk or a record through _tally_invariants.
"""

from typing import NamedTuple

from .contfrac import AdmissibleCF
from .errors import DomainError


class GenusBound(NamedTuple):
    """Smooth slice genus upper bound with its crossing-change data.

    pos_changes and neg_changes count the positive-to-negative and
    negative-to-positive crossing changes that unknot the reduced
    alternating-band diagram; seifert_genus is the genus of the Seifert
    surface of that reduced diagram.
    """

    value: int
    pos_changes: int
    neg_changes: int
    seifert_genus: int


class PlatInvariants(NamedTuple):
    """The invariants of the plat of an expansion, in the order the
    twobridge verb prints them: the knot test, the signature, the
    determinant alpha, the counts of odd a-terms by sign and the slice
    genus bound, None for a link."""

    is_knot: bool
    signature: int
    determinant: int
    odd_positive: int
    odd_negative: int
    slice_genus_upper: GenusBound | None


def plat_invariants(cf: AdmissibleCF) -> PlatInvariants:
    """The invariants of the plat of cf from one tally of its a-terms.

    The plat is a knot when sum(a_i) is odd, and its signature is
    sum(a_i) - sign(a_n), even for a knot.  A knot's slice genus is at
    most max(S- + 2o+ - 2, S+ + 2o- - 2) / 4 where S-+ = sum(|a_i| -+ a_i)
    and o+- count odd a-terms by sign.  Equivalently the Seifert genus of
    the reduced diagram, (o+ + o- - 1)/2, plus max(p, n) crossing changes
    with p = (S- - 2o-)/4 and n = (S+ - 2o+)/4.
    """
    tally = _tally(cf.a)
    total = (tally[1] - tally[0]) // 2  # sum(a), odd for a knot
    genus = GenusBound(*_tally_invariants(tally, cf.a[-1])[1:]) if total % 2 else None
    return PlatInvariants(genus is not None, _sigma(total, cf.a[-1]), cf.alpha, *tally[2:], genus)


def _sigma(total: int, last: int) -> int:
    """The signature from sum(a) and the last a-term."""
    return total - (1 if last > 0 else -1)


def _tally(a) -> tuple[int, int, int, int]:
    """(S-, S+, o+, o-) in one pass over nonzero a-terms: S-+ =
    sum(|a_i| -+ a_i) and o+- the counts of odd a-terms by sign."""
    s_minus = s_plus = o_pos = o_neg = 0
    for x in a:
        if x > 0:
            s_plus += x
            o_pos += x & 1
        else:
            s_minus -= x
            o_neg += x & 1
    return 2 * s_minus, 2 * s_plus, o_pos, o_neg


def _tally_invariants(tally, last: int) -> tuple[int, int, int, int, int]:
    """The signature and the fields of a knot's GenusBound, checked, from
    the tally (S-, S+, o+, o-) of an expansion's a-terms and its last
    a-term, or only a_n > 0, which is all the signature reads:
    sum(a) = (S+ - S-)/2 gives the knot test and the signature.  The one
    such function: plat_invariants reads a record's tally, and the lens
    rows the tally of a walk or a record.  A link's tally is refused:
    the bound is a knot's."""
    s_minus, s_plus, o_pos, o_neg = tally
    total = (s_plus - s_minus) // 2
    if total % 2 != 1:
        raise DomainError("slice_genus_upper requires a knot (sum of a_i odd)")
    pos_changes, rem_p = divmod(s_minus - 2 * o_neg, 4)
    neg_changes, rem_n = divmod(s_plus - 2 * o_pos, 4)
    assert rem_p == 0 and rem_n == 0
    seifert_genus, rem_g = divmod(o_pos + o_neg - 1, 2)
    assert rem_g == 0
    bound = max(s_minus + 2 * o_pos - 2, s_plus + 2 * o_neg - 2)
    value, rem = divmod(bound, 4)
    assert rem == 0 and value >= 0
    assert value == seifert_genus + max(pos_changes, neg_changes)
    return _sigma(total, last), value, pos_changes, neg_changes, seifert_genus
