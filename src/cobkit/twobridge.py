"""Two-bridge knot and link invariants from admissible expansions.

A 4-plat presentation P(a1, b1, ..., an) closes to the two-bridge knot
or link S(alpha, beta) where alpha/beta = [a1, 2b1, ..., an].  The plat
is a knot exactly when sum(a_i) is odd.  Orientation convention: S(3, 1)
is the trefoil with signature +2; tables built with the opposite
convention differ from these values by a global sign.
"""

from dataclasses import dataclass

from .contfrac import AdmissibleCF
from .errors import DomainError


def is_knot(cf: AdmissibleCF) -> bool:
    """Whether the plat of cf closes to a knot: sum(a_i) is odd."""
    return sum(cf.a) % 2 == 1


@dataclass(frozen=True)
class OddCounts:
    """Counts of odd a-terms by sign: o+ positive, o- negative."""

    pos: int
    neg: int


@dataclass(frozen=True)
class GenusBound:
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


def signature(cf: AdmissibleCF) -> int:
    """Signature sum(a_i) - sign(a_n); even for knots in this convention."""
    a = cf.a
    return sum(a) - (1 if a[-1] > 0 else -1)


def odd_counts(cf: AdmissibleCF) -> OddCounts:
    a = cf.a
    return OddCounts(
        pos=sum(1 for x in a if x > 0 and x % 2 != 0),
        neg=sum(1 for x in a if x < 0 and x % 2 != 0),
    )


def slice_genus_upper(cf: AdmissibleCF) -> GenusBound:
    """Smooth slice genus bound for a two-bridge knot.

    g <= max(S- + 2o+ - 2, S+ + 2o- - 2) / 4 where S-+ = sum(|a_i| -+ a_i)
    and o+- count odd a-terms by sign.  Equivalently the Seifert genus of
    the reduced diagram, (o+ + o- - 1)/2, plus max(p, n) crossing changes
    with p = (S- - 2o-)/4 and n = (S+ - 2o+)/4.
    """
    if not is_knot(cf):
        raise DomainError("slice_genus_upper requires a knot (sum of a_i odd)")
    a = cf.a
    oc = odd_counts(cf)
    s_minus = sum(abs(x) - x for x in a)
    s_plus = sum(abs(x) + x for x in a)
    pos_changes, rem_p = divmod(s_minus - 2 * oc.neg, 4)
    neg_changes, rem_n = divmod(s_plus - 2 * oc.pos, 4)
    assert rem_p == 0 and rem_n == 0
    seifert_genus, rem_g = divmod(oc.pos + oc.neg - 1, 2)
    assert rem_g == 0
    bound = max(s_minus + 2 * oc.pos - 2, s_plus + 2 * oc.neg - 2)
    value, rem = divmod(bound, 4)
    assert rem == 0 and value >= 0
    assert value == seifert_genus + max(pos_changes, neg_changes)
    return GenusBound(
        value=value,
        pos_changes=pos_changes,
        neg_changes=neg_changes,
        seifert_genus=seifert_genus,
    )
