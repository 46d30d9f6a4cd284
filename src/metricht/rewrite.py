"""Equivalence-preserving formula transformations.

All passes are pure tree rewrites.  bool_dual, time_swap and push_negation
are sound on arbitrary traces; range_split, unfold_next, one_step_eliminate
and to_unary_nf assume strict timing (consecutive states carry distinct time
stamps), which is the regime the bounded search uses by default.
"""

from __future__ import annotations

from functools import reduce

from .syntax import (
    And, Atom, BOT, Bottom, Formula, FULL, Interval, Next, Or, Prev, Release,
    Since, Trigger, TRUE, Until, always, eventually, historically,
    KERNEL_BINARY, map_children, match_not, match_weak_next, match_weak_prev,
    neg, once, weak_next, weak_prev,
)

_DUAL_BINARY = {Until: Release, Release: Until, Since: Trigger, Trigger: Since}
_SWAP = {Until: Since, Since: Until, Release: Trigger, Trigger: Release,
         Next: Prev, Prev: Next}


def bool_dual(phi: Formula) -> Formula:
    """Swap every connective with its dual; an involution on its domain.

    Dual pairs: truth/falsum, and/or, until/release, since/trigger, one-step
    with weak one-step (same time direction).  Defined only for formulas
    without implication; the truth constant and the weak one-step patterns
    are the only implication-shaped subtrees accepted.
    """
    if phi == TRUE:
        return BOT
    if isinstance(phi, Bottom):
        return TRUE
    if isinstance(phi, Atom):
        return phi
    wk = match_weak_next(phi)
    if wk is not None:
        return Next(wk[0], bool_dual(wk[1]))
    wk = match_weak_prev(phi)
    if wk is not None:
        return Prev(wk[0], bool_dual(wk[1]))
    if isinstance(phi, And):
        return Or(bool_dual(phi.lhs), bool_dual(phi.rhs))
    if isinstance(phi, Or):
        return And(bool_dual(phi.lhs), bool_dual(phi.rhs))
    if isinstance(phi, Next):
        return weak_next(phi.interval, bool_dual(phi.arg))
    if isinstance(phi, Prev):
        return weak_prev(phi.interval, bool_dual(phi.arg))
    if isinstance(phi, KERNEL_BINARY):
        return _DUAL_BINARY[type(phi)](phi.interval, bool_dual(phi.lhs), bool_dual(phi.rhs))
    raise ValueError("duality is defined only for implication-free formulas")


def time_swap(phi: Formula) -> Formula:
    """Exchange every future connective with its past twin; an involution."""
    if isinstance(phi, (Next, Prev)):
        return _SWAP[type(phi)](phi.interval, time_swap(phi.arg))
    if isinstance(phi, KERNEL_BINARY):
        return _SWAP[type(phi)](phi.interval, time_swap(phi.lhs), time_swap(phi.rhs))
    return map_children(phi, time_swap)


def push_negation(phi: Formula) -> Formula:
    """Rewrite every negated binary temporal operator into its negated dual."""
    inner = match_not(phi)
    if inner is not None and isinstance(inner, KERNEL_BINARY):
        dual = _DUAL_BINARY[type(inner)]
        return dual(inner.interval, push_negation(neg(inner.lhs)), push_negation(neg(inner.rhs)))
    return map_children(phi, push_negation)


def range_split(phi: Formula, i: int) -> Formula:
    """Split the interval of a binary temporal node at i into two copies."""
    if not isinstance(phi, KERNEL_BINARY):
        raise ValueError("range splitting applies to U/R/S/T formulas")
    iv = phi.interval
    if not iv.contains(i):
        raise ValueError(f"split point {i} lies outside {iv}")
    low, high = Interval(iv.lower, i), Interval(i, iv.upper)
    combine = Or if isinstance(phi, (Until, Since)) else And
    cls = type(phi)
    return combine(cls(low, phi.lhs, phi.rhs), cls(high, phi.lhs, phi.rhs))


# --------------------------------------------------------------------------
# Unfolding binary temporal operators into single-point one-step operators.
# Requires strict timing and finite intervals on every binary temporal node.
# Termination: every recursive call strictly decreases the rewritten node's
# interval endpoint sum.

def _expand(cls, iv: Interval, lhs: Formula, rhs: Formula) -> Formula:
    until_like = cls in (Until, Since)
    m, n = iv.lower, iv.upper
    if m >= n:
        return BOT if until_like else TRUE
    if m == 0 and n == 1:
        return rhs
    combine, wrap = (Or, And) if until_like else (And, Or)
    step = {Until: Next, Since: Prev, Release: weak_next, Trigger: weak_prev}[cls]
    parts = [step(Interval(i, i + 1), _expand(cls, Interval(max(m - i, 0), n - i), lhs, rhs))
             for i in range(1, n)]
    body = wrap(lhs, reduce(combine, parts))
    return combine(rhs, body) if m == 0 else body


def unfold_next(phi: Formula) -> Formula:
    """Eliminate every finite-interval U/R/S/T in favor of one-step operators.

    Empty intervals collapse binary nodes to a truth constant and one-step
    nodes to falsum; the zero point [0..0] collapses binary nodes onto their
    right argument and one-step nodes onto a constant (strict timing makes a
    zero-gap successor impossible).  Binary nodes with an unbounded interval
    are rejected.
    """
    for matcher, rebuild in ((match_weak_next, weak_next), (match_weak_prev, weak_prev)):
        wk = matcher(phi)
        if wk is not None:
            iv, arg = wk
            if iv.is_empty() or (iv.lower, iv.upper) == (0, 1):
                return TRUE
            return rebuild(iv, unfold_next(arg))
    if isinstance(phi, (Next, Prev)):
        iv = phi.interval
        if iv.is_empty() or (iv.lower, iv.upper) == (0, 1):
            return BOT
        return type(phi)(iv, unfold_next(phi.arg))
    if isinstance(phi, KERNEL_BINARY):
        if phi.interval.upper is None:
            raise ValueError("unfolding requires finite intervals on binary temporal nodes")
        return _expand(type(phi), phi.interval, unfold_next(phi.lhs), unfold_next(phi.rhs))
    return map_children(phi, unfold_next)


def one_step_eliminate(phi: Formula) -> Formula:
    """Define interval-indexed one-step operators away, assuming strict timing.

    A successor (predecessor) at gap d is the unique state at time distance d
    once distances 1..d-1 are excluded, so a one-step operator over a finite
    window becomes a disjunction over the admissible gaps of "no state in
    [1..d) and some state at exactly d satisfying the argument".  An
    unbounded window keeps a bare one-step operator: the window then only
    excludes small gaps, which the always-part expresses.  Empty windows are
    falsum.
    """
    if isinstance(phi, (Next, Prev)):
        iv = phi.interval
        arg = one_step_eliminate(phi.arg)
        if iv.is_empty():
            return BOT
        if iv.is_full():
            return type(phi)(iv, arg)
        past = isinstance(phi, Prev)
        some = once if past else eventually
        none_in = historically if past else always
        m, n = iv.lower, iv.upper
        h = max(1, m)
        if n is None:
            bare = type(phi)(FULL, arg)
            return bare if m <= 1 else And(none_in(Interval(1, m), BOT), bare)
        parts = []
        for d in range(h, n):
            witness = some(Interval(d, d + 1), arg)
            parts.append(witness if d == 1 else And(none_in(Interval(1, d), BOT), witness))
        if not parts:
            return BOT
        return reduce(Or, parts)
    return map_children(phi, one_step_eliminate)


def to_unary_nf(phi: Formula) -> Formula:
    """Push intervals off binary temporal operators, assuming strict timing.

    In the result only unary temporal operators carry intervals; every
    U/R/S/T is left with [0..w).  The until/since shape anchors the witness
    with a one-step operator; release/trigger dually use the weak one.
    """
    if isinstance(phi, KERNEL_BINARY):
        iv = phi.interval
        lhs, rhs = to_unary_nf(phi.lhs), to_unary_nf(phi.rhs)
        cls = type(phi)
        if iv.is_full():
            return cls(iv, lhs, rhs)
        m = iv.lower
        if isinstance(phi, Until):
            if m == 0:
                return And(eventually(iv, rhs), Until(FULL, lhs, rhs))
            return And(eventually(iv, rhs),
                       always(Interval(0, m), Until(FULL, lhs, And(lhs, Next(FULL, rhs)))))
        if isinstance(phi, Release):
            if m == 0:
                return Or(always(iv, rhs), Release(FULL, lhs, rhs))
            return Or(always(iv, rhs),
                      eventually(Interval(0, m),
                                 Release(FULL, lhs, Or(lhs, weak_next(FULL, rhs)))))
        if isinstance(phi, Since):
            if m == 0:
                return And(once(iv, rhs), Since(FULL, lhs, rhs))
            return And(once(iv, rhs),
                       historically(Interval(0, m), Since(FULL, lhs, And(lhs, Prev(FULL, rhs)))))
        if m == 0:
            return Or(historically(iv, rhs), Trigger(FULL, lhs, rhs))
        return Or(historically(iv, rhs),
                  once(Interval(0, m), Trigger(FULL, lhs, Or(lhs, weak_prev(FULL, rhs)))))
    return map_children(phi, to_unary_nf)


PASSES = {
    "unf": unfold_next,
    "unary": to_unary_nf,
    "demorgan": push_negation,
    "dual": bool_dual,
    "swap": time_swap,
    "onestep": one_step_eliminate,
}
