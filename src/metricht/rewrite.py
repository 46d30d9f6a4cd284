"""Equivalence-preserving formula transformations.

All passes are pure tree rewrites.  bool_dual, time_swap and push_negation
are sound on arbitrary traces; range_split, unfold_next, one_step_eliminate
and to_unary_nf assume strict timing (consecutive states carry distinct time
stamps), which is the regime the bounded search uses by default.
"""

from __future__ import annotations

from functools import cache, reduce

from .syntax import (
    And, BOT, Bottom, Formula, FULL, Implies, Interval, Next, Or, Prev, Release,
    Since, Trigger, TRUE, Until, WEAK_STEP, always, eventually, KERNEL_BINARY,
    map_children, match_not, match_weak, neg, operands, postorder, weak_next, weak_prev,
)

_DUAL = {And: Or, Or: And, Until: Release, Release: Until, Since: Trigger, Trigger: Since}
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
    wk = match_weak(phi)
    if wk is not None:
        step, iv, arg = wk
        return step(iv, bool_dual(arg))
    if isinstance(phi, (Next, Prev)):
        return WEAK_STEP[type(phi)](phi.interval, bool_dual(phi.arg))
    if isinstance(phi, Implies):
        raise ValueError("duality is defined only for implication-free formulas")
    return map_children(phi, bool_dual, _DUAL.get(type(phi)))


def time_swap(phi: Formula) -> Formula:
    """Exchange every future connective with its past twin; an involution.

    The one owner of the future/past pairing: the strict-timing passes below
    state their rules for X, U and R only and rewrite a past node as
    time_swap(P(time_swap(phi))), which every pass commutes with.
    """
    return map_children(phi, time_swap, _SWAP.get(type(phi)))


def push_negation(phi: Formula) -> Formula:
    """Rewrite every negated binary temporal operator into its negated dual."""
    inner = match_not(phi)
    if inner is not None and isinstance(inner, KERNEL_BINARY):
        dual = _DUAL[type(inner)]
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
    combine, wrap = (Or, And) if until_like else (And, Or)
    step = {Until: Next, Since: Prev, Release: weak_next, Trigger: weak_prev}[cls]

    @cache  # one shared subtree per sub-window: a DAG of O((m + n) * n) nodes
    def expand(m: int, n: int) -> Formula:
        if m >= n:
            return BOT if until_like else TRUE
        if m == 0 and n == 1:
            return rhs
        parts = [step(Interval(i, i + 1), expand(max(m - i, 0), n - i)) for i in range(1, n)]
        body = wrap(lhs, reduce(combine, parts))
        return combine(rhs, body) if m == 0 else body

    return expand(iv.lower, iv.upper)


def unfold_next(phi: Formula) -> Formula:
    """Eliminate every finite-interval U/R/S/T in favor of one-step operators.

    Empty intervals collapse binary nodes to a truth constant and one-step
    nodes to falsum; the zero point [0..0] collapses binary nodes onto their
    right argument and one-step nodes onto a constant (strict timing makes a
    zero-gap successor impossible).  Binary nodes with an unbounded interval
    are rejected.
    """
    wk = match_weak(phi)
    if wk is not None or isinstance(phi, (Next, Prev)):  # weak, or strong
        step, iv, arg = wk or (type(phi), phi.interval, phi.arg)
        if iv.is_empty() or (iv.lower, iv.upper) == (0, 1):
            return TRUE if wk else BOT
        return (WEAK_STEP[step] if wk else step)(iv, unfold_next(arg))
    if isinstance(phi, KERNEL_BINARY):
        return _expand(type(phi), _finite(phi), unfold_next(phi.lhs), unfold_next(phi.rhs))
    return map_children(phi, unfold_next)


def _finite(phi: Formula) -> Interval:
    if phi.interval.upper is None:
        raise ValueError("unfolding requires finite intervals on binary temporal nodes")
    return phi.interval


def printed_size(phi: Formula, name: str = "", cap: int = 1 << 14284) -> int:
    """min(cap, the nodes of phi as printed, a shared subformula once per use), or of
    what the pass `name` makes of it for "unf" and "onestep", counted from the window
    bounds without building it: a window of n unfolds into O(n^2) shared nodes that
    print as about 2^n, and a one-step window of n into n parts."""
    sizes: dict[int, int] = {}
    for part in postorder((phi,)):
        size = 1
        for x in operands(part):
            size += sizes[id(x)]
        if name == "unf":
            kind, wk = type(part), match_weak(part)
            iv = wk[1] if wk else getattr(part, "interval", FULL)
            if (wk or kind in (Next, Prev)) and (iv.is_empty() or (iv.lower, iv.upper) == (0, 1)):
                size = 3 if wk else 1  # TRUE or BOT
            elif kind in KERNEL_BINARY:
                size = _expanded_size(part, sizes[id(part.lhs)], sizes[id(part.rhs)], cap)
        elif name == "onestep" and type(part) in (Next, Prev):  # see one_step_eliminate
            m, n, a = part.interval.lower, part.interval.upper, sizes[id(part.arg)]
            if n is None:  # the bare step, after G[1..m) #false when m > 1
                size = a + (1 if m <= 1 else 5)
            else:  # n - max(1, m) parts of 8 + a nodes and an |; F[1..2) arg is 4 fewer
                parts = n - max(1, m)
                size = parts * (9 + a) - (5 if m <= 1 else 1) if parts > 0 else 1
        sizes[id(part)] = size if size < cap else cap
    return sizes[id(phi)]


def _expanded_size(phi: Formula, a: int, b: int, cap: int) -> int:
    """min(cap, the printed nodes of `_expand` on phi's window [m..n)), its lhs and rhs
    unfolded into a and b nodes.  A part costs r: its combine node and its step (X or
    weak X).  From j = 2 on, expand(0, j) doubles plus r, and so does each step of m."""
    (m, n), r = (phi.interval.lower, _finite(phi).upper), 2 if type(phi) in (Until, Since) else 9
    if m >= n:
        return 1 if r == 2 else 3  # BOT or TRUE
    if n - 2 > cap.bit_length():  # at least 2^(n - 2) nodes
        return cap
    if m == 0 and n == 1:
        return b
    d = n - m if m else n - 1  # the parts reach expand(0, j) for every j <= d; their sum:
    reach = b + (1 + a + 2 * b + 2 * r) * ((1 << d - 1) - 1) - (d - 1) * r
    return min((a + d * r + reach + (0 if m else 1 + b) + r << max(m - 1, 0)) - r, cap)


def one_step_eliminate(phi: Formula) -> Formula:
    """Define interval-indexed one-step operators away, assuming strict timing.

    A successor at gap d is the unique state at time distance d once
    distances 1..d-1 are excluded, so a one-step operator over a finite
    window becomes a disjunction over the admissible gaps of "no state in
    [1..d) and some state at exactly d satisfying the argument".  An
    unbounded window keeps a bare one-step operator: the window then only
    excludes small gaps, which the always-part expresses.  Empty windows are
    falsum.  A predecessor is the time mirror of a successor.
    """
    if isinstance(phi, Prev):
        return time_swap(one_step_eliminate(time_swap(phi)))
    if not isinstance(phi, Next):
        return map_children(phi, one_step_eliminate)
    iv, arg = phi.interval, one_step_eliminate(phi.arg)
    if iv.is_empty():
        return BOT
    if iv.is_full():
        return Next(iv, arg)
    m, n = iv.lower, iv.upper
    if n is None:
        bare = Next(FULL, arg)
        return bare if m <= 1 else And(always(Interval(1, m), BOT), bare)
    parts = [eventually(Interval(d, d + 1), arg) if d == 1 else
             And(always(Interval(1, d), BOT), eventually(Interval(d, d + 1), arg))
             for d in range(max(1, m), n)]
    return reduce(Or, parts) if parts else BOT


# until/release: (combine, the window's own unary form, the guard before the
# window, the one-step anchor of the chain)
_UNARY_NF = {Until: (And, eventually, always, Next), Release: (Or, always, eventually, weak_next)}


def to_unary_nf(phi: Formula) -> Formula:
    """Push intervals off binary temporal operators, assuming strict timing.

    In the result only unary temporal operators carry intervals; every
    U/R/S/T is left with [0..w).  The until shape anchors the witness with a
    one-step operator; release dually uses the weak one.  Since and trigger
    are the time mirrors of until and release.
    """
    if not isinstance(phi, KERNEL_BINARY) or phi.interval.is_full():
        return map_children(phi, to_unary_nf)
    if isinstance(phi, (Since, Trigger)):
        return time_swap(to_unary_nf(time_swap(phi)))
    combine, within, guard, step = _UNARY_NF[type(phi)]
    iv, lhs, rhs = phi.interval, to_unary_nf(phi.lhs), to_unary_nf(phi.rhs)
    if iv.lower == 0:
        return combine(within(iv, rhs), type(phi)(FULL, lhs, rhs))
    chain = type(phi)(FULL, lhs, combine(lhs, step(FULL, rhs)))
    return combine(within(iv, rhs), guard(Interval(0, iv.lower), chain))


PASSES = {
    "unf": unfold_next,
    "unary": to_unary_nf,
    "demorgan": push_negation,
    "dual": bool_dual,
    "swap": time_swap,
    "onestep": one_step_eliminate,
}
