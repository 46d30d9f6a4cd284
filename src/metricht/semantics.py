"""Satisfaction of metric formulas on timed here-and-there traces.

Implication is evaluated in both the here-world and the there-world, which
is what separates this semantics from the classical (total-trace) one; on a
total trace the two worlds coincide and the evaluator is plain metric LTL.
A binary temporal operator scans only the states inside its time window and
stops at the first state whose left operand decides the verdict.
"""

from __future__ import annotations

from .syntax import (
    And, Atom, Bottom, Formula, FULL, Implies, Interval, Next, Or, Prev,
    Release, Since, Theory, Trigger, TRUE, Until, always, neg,
)
from .traces import TimedHTTrace


def mht_sat(trace: TimedHTTrace, k: int, phi: Formula) -> bool:
    """Does the trace satisfy phi at state k?

    Implications are checked in the here-world and again in the there-world
    (the total part); on a total trace the second check is skipped.
    """
    if not 0 <= k < trace.length:
        raise IndexError(f"state index {k} out of range for length {trace.length}")
    there = trace.there
    here = there if trace.is_total() else trace.here
    return _sat(here, there, trace.times, k, phi)


def _sat(here: tuple[frozenset[str], ...], there: tuple[frozenset[str], ...],
         tau: tuple[int, ...], k: int, phi: Formula) -> bool:
    """Satisfaction at state k; ``here is there`` marks the there-world."""
    lam = len(tau)
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Atom):
        return phi.name in here[k]
    if isinstance(phi, And):
        return _sat(here, there, tau, k, phi.lhs) and _sat(here, there, tau, k, phi.rhs)
    if isinstance(phi, Or):
        return _sat(here, there, tau, k, phi.lhs) or _sat(here, there, tau, k, phi.rhs)
    if isinstance(phi, Implies):
        if _sat(here, there, tau, k, phi.lhs) and not _sat(here, there, tau, k, phi.rhs):
            return False
        return here is there or not _sat(there, there, tau, k, phi.lhs) \
            or _sat(there, there, tau, k, phi.rhs)
    if isinstance(phi, Next):
        return (k + 1 < lam and phi.interval.contains(tau[k + 1] - tau[k])
                and _sat(here, there, tau, k + 1, phi.arg))
    if isinstance(phi, Prev):
        return (k > 0 and phi.interval.contains(tau[k] - tau[k - 1])
                and _sat(here, there, tau, k - 1, phi.arg))
    if isinstance(phi, (Until, Release, Since, Trigger)):
        # U/S: some j in the window has rhs, and lhs from k up to but not at j;
        # R/T: no j fails so.  d never shrinks, and lhs at j decides all later j.
        exists = isinstance(phi, (Until, Since))
        step = 1 if isinstance(phi, (Until, Release)) else -1
        lower, upper = phi.interval.lower, phi.interval.upper
        for j in range(k, lam if step == 1 else -1, step):
            d = abs(tau[j] - tau[k])
            if upper is not None and d >= upper:
                break
            if d >= lower and _sat(here, there, tau, j, phi.rhs) == exists:
                return exists
            if _sat(here, there, tau, j, phi.lhs) != exists:
                return not exists
        return not exists
    raise TypeError(f"not a formula node: {phi!r}")


def is_model(trace: TimedHTTrace, theory: Theory) -> bool:
    """Does the trace satisfy every formula of the theory at state 0?"""
    return all(mht_sat(trace, 0, phi) for phi in theory.formulas)


def em_theory(alphabet) -> Theory:
    """Per-atom excluded-middle axioms; exactly the total traces satisfy them."""
    return Theory(tuple(always(FULL, Or(Atom(p), neg(Atom(p)))) for p in alphabet))


def strictness_axiom() -> Formula:
    """No two consecutive states may share a time stamp: G ~X[0..0] #true."""
    return always(FULL, neg(Next(Interval(0, 1), TRUE)))
