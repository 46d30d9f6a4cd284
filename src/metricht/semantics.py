"""Satisfaction of metric formulas on timed here-and-there traces.

Implication is evaluated in both the here-world and the there-world, which
is what separates this semantics from the classical (total-trace) one; on a
total trace the two worlds coincide and the evaluator is plain metric LTL.
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
    if isinstance(phi, Until):
        for j in range(k, lam):
            if phi.interval.contains(tau[j] - tau[k]) \
                    and _sat(here, there, tau, j, phi.rhs) \
                    and all(_sat(here, there, tau, i, phi.lhs) for i in range(k, j)):
                return True
        return False
    if isinstance(phi, Release):
        for j in range(k, lam):
            if phi.interval.contains(tau[j] - tau[k]) \
                    and not _sat(here, there, tau, j, phi.rhs) \
                    and not any(_sat(here, there, tau, i, phi.lhs) for i in range(k, j)):
                return False
        return True
    if isinstance(phi, Since):
        for j in range(k, -1, -1):
            if phi.interval.contains(tau[k] - tau[j]) \
                    and _sat(here, there, tau, j, phi.rhs) \
                    and all(_sat(here, there, tau, i, phi.lhs) for i in range(j + 1, k + 1)):
                return True
        return False
    if isinstance(phi, Trigger):
        for j in range(k, -1, -1):
            if phi.interval.contains(tau[k] - tau[j]) \
                    and not _sat(here, there, tau, j, phi.rhs) \
                    and not any(_sat(here, there, tau, i, phi.lhs) for i in range(j + 1, k + 1)):
                return False
        return True
    raise TypeError(f"not a formula node: {phi!r}")


def is_model(trace: TimedHTTrace, theory: Theory) -> bool:
    """Does the trace satisfy every formula of the theory at state 0?"""
    return all(mht_sat(trace, 0, phi) for phi in theory.formulas)


def em_theory(alphabet) -> Theory:
    """Per-atom excluded-middle axioms; exactly the total traces satisfy them."""
    return Theory(tuple(always(FULL, Or(Atom(p), neg(Atom(p)))) for p in alphabet),
                  name="excluded-middle")


def strictness_axiom() -> Formula:
    """No two consecutive states may share a time stamp: G ~X[0..0] #true."""
    return always(FULL, neg(Next(Interval(0, 1), TRUE)))
