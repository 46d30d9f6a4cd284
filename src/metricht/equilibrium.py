"""Equilibrium (stable) model checking, bounded enumeration and equivalence.

A total trace is in equilibrium for a theory when no strictly smaller
here-component still satisfies the theory.  Both the model search and the
equivalence check are exhaustive over a finite bounded trace space, so a
negative answer is definitive while a positive one holds within the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .semantics import is_model, mht_sat
from .syntax import Theory
from .traces import EnumerationBounds, TimedHTTrace, refinements, region_keys, total_traces_at
from .traces import enumerate_total_traces  # noqa: F401  (bench/tracer.py wraps it here)


@dataclass(frozen=True)
class EquilibriumVerdict:
    is_equilibrium: bool
    witness: TimedHTTrace | None = None


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    # (trace, formula index, side): the first trace satisfying one theory but
    # not the other; the index points at the first failing formula of `side`.
    counterexample: tuple[TimedHTTrace, int, str] | None = None


def _first_smaller_model(total: TimedHTTrace, theory: Theory) -> TimedHTTrace | None:
    """The first refinement of a total trace that still satisfies the theory."""
    for smaller in refinements(total):
        if is_model(smaller, theory):
            return smaller
    return None


def is_equilibrium(trace: TimedHTTrace, theory: Theory) -> EquilibriumVerdict:
    """Scan refinements in order; the first satisfying one is the witness."""
    if not trace.is_total():
        raise ValueError("equilibrium is defined for total traces")
    if not is_model(trace, theory):
        raise ValueError("the trace is not a model of the theory")
    witness = _first_smaller_model(trace, theory)
    return EquilibriumVerdict(witness is None, witness)


def enumerate_equilibrium(theory: Theory, bounds: EnumerationBounds) -> list[TimedHTTrace]:
    """All equilibrium models within bounds, in enumeration order.

    Strict bounds enumerate only strict traces, whose refinements are strict
    too, so the strictness axiom holds throughout and is not added.  Only the
    first time map of each region class is searched; later members replay
    its equilibrium state sequences with their own time stamps.
    """
    found: dict[tuple, list] = {}
    models = []
    for times, key in region_keys(bounds, theory.formulas):
        if key not in found:
            found[key] = [total.there for total in total_traces_at(times, bounds.alphabet)
                          if is_model(total, theory)
                          and _first_smaller_model(total, theory) is None]
        models += (TimedHTTrace(states, states, times) for states in found[key])
    return models


def bounded_equiv(left: Theory, right: Theory, bounds: EnumerationBounds) -> EquivVerdict:
    """Compare the two theories' models over every trace within bounds.

    Both total traces and all their refinements are checked, i.e. the
    comparison is on here-and-there models, not merely on total ones.  A
    reported counterexample is definitive; 'equivalent' only means no
    difference exists inside the bounded space.  Only the first time map of
    each region class (over both theories) is searched: a later member shows
    a difference only if that first one already did.
    """
    searched = set()
    for times, key in region_keys(bounds, left.formulas + right.formulas):
        if key in searched:
            continue
        searched.add(key)
        for total in total_traces_at(times, bounds.alphabet):
            for trace in chain((total,), refinements(total)):
                sat_left, sat_right = is_model(trace, left), is_model(trace, right)
                if sat_left == sat_right:
                    continue
                side, failing = ("right", right) if sat_left else ("left", left)
                index = next(i for i, phi in enumerate(failing.formulas)
                             if not mht_sat(trace, 0, phi))
                return EquivVerdict(False, (trace, index, side))
    return EquivVerdict(True, None)
