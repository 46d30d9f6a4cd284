"""Equilibrium (stable) model checking, bounded enumeration and equivalence.

A total trace is in equilibrium for a theory when no strictly smaller
here-component still satisfies the theory.  Both the model search and the
equivalence check are exhaustive over a finite bounded trace space, so a
negative answer is definitive while a positive one holds within the bounds.
The refinement scan and the equivalence check decide a whole chunk of traces
per evaluation (`semantics.first_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import Program, first_trace, is_model, mht_sat
from .syntax import Theory
from .traces import EnumerationBounds, TimedHTTrace, region_keys, state_sequences
# bench/tracer.py wraps these two here
from .traces import enumerate_total_traces, refinements  # noqa: F401


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
    """The first refinement of a total trace, in `refinements` order, that is a model.

    The total itself has the highest index of its refinement space.
    """
    alphabet = tuple(sorted(frozenset().union(*total.there)))
    smaller = first_trace(alphabet, total.times, lambda models: models(theory), total.there)
    return None if smaller is None or smaller.here == total.there else smaller


def is_equilibrium(trace: TimedHTTrace, theory: Theory) -> EquilibriumVerdict:
    """Scan refinements in order; the first satisfying one is the witness."""
    if not trace.is_total():
        raise ValueError("equilibrium is defined for total traces")
    if not is_model(trace, theory):
        raise ValueError("the trace is not a model of the theory")
    witness = _first_smaller_model(trace, theory)
    return EquilibriumVerdict(witness is None, witness)


def _replayed(theory: Theory, bounds: EnumerationBounds, keep=None) -> list[TimedHTTrace]:
    """The total models within bounds that `keep` (if given) accepts, in enumeration order.

    Each region class compiles the theory once, against its first time map, and
    runs every state sequence through it; later members replay the accepted ones."""
    found: dict[tuple, list] = {}
    models = []
    for times, key in region_keys(bounds, theory.formulas):
        if key not in found:
            program = Program(theory.formulas, times)
            found[key] = [states for states in state_sequences(bounds.alphabet, len(times))
                          if all(program.verdicts(states, states))
                          and (keep is None or keep(TimedHTTrace(states, states, times)))]
        models += (TimedHTTrace(states, states, times) for states in found[key])
    return models


def enumerate_models(theory: Theory, bounds: EnumerationBounds) -> list[TimedHTTrace]:
    """All total models within bounds, in enumeration order."""
    return _replayed(theory, bounds)


def enumerate_equilibrium(theory: Theory, bounds: EnumerationBounds) -> list[TimedHTTrace]:
    """All equilibrium models within bounds, in enumeration order.

    Strict bounds enumerate only strict traces, whose refinements are strict
    too, so the strictness axiom holds throughout and is not added.
    """
    return _replayed(theory, bounds, lambda total: _first_smaller_model(total, theory) is None)


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
        trace = first_trace(bounds.alphabet, times,
                            lambda models: models(left) ^ models(right))
        if trace is None:
            continue
        # the total comes before its refinements, though its index is higher
        total = TimedHTTrace(trace.there, trace.there, times)
        if is_model(total, left) != is_model(total, right):
            trace = total
        side, failing = ("right", right) if is_model(trace, left) else ("left", left)
        index = next(i for i, phi in enumerate(failing.formulas)
                     if not mht_sat(trace, 0, phi))
        return EquivVerdict(False, (trace, index, side))
    return EquivVerdict(True, None)
