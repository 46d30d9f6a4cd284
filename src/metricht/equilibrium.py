"""Equilibrium (stable) model checking, bounded enumeration and equivalence.

A total trace is in equilibrium for a theory when no strictly smaller
here-component still satisfies the theory.  Both the model search and the
equivalence check are exhaustive over a finite bounded trace space, so a
negative answer is definitive while a positive one holds within the bounds.
Each search compiles one `semantics.Program` per region class; the refinement
scan and the equivalence check run it on a whole chunk of traces at once
(`semantics.first_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import Program, first_trace
from .semantics import is_model, mht_sat  # noqa: F401  (wrapped by bench/tracer.py)
from .syntax import Theory
from .traces import EnumerationBounds, TimedHTTrace, region_keys, state_sequences
from .traces import enumerate_total_traces, refinements  # noqa: F401  (bench/tracer.py)


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


def _first_smaller_model(program: Program, there: tuple) -> TimedHTTrace | None:
    """The first strict refinement of the total trace (there, program.tau), in
    `refinements` order, that models every root of the program.

    The total itself has the highest index of its refinement space.
    """
    alphabet = tuple(sorted(frozenset().union(*there)))
    smaller = first_trace(program, alphabet, lambda sat: sat(program.roots), there)
    return None if smaller is None or smaller.here == there else smaller


def is_equilibrium(trace: TimedHTTrace, theory: Theory) -> EquilibriumVerdict:
    """Scan refinements in order; the first satisfying one is the witness."""
    if not trace.is_total():
        raise ValueError("equilibrium is defined for total traces")
    program = Program(theory.formulas, trace.times)
    if not all(program.verdicts(trace.here, trace.there)):
        raise ValueError("the trace is not a model of the theory")
    witness = _first_smaller_model(program, trace.there)
    return EquilibriumVerdict(witness is None, witness)


def _replayed(theory: Theory, bounds: EnumerationBounds, equilibrium: bool) -> list[TimedHTTrace]:
    """The total models within bounds (those in equilibrium if asked), in enumeration order.

    Each region class compiles the theory once, against its first time map, and
    runs every state sequence through it; later members replay the accepted ones."""
    found: dict[tuple, list] = {}
    models = []
    for times, key in region_keys(bounds, theory.formulas):
        if key not in found:
            program = Program(theory.formulas, times)
            found[key] = [states for states in state_sequences(bounds.alphabet, len(times))
                          if all(program.verdicts(states, states))
                          and not (equilibrium and _first_smaller_model(program, states))]
        models += (TimedHTTrace(states, states, times) for states in found[key])
    return models


def enumerate_models(theory: Theory, bounds: EnumerationBounds) -> list[TimedHTTrace]:
    """All total models within bounds, in enumeration order."""
    return _replayed(theory, bounds, False)


def enumerate_equilibrium(theory: Theory, bounds: EnumerationBounds) -> list[TimedHTTrace]:
    """All equilibrium models within bounds, in enumeration order.

    Strict bounds enumerate only strict traces, whose refinements are strict
    too, so the strictness axiom holds throughout and is not added.
    """
    return _replayed(theory, bounds, True)


def bounded_equiv(left: Theory, right: Theory, bounds: EnumerationBounds) -> EquivVerdict:
    """Compare the two theories' models over every trace within bounds.

    Both total traces and all their refinements are checked, i.e. the
    comparison is on here-and-there models, not merely on total ones.  A
    reported counterexample is definitive; 'equivalent' only means no
    difference exists inside the bounded space.  Only the first time map of
    each region class (over both theories) is searched: a later member shows
    a difference only if that first one already did.  One program per class
    holds both theories.
    """
    searched, split = set(), len(left.formulas)
    for times, key in region_keys(bounds, left.formulas + right.formulas):
        if key in searched:
            continue
        searched.add(key)
        program = Program(left.formulas + right.formulas, times)
        lhs, rhs = program.roots[:split], program.roots[split:]
        trace = first_trace(program, bounds.alphabet, lambda sat: sat(lhs) ^ sat(rhs))
        if trace is None:
            continue
        # the total comes before its refinements, though its index is higher
        for trace in (TimedHTTrace(trace.there, trace.there, times), trace):
            values = program.values(trace.here, trace.there)
            held = [values[root] & 1 for root in program.roots]
            if all(held[:split]) != all(held[split:]):
                break
        side, failing = ("right", held[split:]) if all(held[:split]) else ("left", held[:split])
        return EquivVerdict(False, (trace, failing.index(0), side))
    return EquivVerdict(True, None)
