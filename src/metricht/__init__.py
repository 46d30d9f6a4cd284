"""Temporal reasoning over timed here-and-there traces.

Formulas combine Boolean connectives with six interval-indexed temporal
operators; traces pair here/there state sequences with non-decreasing time
stamps.  The package evaluates satisfaction, enumerates equilibrium models
within finite bounds, applies a catalog of equivalence-preserving rewrites
and translates formulas into monadic first-order sentences with difference
constraints.
"""

from .syntax import (
    And, Atom, BOT, Bottom, Formula, FULL, Implies, Interval, IntervalError,
    Next, Or, Prev, Release, Since, Theory, Trigger, TRUE, Until, always,
    eventually, final, format_formula, historically, iff, initial,
    interval_from_bounds, neg, once, weak_next, weak_prev,
)
from .parser import ParseError, parse_formula, parse_theory
from .traces import (
    EnumerationBounds, TimedHTTrace, enumerate_total_traces, make_alphabet,
    refinements, reverse_trace, total_trace, trace_from_json, trace_to_json,
)
from .semantics import em_theory, is_model, mht_sat, strictness_axiom
from .equilibrium import (
    EquilibriumVerdict, EquivVerdict, bounded_equiv, enumerate_equilibrium,
    enumerate_models, is_equilibrium,
)
from .rewrite import (
    PASSES, bool_dual, one_step_eliminate, push_negation, range_split,
    time_swap, to_unary_nf, unfold_next,
)

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: `fom` loads on first use, which `check` never makes
    if name != "fom":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import metricht.fom  # not `from . import fom`, which asks this hook first
    return metricht.fom
