#!/usr/bin/env python3
"""Showcase of the rewrite passes and the first-order translation.

Exits 1 unless every printed formula and sentence parses back to itself and
every equivalence-preserving rewrite has the same here-and-there models as
its input on all strict traces of length <= 3 and final time <= 5.
"""

import sys

from metricht import (
    bool_dual, format_formula, one_step_eliminate, parse_formula, range_split,
    time_swap, to_unary_nf, unfold_next,
)
from metricht.equilibrium import bounded_equiv
from metricht.fom import FOMFormula, format_fom, parse_fom, simplify_fom, translate
from metricht.syntax import Theory
from metricht.traces import EnumerationBounds

EQUIVALENT = ("unfolded", "unary nf", "split at 3", "one-step")


def show(label: str, node) -> bool:
    """Print a formula or sentence; return whether its text parses back to it."""
    if isinstance(node, FOMFormula):
        text, parse = format_fom(node), parse_fom
    else:
        text, parse = format_formula(node), parse_formula
    print(f"{label:>14}: {text}")
    return parse(text) == node


def main() -> int:
    phi = parse_formula("p U[2..4) q")
    one_step = parse_formula("X[2..5) p")
    rule = parse_formula("G (push -> F[1..15) G[0..30] green)")
    raw = translate(rule, 0)
    sections = [
        [("formula", phi), ("unfolded", unfold_next(phi)), ("unary nf", to_unary_nf(phi)),
         ("split at 3", range_split(phi, 3)), ("time-swapped", time_swap(phi)),
         ("dual", bool_dual(phi))],
        [("formula", one_step), ("one-step", one_step_eliminate(one_step))],
        [("formula", rule), ("translated", raw), ("simplified", simplify_fom(raw))],
    ]
    unparsed, differing = [], []
    for i, section in enumerate(sections):
        if i:
            print()
        unparsed += [label for label, node in section if not show(label, node)]
        source = Theory((section[0][1],))
        bounds = EnumerationBounds(source.atoms(), 3, 5)
        differing += [label for label, node in section if label in EQUIVALENT
                      and not bounded_equiv(source, Theory((node,)), bounds).equivalent]
    if unparsed:
        print(f"did not parse back to itself: {', '.join(unparsed)}", file=sys.stderr)
    if differing:
        print(f"not equivalent to its input: {', '.join(differing)}", file=sys.stderr)
    return 1 if unparsed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
