#!/usr/bin/env python3
"""Traffic-light walk-through: bounded equilibrium models of a metric theory.

The light is red by default; pushing the button makes it turn green within
15 seconds and stay green for up to 30 more.  With a button push pinned at
time 5 and exactly three states, the search space up to final time 20
contains exactly 14 equilibrium models: red, push+red, green with times
(0, 5, t) for t = 6..19.  Exits 1 if the search finds any other models.
"""

import json
import sys
import time

from metricht import (
    EnumerationBounds, enumerate_equilibrium, parse_theory, trace_to_json,
)

RULES = """\
G (red & green -> #false)
G (~green -> red)
G (push -> F[1..15) G[0..30] green)
"""


def main() -> int:
    base = parse_theory(RULES)
    atoms = ("green", "push", "red")

    print("# base theory, lengths 1..2, final time <= 4")
    for model in enumerate_equilibrium(base, EnumerationBounds(atoms, 2, 4)):
        print(json.dumps(trace_to_json(model, atoms)))
    print()

    print("# with the button pushed at time 5, exactly 3 states, time <= 20")
    scenario = parse_theory(RULES + "X[5] push\n")
    bounds = EnumerationBounds(atoms, 3, 20, exact_len=True)
    start = time.monotonic()
    models = enumerate_equilibrium(scenario, bounds)
    elapsed = time.monotonic() - start
    for model in models:
        print(json.dumps(trace_to_json(model, atoms)))
    print(f"{len(models)} models in {elapsed:.1f}s")
    states = ({"red"}, {"push", "red"}, {"green"})
    if ([model.times for model in models] != [(0, 5, t) for t in range(6, 20)]
            or any(model.there != states for model in models)):
        print("expected the 14 models red, push+red, green at times (0, 5, 6..19)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
