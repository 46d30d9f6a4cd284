"""Brute-force reference implementations, independent of the library evaluator.

Only the formula AST classes, metric and first-order, are shared.
Satisfaction here works on plain (here, there, times) tuples, or a domain
and atom sets, with explicit world tags and index loops or variable
bindings, and the bounded trace space is generated with its own nested
products, so agreement with the library is a meaningful cross-check.
"""

from __future__ import annotations

from itertools import product

from metricht import fom
from metricht.syntax import (
    And, Atom, Bottom, Implies, Next, Or, Prev, Release, Since, Trigger, Until,
)


def sat(here, there, times, k, phi, world="h"):
    """world 'h': both-world semantics; world 't': classical on the there-states."""
    states = here if world == "h" else there
    lam = len(times)
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Atom):
        return phi.name in states[k]
    if isinstance(phi, And):
        return sat(here, there, times, k, phi.lhs, world) and \
            sat(here, there, times, k, phi.rhs, world)
    if isinstance(phi, Or):
        return sat(here, there, times, k, phi.lhs, world) or \
            sat(here, there, times, k, phi.rhs, world)
    if isinstance(phi, Implies):
        worlds = ("h", "t") if world == "h" else ("t",)
        for w in worlds:
            if sat(here, there, times, k, phi.lhs, w) and \
                    not sat(here, there, times, k, phi.rhs, w):
                return False
        return True
    if isinstance(phi, Next):
        return k + 1 < lam and phi.interval.contains(times[k + 1] - times[k]) \
            and sat(here, there, times, k + 1, phi.arg, world)
    if isinstance(phi, Prev):
        return k > 0 and phi.interval.contains(times[k] - times[k - 1]) \
            and sat(here, there, times, k - 1, phi.arg, world)
    if isinstance(phi, Until):
        for j in range(k, lam):
            if not phi.interval.contains(times[j] - times[k]):
                continue
            if not sat(here, there, times, j, phi.rhs, world):
                continue
            if all(sat(here, there, times, i, phi.lhs, world) for i in range(k, j)):
                return True
        return False
    if isinstance(phi, Release):
        for j in range(k, lam):
            if not phi.interval.contains(times[j] - times[k]):
                continue
            if sat(here, there, times, j, phi.rhs, world):
                continue
            if not any(sat(here, there, times, i, phi.lhs, world) for i in range(k, j)):
                return False
        return True
    if isinstance(phi, Since):
        for j in range(k + 1):
            if not phi.interval.contains(times[k] - times[j]):
                continue
            if not sat(here, there, times, j, phi.rhs, world):
                continue
            if all(sat(here, there, times, i, phi.lhs, world) for i in range(j + 1, k + 1)):
                return True
        return False
    if isinstance(phi, Trigger):
        for j in range(k + 1):
            if not phi.interval.contains(times[k] - times[j]):
                continue
            if sat(here, there, times, j, phi.rhs, world):
                continue
            if not any(sat(here, there, times, i, phi.lhs, world) for i in range(j + 1, k + 1)):
                return False
        return True
    raise TypeError(phi)


def fo_sat(domain, here, there, phi, env=None, world="h"):
    """First-order here-and-there satisfaction, one variable binding at a time.

    here/there hold (name, point) atoms; world 'h' is the here-world, where
    implication also holds in the there-world, and 't' the there-world.  A
    time point outside the domain raises ValueError when it is reached."""
    env = {} if env is None else env
    atoms = here if world == "h" else there

    def term(t):
        if isinstance(t, fom.Var):
            return env[t.name]
        if t.value not in domain:
            raise ValueError(f"time point {t.value} lies outside the domain")
        return t.value

    if isinstance(phi, fom.Top):
        return True
    if isinstance(phi, fom.Bot):
        return False
    if isinstance(phi, fom.Pred):
        return (phi.name, term(phi.arg)) in atoms
    if isinstance(phi, fom.Diff):
        left, right = term(phi.left), term(phi.right)
        return phi.delta is None or left - right <= phi.delta
    if isinstance(phi, fom.And):
        return fo_sat(domain, here, there, phi.lhs, env, world) and \
            fo_sat(domain, here, there, phi.rhs, env, world)
    if isinstance(phi, fom.Or):
        return fo_sat(domain, here, there, phi.lhs, env, world) or \
            fo_sat(domain, here, there, phi.rhs, env, world)
    if isinstance(phi, fom.Implies):
        worlds = ("h", "t") if world == "h" else ("t",)
        return all(not fo_sat(domain, here, there, phi.lhs, env, w)
                   or fo_sat(domain, here, there, phi.rhs, env, w) for w in worlds)
    if isinstance(phi, (fom.Forall, fom.Exists)):
        test = all if isinstance(phi, fom.Forall) else any
        return test(fo_sat(domain, here, there, phi.body, {**env, phi.var.name: t}, world)
                    for t in domain)
    raise TypeError(phi)


def derived_sat(trace, k, name, interval, arg):
    """The direct satisfaction conditions of the derived operators.

    Sub-formulas are delegated to the library evaluator; what this checks is
    the top-level clause of each derived operator.
    """
    from metricht.semantics import mht_sat

    lam, tau = trace.length, trace.times
    if name == "init":
        return k == 0
    if name == "final":
        return k + 1 == lam
    if name == "wX":
        return k + 1 == lam or not interval.contains(tau[k + 1] - tau[k]) \
            or mht_sat(trace, k + 1, arg)
    if name == "wY":
        return k == 0 or not interval.contains(tau[k] - tau[k - 1]) \
            or mht_sat(trace, k - 1, arg)
    if name == "F":
        return any(interval.contains(tau[i] - tau[k]) and mht_sat(trace, i, arg)
                   for i in range(k, lam))
    if name == "G":
        return all(not interval.contains(tau[i] - tau[k]) or mht_sat(trace, i, arg)
                   for i in range(k, lam))
    if name == "O":
        return any(interval.contains(tau[k] - tau[i]) and mht_sat(trace, i, arg)
                   for i in range(k + 1))
    if name == "H":
        return all(not interval.contains(tau[k] - tau[i]) or mht_sat(trace, i, arg)
                   for i in range(k + 1))
    raise ValueError(name)


def _time_tuples(length, max_time, strict):
    if length == 1:
        yield (0,)
        return
    for rest in _time_tuples(length - 1, max_time, strict):
        lo = rest[-1] + 1 if strict else rest[-1]
        for t in range(lo, max_time + 1):
            yield rest + (t,)


def bounded_space(atoms, max_len, max_time, strict=True):
    """All (here, there, times) triples within the bounds."""
    atoms = tuple(atoms)
    masks = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
             for m in range(1 << len(atoms))]
    for length in range(1, max_len + 1):
        for times in _time_tuples(length, max_time, strict):
            for there in product(masks, repeat=length):
                per_state = [[h for h in masks if h <= t] for t in there]
                for here in product(*per_state):
                    yield here, there, times


def theory_sat(here, there, times, formulas):
    return all(sat(here, there, times, 0, phi, "h") for phi in formulas)


def theories_equivalent(left, right, atoms, max_len, max_time, strict=True):
    """Exhaustive model comparison over the bounded space."""
    for here, there, times in bounded_space(atoms, max_len, max_time, strict):
        if theory_sat(here, there, times, left) != theory_sat(here, there, times, right):
            return False
    return True
