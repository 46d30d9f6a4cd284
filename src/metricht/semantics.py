"""Satisfaction of metric formulas on timed here-and-there traces.

Implication is evaluated in both the here-world and the there-world, which
is what separates this semantics from the classical (total-trace) one; on a
total trace the two worlds coincide and the evaluator is plain metric LTL.
A binary temporal operator scans only the states inside its time window and
stops at the first state whose left operand decides the verdict.

`_table` is the same evaluator run on many traces at once (truth tables held
in ints, Knuth, TAOCP 4A 7.1): all traces of one time map share every
interval test, so one pass decides a whole chunk of them.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from .syntax import (
    And, Atom, Bottom, Formula, FULL, Implies, Interval, Next, Or, Prev,
    Release, Since, Theory, Trigger, TRUE, Until, always, neg,
)
from .traces import TimedHTTrace

WIDTH = 16  # a table spans at most 2**WIDTH traces (8 KB); higher index bits are enumerated


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


def _table(here: dict[str, list[int]], there: dict[str, list[int]], tau: tuple[int, ...],
           full: int, k: int, phi: Formula) -> int:
    """_sat on a chunk of traces: bit i is set when trace i satisfies phi at state k.

    here/there map each atom to its per-state cell masks (`ht_tables`); an atom
    without cells is false everywhere.  ``here is there`` marks the there-world.
    """
    lam = len(tau)
    if isinstance(phi, Bottom):
        return 0
    if isinstance(phi, Atom):
        cells = here.get(phi.name)
        return cells[k] if cells else 0
    if isinstance(phi, And):
        lhs = _table(here, there, tau, full, k, phi.lhs)
        return lhs and lhs & _table(here, there, tau, full, k, phi.rhs)
    if isinstance(phi, Or):
        lhs = _table(here, there, tau, full, k, phi.lhs)
        return full if lhs == full else lhs | _table(here, there, tau, full, k, phi.rhs)
    if isinstance(phi, Implies):
        out = full ^ (_table(here, there, tau, full, k, phi.lhs)
                      & ~_table(here, there, tau, full, k, phi.rhs))
        if out and here is not there:
            out &= _table(there, there, tau, full, k, phi)
        return out
    if isinstance(phi, Next):
        return _table(here, there, tau, full, k + 1, phi.arg) \
            if k + 1 < lam and phi.interval.contains(tau[k + 1] - tau[k]) else 0
    if isinstance(phi, Prev):
        return _table(here, there, tau, full, k - 1, phi.arg) \
            if k > 0 and phi.interval.contains(tau[k] - tau[k - 1]) else 0
    if isinstance(phi, (Until, Release, Since, Trigger)):
        # _sat's scan over all traces: `pending` holds the undecided ones.  R/T
        # run U/S's scan on complemented operands and complement the verdict.
        flip = 0 if isinstance(phi, (Until, Since)) else full
        step = 1 if isinstance(phi, (Until, Release)) else -1
        lower, upper = phi.interval.lower, phi.interval.upper
        out, pending = 0, full
        for j in range(k, lam if step == 1 else -1, step):
            d = abs(tau[j] - tau[k])
            if upper is not None and d >= upper:
                break
            if d >= lower:
                rhs = _table(here, there, tau, full, j, phi.rhs) ^ flip
                out |= pending & rhs
                pending &= ~rhs
            if pending:
                pending &= _table(here, there, tau, full, j, phi.lhs) ^ flip
            if not pending:
                break
        return out ^ flip
    raise TypeError(f"not a formula node: {phi!r}")


def _bit_masks(width: int) -> list[int]:
    """Mask b has bit i set exactly when bit b of i is set, for every i < 2**width."""
    masks: list[int] = []
    for b in range(width):  # double the span of the masks so far, add the top one
        span = 1 << b
        masks = [mask | mask << span for mask in masks] + [((1 << span) - 1) << span]
    return masks


def _layout(alphabet: tuple[str, ...], there: tuple[frozenset[str], ...] | None,
            lam: int) -> tuple[list[tuple[str, ...]], list[int], int]:
    """Per here-state, the atoms it owns a bit for and the offset of the lowest;
    and the number of here-bits.  The later states own the lower bits."""
    atoms = [alphabet] * lam if there is None else [tuple(sorted(state)) for state in there]
    offsets, bits = [0] * lam, 0
    for k in reversed(range(lam)):
        offsets[k], bits = bits, bits + len(atoms[k])
    return atoms, offsets, bits


def ht_tables(alphabet: tuple[str, ...], tau: tuple[int, ...],
              there: tuple[frozenset[str], ...] | None = None) -> Iterator[tuple]:
    """The HT traces with time map tau, in chunks of at most 2**WIDTH, ascending.

    Here-state k owns a bit per atom of the alphabet or, when `there` fixes the
    there-states (the alphabet holding their atoms), per atom of there[k];
    atom i of state k is index bit i plus the bits owned by the states after
    k.  Free there-cells sit above all here-bits in the same layout.
    Ascending index order is then enumeration order: each there-sequence as
    in `total_traces_at`, and within it the here-sequences as in
    `refinements`.  Yields (first index, valid, table) per chunk: bit i of
    valid is set when here is included in there at index first + i, and
    table(k, phi) has bit i set when that trace satisfies phi at state k.
    """
    lam = len(tau)
    atoms, offsets, here_bits = _layout(alphabet, there, lam)
    bits = here_bits * (2 if there is None else 1)
    width = min(bits, WIDTH)
    full = (1 << (1 << width)) - 1
    masks = _bit_masks(width)

    def world(cells: list[int], base: int) -> dict[str, list[int]]:
        out = {a: [0] * lam for a in alphabet}
        for k, (state, offset) in enumerate(zip(atoms, offsets)):
            for i, a in enumerate(state):
                out[a][k] = cells[base + offset + i]
        return out

    for chunk in range(1 << (bits - width)):
        cells = masks + [full if chunk >> b & 1 else 0 for b in range(bits - width)]
        here, valid = world(cells, 0), full
        if there is None:
            upper = world(cells, here_bits)
            for a in alphabet:
                for h, t in zip(here[a], upper[a]):
                    valid &= ~(h & ~t)
        else:  # every index is a refinement of there
            upper = {a: [full if a in state else 0 for state in there] for a in alphabet}
        yield chunk << width, valid, partial(_table, here, upper, tau, full)


def ht_trace(index: int, alphabet: tuple[str, ...], tau: tuple[int, ...],
             there: tuple[frozenset[str], ...] | None = None) -> TimedHTTrace:
    """The trace at this index of the `ht_tables` layout."""
    atoms, offsets, here_bits = _layout(alphabet, there, len(tau))

    def states(bits: int) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(a for i, a in enumerate(state) if bits >> offset + i & 1)
                     for state, offset in zip(atoms, offsets))

    return TimedHTTrace(states(index), there if there is not None
                        else states(index >> here_bits), tau)


def first_trace(alphabet: tuple[str, ...], tau: tuple[int, ...], select,
                there: tuple[frozenset[str], ...] | None = None) -> TimedHTTrace | None:
    """The `ht_tables` trace of lowest index whose bit select(models) sets, if any.

    models(theory) has the bits of a chunk's valid traces that satisfy every
    formula of the theory at state 0.
    """
    for base, valid, table in ht_tables(alphabet, tau, there):
        def models(theory: Theory) -> int:
            out = valid
            for phi in theory.formulas:
                out = out and out & table(0, phi)
            return out

        bits = select(models)
        if bits:
            return ht_trace(base + (bits & -bits).bit_length() - 1, alphabet, tau, there)
    return None


def is_model(trace: TimedHTTrace, theory: Theory) -> bool:
    """Does the trace satisfy every formula of the theory at state 0?"""
    return all(mht_sat(trace, 0, phi) for phi in theory.formulas)


def em_theory(alphabet) -> Theory:
    """Per-atom excluded-middle axioms; exactly the total traces satisfy them."""
    return Theory(tuple(always(FULL, Or(Atom(p), neg(Atom(p)))) for p in alphabet))


def strictness_axiom() -> Formula:
    """No two consecutive states may share a time stamp: G ~X[0..0] #true."""
    return always(FULL, neg(Next(Interval(0, 1), TRUE)))
