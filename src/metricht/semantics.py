"""Satisfaction of metric formulas on timed here-and-there traces.

Implication is evaluated in both the here-world and the there-world (on a
total trace they coincide: plain metric LTL).  `Program` compiles a theory
against one time map into a post-order list of its distinct subformulas; on
a trace each node gets an int whose bit k is its truth at state k, so one
pass, linear per unbounded operator and O(L*W) per windowed one (W the states
a window spans), decides the whole trace.  `_table` runs many traces at once
instead (truth tables in ints, Knuth, TAOCP 4A 7.1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from typing import Iterator

from .syntax import (
    And, Atom, Bottom, Formula, FULL, Implies, Interval, Next, Or, Prev,
    Release, Since, Theory, Trigger, TRUE, Until, always, neg,
)
from .traces import TimedHTTrace

WIDTH = 16  # a table spans at most 2**WIDTH traces (8 KB); higher index bits are enumerated


class Program:
    """A theory compiled against one time map: its distinct subformulas in post-order.

    `nodes` holds (kind, detail, lhs, rhs) per subformula: the formula class,
    the atom name or window (lower, upper) and the operands' node numbers;
    `roots` holds each formula's node.  Masks are built on first use and kept.
    Non-total traces run both worlds at once: here in bits [0, n), there in
    [2n, 3n); no shift spans the zeros between them."""

    def __init__(self, formulas, tau: tuple[int, ...], total: bool = True):
        self.tau, self.shift, self._masks = tau, 0 if total else 2 * len(tau), {}
        self.lanes = 1 | 1 << self.shift  # times a one-world mask: its copy in every world
        self.full = ((1 << len(tau)) - 1) * self.lanes
        number, seen = {}, {}  # node -> its number in post-order; id(subformula) -> number

        def visit(phi: Formula) -> int:
            node = seen.get(id(phi))
            if node is None:
                kind = type(phi)
                if kind is Atom or kind is Bottom:
                    node = (kind, getattr(phi, "name", None), 0, 0)
                elif kind is And or kind is Or or kind is Implies:
                    node = (kind, None, visit(phi.lhs), visit(phi.rhs))
                else:  # X and Y have one operand, U/R/S/T two
                    one = kind is Next or kind is Prev
                    node = (kind, (phi.interval.lower, phi.interval.upper),
                            visit(phi.arg if one else phi.lhs), 0 if one else visit(phi.rhs))
                node = seen[id(phi)] = number.setdefault(node, len(number))
            return node

        self.roots = [visit(phi) for phi in formulas]
        self.nodes = list(number)

    def values(self, here: tuple, there: tuple, out=None, stop=None) -> list[int]:
        """Each node's bits on this trace, extending `out` up to node `stop`;
        a program for total traces reads only `there`."""
        full, shift, out = self.full, self.shift, [] if out is None else out
        upper = full >> shift << shift  # the there-world bits (all bits when total)
        # the states from the highest bit down: both worlds and the zeros between
        states = there[::-1] + (frozenset(),) * (shift // 2) + here[::-1] if shift else there[::-1]
        for kind, detail, a, b in self.nodes[len(out):stop]:
            if kind is Atom:
                value = int("".join(["1" if detail in s else "0" for s in states]), 2)
            elif kind is And:
                value = out[a] & out[b]
            elif kind is Or:
                value = out[a] | out[b]
            elif kind is Implies:
                value = full & ~(out[a] & ~out[b])
                value &= value >> shift | upper  # here-world bits ask the there-world too
            elif kind is Bottom:
                value = 0
            elif kind is Next or kind is Prev:
                gaps = self._gaps(detail)
                value = out[a] >> 1 & gaps if kind is Next else (out[a] & gaps) << 1
            else:
                value = self._binary(kind, detail, out[a], out[b])
            out.append(value)
        return out

    def verdicts(self, here, there, k: int = 0) -> Iterator[bool]:
        """Each formula's truth at state k in turn, evaluating the nodes it needs then."""
        out: list[int] = []
        return (self.values(here, there, out, root + 1)[root] >> k & 1 == 1 for root in self.roots)

    def _gaps(self, window: tuple[int, int | None]) -> int:
        """Bit k: state k + 1 lies within the window of state k (the scan's offset 1)."""
        masks, unbounded = self._window(window, True), window[1] is None  # open past masks
        return masks[1][0] if len(masks) > 1 else (self.full >> 1 & self.full) * unbounded

    def _binary(self, kind, window: tuple[int, int | None], lhs: int, rhs: int) -> int:
        """U/S: some j in the window has rhs, and lhs from k up to but not at j.

        Offset d looks at j = k + d (U) or k - d (S) for every k at once, and
        `pending` holds the undecided states; once an unbounded window is open
        for all of them, the log-step fill of [0..w) read d states away decides
        the rest.  R/T are U/S on complemented operands."""
        flip = self.full if kind is Release or kind is Trigger else 0
        future = kind is Until or kind is Release
        lhs, rhs, out, pending = lhs ^ flip, rhs ^ flip, 0, self.full
        for d, (inside, alive) in enumerate(masks := self._window(window, future)):
            pending &= alive
            out |= pending & inside & (rhs >> d if future else rhs << d)
            pending &= lhs >> d if future else lhs << d
            if not pending:
                break
        if pending and window[1] is None:
            d, s = len(masks), 1
            while s < len(self.tau):  # rhs: some j within s of k
                grown = rhs | lhs & (rhs >> s if future else rhs << s)
                if grown == rhs:  # a fixpoint: no j further away adds a state
                    break
                rhs, lhs, s = grown, lhs & (lhs >> s if future else lhs << s), s << 1
            out |= pending & (rhs >> d if future else rhs << d)
        return out ^ flip

    def _window(self, window: tuple[int, int | None], future: bool) -> list[tuple[int, int]]:
        """Per offset d: the states whose window holds the state d away, and those
        whose window is still open there; until all are closed, or all open."""
        if (window, future) in self._masks:
            return self._masks[window, future]
        (lo, hi), tau, n = window, self.tau, len(self.tau)
        opened, closed, last = [0] * (n + 1), [0] * (n + 1), 0
        for k, t in enumerate(tau if lo or hi is not None else ()):
            if future:  # the window of k opens at offset a and closes at b
                a = bisect_left(tau, t + lo, k) - k
                b = n - k if hi is None else bisect_left(tau, t + hi, k) - k
            else:
                a = k + 1 - bisect_right(tau, t - lo, 0, k + 1)
                b = k + 1 if hi is None else k + 1 - bisect_right(tau, t - hi, 0, k + 1)
            opened[a] |= 1 << k
            closed[b] |= 1 << k
            last = max(last, b if hi is not None else min(a, b))
        masks, entered, alive = [], 0, (1 << n) - 1
        for d in range(last):
            entered, alive = entered | opened[d], alive & ~closed[d]
            masks.append(((entered & alive) * self.lanes, alive * self.lanes))
        self._masks[window, future] = masks
        return masks


def state_bits(trace: TimedHTTrace, formulas) -> list[int]:
    """Each formula's truth at every state of the trace, bit k for state k, in one pass."""
    program = Program(formulas, trace.times, trace.is_total())
    values, states = program.values(trace.here, trace.there), (1 << trace.length) - 1
    return [values[root] & states for root in program.roots]


def mht_sat(trace: TimedHTTrace, k: int, phi: Formula) -> bool:
    """Does the trace satisfy phi at state k?"""
    if not 0 <= k < trace.length:
        raise IndexError(f"state index {k} out of range for length {trace.length}")
    return state_bits(trace, (phi,))[0] >> k & 1 == 1


def _table(here: dict[str, list[int]], there: dict[str, list[int]], tau: tuple[int, ...],
           full: int, k: int, phi: Formula) -> int:
    """Satisfaction on a chunk of traces: bit i is set when trace i satisfies phi at state k.

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
        # a window scan over all traces: `pending` holds the undecided ones.  R/T
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
    in `state_sequences`, and within it the here-sequences as in
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
    program = Program(theory.formulas, trace.times, trace.is_total())
    return all(program.verdicts(trace.here, trace.there))


def em_theory(alphabet) -> Theory:
    """Per-atom excluded-middle axioms; exactly the total traces satisfy them."""
    return Theory(tuple(always(FULL, Or(Atom(p), neg(Atom(p)))) for p in alphabet))


def strictness_axiom() -> Formula:
    """No two consecutive states may share a time stamp: G ~X[0..0] #true."""
    return always(FULL, neg(Next(Interval(0, 1), TRUE)))
