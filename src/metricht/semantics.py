"""Satisfaction of metric formulas on timed here-and-there traces.

Implication is evaluated in both the here-world and the there-world (on a total
trace they coincide: plain metric LTL).  `Program` compiles a theory into a
post-order list of its distinct subformulas; `at` binds it to a time map.  Run
on one trace, each node gets an int with a bit per time position (`Program.at`):
O(log W) int operations per operator, W its window's width in positions.  Time
too sparse for positions keeps a bit per state, and U/R/S/T sweep the states
once from the far end, each window's bounds found by two pointers that only move
toward the state: O(L) a run for L states.  Run on a chunk of `ht_tables`
traces, a node at state k gets an int whose bit i is its truth on trace i
(Knuth, TAOCP 4A 7.1).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate, chain, repeat
from operator import getitem, lshift, rshift, sub
from typing import Iterator

from .syntax import (
    And, Atom, Bottom, Formula, FULL, Implies, Interval, KERNEL_BINARY, Next, Or,
    Prev, Release, Since, Theory, Trigger, TRUE, Until, always, neg, postorder,
)
from .traces import EnumerationBounds, TimedHTTrace, time_maps

WIDTH = 16  # a table spans at most 2**WIDTH traces (8 KB); higher index digits are enumerated
DENSITY = 16  # time positions per state at most; sparser time keeps state indices
first_bit = (1).__and__  # a formula's bits -> 1 when it holds at state 0; no Python frame per call


class Program:
    """A theory compiled into a post-order list of its distinct subformulas.

    `nodes` holds (kind, detail, lhs, rhs) per subformula: the formula class,
    the atom name or window (lower, upper) and the operands' node numbers;
    `roots` holds each formula's node; `endpoints` the sorted finite window
    bounds, which cap the gaps (`at`) and split the differences `pair_tables` reads.
    `chunk_nodes` adds what only `chunk` reads: for & and |, whether the lhs
    is a & or | too (as detail); a negation ~a as kind `neg`, with a's name
    when a is an atom; #false and #true (#false -> #false) as Bottom with
    their truth; None for the lhs of F/O (#true) and G/H (#false), which
    never stops the scan; and whether the node is no leaf and used more than
    once (by other nodes or as a root), or a U/R/S/T below two others (node
    0, a leaf, fills in for a missing operand).  A program bound by
    `at(tau)` runs traces (`bits`), placing the states on a line of time
    positions on first use.  Both runs follow one world rule: the
    there-world is evaluated first, and a here-world implication also needs
    the there-world's value of its node."""

    def __init__(self, formulas):
        number, seen = {}, {}  # node -> its number in post-order; id(subformula) -> number
        for phi in postorder(formulas):
            kind = type(phi)
            if kind is Atom or kind is Bottom:
                node = (kind, getattr(phi, "name", None), 0, 0)
            elif kind is And or kind is Or or kind is Implies:
                node = (kind, None, seen[id(phi.lhs)], seen[id(phi.rhs)])
            else:  # X and Y have one operand, U/R/S/T two
                one = kind is Next or kind is Prev
                node = (kind, (phi.interval.lower, phi.interval.upper),
                        seen[id(phi.arg if one else phi.lhs)], 0 if one else seen[id(phi.rhs)])
            seen[id(phi)] = number.setdefault(node, len(number))
        self.nodes, self.roots = list(number), [seen[id(phi)] for phi in formulas]
        self.endpoints = sorted({x for _, detail, _, _ in self.nodes if type(detail) is tuple
                                 for x in detail if x is not None})
        self.chunk_nodes = []  # shared by the bindings, filled by the first `ht_tables`

    def at(self, tau: tuple[int, ...]) -> Program:
        """This program bound to one time map: the same nodes and roots, its own masks.

        On its first run, state k gets the position p_k = t_k*c + r_k: t the
        time map with every gap capped at max(M, 1), M the last of `endpoints`
        (no window test changes its answer), m the most states sharing a
        stamp, c = 2m - 1 and r_k the rank of k among the states of its stamp.
        A window [lo..hi) is then the same range of positions [L, H) from every
        state, L = 0 if lo = 0 else lo*c - (m - 1) and H = hi*c - (m - 1).
        Positions are taken while they span at most DENSITY bits per state;
        sparser time keeps p_k = k and the nearest-witness scan (`_scan`).  A
        program whose windows are all [0..) reads only the order of the states,
        so it takes p_k = k on its window line."""
        timed = object.__new__(Program)  # not compiled again
        timed.nodes, timed.roots, timed.endpoints = self.nodes, self.roots, self.endpoints
        timed.chunk_nodes = self.chunk_nodes
        timed.tau, timed.full, timed.pos, timed._masks = tau, (1 << len(tau)) - 1, None, {}
        timed._atoms = None  # see `_run`: a search runs many traces through one binding
        return timed

    def pair_tables(self, length: int, cap: int) -> list[list[int]]:
        """Per state pair (i, j), i < j, by j then i: a table from each difference
        tau[j] - tau[i] up to `cap` to the bits of the windows tested on the pair that
        hold there.  The differences from one of `endpoints` up to the next pass the
        same tests, so each such run's bits are found once and repeated over it.
        From state 0 of the roots, X at state k tests (k, k + 1), Y (k - 1, k),
        U/R (k, j) for every j > k and S/T (j, k) for every j < k, and U/R (S/T) may
        evaluate their operands at every later (earlier) state."""
        full, at, tested = (1 << length) - 1, [0] * len(self.nodes), {}
        for root in self.roots:
            at[root] = 1  # bit k: the node may be evaluated at state k
        for node in reversed(range(len(self.nodes))):  # parents first
            (kind, window, a, b), here = self.nodes[node], at[node]
            if kind is Next:
                side, reach = 0, here << 1 & full
            elif kind is Prev:
                side, reach, here = 0, here >> 1, here >> 1
            elif kind is Until or kind is Release:
                side, reach = 1, full & -(here & -here)
            elif kind is Since or kind is Trigger:
                side, reach = 2, (1 << here.bit_length()) - 1
            else:  # &, | and ->; an atom's or #false's operands are node 0, a leaf
                side, reach = None, here
            at[a] |= reach
            at[b] |= reach  # X and Y: node 0
            if side is not None:  # the k of X/Y's (k, k + 1), U/R's (k, j > k), S/T's (j < k, k)
                tested.setdefault(window, [0, 0, 0])[side] |= here
        starts = [0, *(x for x in self.endpoints if 0 < x <= cap)]  # each run's first difference
        runs = list(map(sub, [*starts[1:], cap + 1], starts))
        return [list(chain.from_iterable(map(repeat, [
            sum(1 << w for w, ((lo, hi), (step, ahead, behind)) in enumerate(tested.items())
                if (j == i + 1 and step >> i & 1 or ahead >> i & 1 or behind >> j & 1)
                and lo <= d and (hi is None or d < hi)) for d in starts], runs)))
            for j in range(length) for i in range(j)]

    def position(self, k: int) -> int:
        """The bit of state k in the ints that `bits` yields."""
        if self.pos is None:
            self._place()
        return self.pos[k]

    def _place(self) -> None:
        tau, n, cap = self.tau, len(self.tau), self.endpoints[-1] if self.endpoints else 0
        steps, pos, m = [], range(n), 1  # windows [0..) only: the states in order will do
        if cap:
            steps, pos = list(map(sub, tau[1:], tau)), tau  # a time map starts at 0
            if n > 1 and max(steps) > cap:
                steps = list(map(min, steps, repeat(cap)))
                pos = list(accumulate(steps, initial=0))
        if 0 in steps:  # non-strict: a stamp's states take consecutive positions
            ranks = [0]
            for step in steps:
                ranks.append(0 if step else ranks[-1] + 1)
            m = max(ranks) + 1
            pos = [t * (2 * m - 1) + rank for t, rank in zip(pos, ranks)]
            steps = list(map(sub, pos[1:], pos))
        self.scale = (2 * m - 1, m - 1) if pos[-1] < DENSITY * n else None
        pos = pos if self.scale else range(n)
        self.pos, self.span, self.full = pos, pos[-1] + 1, (1 << n) - 1
        if self.span > n:  # a state's bit and the gap after it, the last state first
            pad = {w: ("0" * w, "1" + "0" * (w - 1)) for w in set(steps)}
            pads = self._pads = [pad[w] for w in reversed(steps)]
            pads.append(("0", "1"))  # state 0
            self.full = int("".join([ones for _, ones in pads]), 2)
        self.gap = self.full ^ (1 << self.span) - 1  # the positions without a state

    def _spread(self, key: str) -> int:
        """A string of state bits, the last state first, as bits at their positions."""
        if self.span == len(key):
            return int(key, 2)
        return int("".join(map(getitem, self._pads, map("1".__eq__, key))), 2)

    def bits(self, here: tuple, there: tuple) -> Iterator[int]:
        """Each formula's bits in turn, bit `position(k)` its truth at state k in the
        here-world, evaluating the nodes it needs then: its there-world run comes
        first.  Bits at positions without a state are 0, and position 0 is state 0."""
        upper, out = None if here == there else [], []
        atoms, self._atoms = self._atoms, {} if self._atoms is None else self._atoms
        for root in self.roots:
            if upper is not None:
                self._run(there, upper, root + 1, None, atoms)
            yield self._run(here, out, root + 1, upper, atoms)[root]

    def _run(self, states: tuple, out: list[int], stop=None, upper=None, atoms=None) -> list[int]:
        """One world's bits per node up to `stop`; `upper` holds the there-world's.
        `atoms` keeps an atom's bits by its state bits, from a binding's second trace on."""
        if self.pos is None:
            self._place()
        full, gap, states = self.full, self.gap, states[::-1]
        for kind, detail, a, b in self.nodes[len(out):stop]:
            if kind is Atom and gap and atoms is None:  # one pass over states and gaps
                value = int("".join([pad[detail in s]
                                     for s, pad in zip(states, self._pads)]), 2)
            elif kind is Atom:
                key = "".join(["1" if detail in s else "0" for s in states])
                value = atoms.get(key) if gap else int(key, 2)
                if value is None:
                    value = atoms[key] = self._spread(key)
            elif kind is And:
                value = out[a] & out[b]
            elif kind is Or:
                value = out[a] | out[b]
            elif kind is Implies:
                value = full & ~(out[a] & ~out[b])
                if upper is not None:  # this node's there-world value
                    value &= upper[len(out)]
            elif kind is Bottom:
                value = 0
            elif kind is Next:  # the next state's bit, carried down over the positions between
                value = self._reach(gap, out[a]) >> 1 & self._gaps(detail)
            elif kind is Prev:  # an addition carries each bit up over the positions after it
                value = out[a] & self._gaps(detail)
                value = (gap | value) + value & full
            elif self.scale:
                value = self._line(kind, detail, out[a], out[b])
            else:
                value = self._scan(kind, detail, out[a], out[b])
            out.append(value)
        return out

    def chunk(self, node: int, k: int, here: dict, there: dict, full: int, memo: dict,
              fresh: bool = False) -> int:
        """Bit i: trace i of a chunk satisfies the node at state k, on demand.

        here/there map each atom to its per-state cell masks (`ht_tables`); an
        atom without cells is false everywhere.  ``here is there`` marks the
        there-world; every lane is an HT trace, so ~a is read in the there-world
        alone.  `memo` keeps a marked node's bits by (node, k, world) for the
        chunk, so a node with many paths to it, or a window asked at k by
        many windows of an outer one, is evaluated once, `fresh`."""
        kind, detail, a, b, shared = self.chunk_nodes[node]
        if shared and not fresh:
            key = (node, k, here is there)
            if key not in memo:
                memo[key] = self.chunk(node, k, here, there, full, memo, True)
            return memo[key]
        if kind is Atom:
            cells = here.get(detail)
            return cells[k] if cells else 0
        if kind is neg:  # a negated atom reads its there-cell in place
            if detail is None:
                return full ^ self.chunk(a, k, there, there, full, memo)
            cells = there.get(detail)
            return full ^ cells[k] if cells else full
        if kind is And or kind is Or:
            spine = []  # a left spine of & and | (`detail`), walked in a loop, not a frame each
            while detail:
                spine.append((kind, b))
                kind, detail, a, b, _ = self.chunk_nodes[a]
            out = self.chunk(a, k, here, there, full, memo)
            while True:  # up the spine, skipping an operand where `and`/`or` would
                if kind is And and out:
                    out &= self.chunk(b, k, here, there, full, memo)
                elif kind is Or and out != full:
                    out |= self.chunk(b, k, here, there, full, memo)
                if not spine:
                    return out
                kind, b = spine.pop()
        if kind is Implies:
            out = self.chunk(a, k, here, there, full, memo)
            out = full ^ out | self.chunk(b, k, here, there, full, memo)
            if out and here is not there:
                out &= self.chunk(node, k, there, there, full, memo)
            return out
        if kind is Bottom:  # #false, or #true as `detail`
            return full if detail else 0
        (lower, upper), tau = detail, self.tau
        if kind is Next or kind is Prev:
            j = k + 1 if kind is Next else k - 1
            d = abs(tau[j] - tau[k]) if 0 <= j < len(tau) else -1
            inside = lower <= d and (upper is None or d < upper)
            return self.chunk(a, j, here, there, full, memo) if inside else 0
        # `pending` holds the undecided traces; R/T are U/S on complemented operands
        out, pending, flip = 0, full, full if kind is Release or kind is Trigger else 0
        for j in range(k, len(tau)) if kind is Until or kind is Release else range(k, -1, -1):
            d = abs(tau[j] - tau[k])
            if upper is not None and d >= upper:
                break
            if d >= lower:
                hit = pending & (self.chunk(b, j, here, there, full, memo) ^ flip)
                out, pending = out | hit, pending ^ hit
            if pending and a is not None:
                pending &= self.chunk(a, j, here, there, full, memo) ^ flip
            if not pending:
                break
        return out ^ flip

    def _line(self, kind, window: tuple[int, int | None], lhs: int, rhs: int) -> int:
        """U/S on the position line, as a bounded until: bit u is set when rhs holds at
        some v with v - u (U) or u - v (S) in [start, start + width), and lhs from
        u up to but not at v; a position without a state has lhs and not rhs.  R/T
        are U/S on complemented operands.

        By doubling: a and b are A_s (rhs within s of u, lhs before it) and B_s
        (lhs on all s) for s = 1, 2, 4..., A_{x+y}(u) = A_x(u) | B_x(u) & A_y(u + x)
        and B likewise; the until is B_start & A_width read start positions on.
        With no end, A is the fixpoint `_reach` for U and one addition for S."""
        (lo, hi), (c, slack), full, span = window, self.scale, self.full, self.span
        start = lo and lo * c - slack
        width = span if hi is None else min(hi * c - slack - start, span)
        future = kind is Until or kind is Release
        flip = full if kind is Release or kind is Trigger else 0
        if start >= span or width <= 0:
            return flip
        lhs, rhs = lhs ^ flip | self.gap, rhs ^ flip
        shift, s, done, lead, reach = rshift if future else lshift, 1, 0, -1, 0
        if lhs == full | self.gap:  # lhs everywhere: rhs anywhere in the window
            if hi is None:  # below the last rhs (U), above the first (S)
                reach = (1 << rhs.bit_length()) - 1 if future else -(rhs & -rhs)
            while hi is not None and s <= width:
                if width & s:
                    reach |= shift(rhs, done)
                    done += s
                rhs |= shift(rhs, s)
                s <<= 1
            return shift(reach, start) & full ^ flip
        if hi is None:
            both = lhs | rhs
            reach, width = self._reach(lhs, rhs) if future else (both + rhs ^ both ^ rhs) >> 1, 0
        a, b, before = rhs, lhs, -1  # B of the width so far
        while s <= start or s <= width:
            if start & s:
                lead &= shift(b, start & s - 1)
            if width & s:
                reach |= before & shift(a, done)
                before &= shift(b, done)
                done += s
            if s << 1 <= width:
                a |= b & shift(a, s)
            b &= shift(b, s)
            s <<= 1
        return lead & shift(reach, start) & full ^ flip

    @staticmethod
    def _reach(lhs: int, rhs: int) -> int:
        """The until of a window [0..) toward the higher bits: doubling to a fixpoint."""
        s = 1
        while lhs:
            grown = rhs | lhs & rhs >> s
            if grown == rhs:
                break
            rhs, lhs, s = grown, lhs & lhs >> s, s << 1
        return rhs

    def _gaps(self, window: tuple[int, int | None]) -> int:
        """Bit `position(k)`: state k + 1 lies within the window of state k."""
        if window not in self._masks:
            (lo, hi), tau = window, self.tau
            key = "".join(["1" if lo <= d and (hi is None or d < hi) else "0"
                           for d in map(sub, tau[:0:-1], tau[-2::-1])])
            self._masks[window] = self._spread("0" + key)
        return self._masks[window]

    def _scan(self, kind, window: tuple[int, int | None], lhs: int, rhs: int) -> int:
        """U/S with a bit per state, by the nearest witness, in one pass from the far
        end.  Two pointers bound state k's window: `start` its nearest state and
        `stop` the first beyond it, both only moving toward k as k does.  U holds
        at k when `hit`, the nearest rhs state from `start` on, lies before `stop`
        and no farther than the nearest lhs failure from k on.  O(L) a run for L
        states.  S/T look toward the past; R/T are U/S on complemented operands."""
        n, future = len(self.tau), kind is Until or kind is Release
        (lo, hi), tau = window, self.tau
        flip = self.full if kind is Release or kind is Trigger else 0
        lhs, rhs = (bin(bits ^ flip | 1 << n)[:2:-1] for bits in (lhs, rhs))  # state 0 first
        step, far = (1, n) if future else (-1, -1)
        start = stop = hit = fail = far  # far: no such state
        out = []
        for k in range(n - 1, -1, -1) if future else range(n):
            t = tau[k]
            while start != k and step * (tau[start - step] - t) >= lo:
                start -= step
                hit = start if rhs[start] == "1" else hit
            while hi is not None and stop != k and step * (tau[stop - step] - t) >= hi:
                stop -= step
            fail = k if lhs[k] == "0" else fail
            out.append("1" if step * hit < step * stop and step * hit <= step * fail else "0")
        return int("".join(out if future else reversed(out)), 2) ^ flip


def region_keys(bounds: EnumerationBounds,
                program: Program) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Each time map within bounds, in enumeration order, with its region key.

    Satisfaction at state 0 reads time only through tests of tau[j] - tau[i]
    (i < j) against the windows of the operators that reach the pair (i, j)
    from state 0.  The key holds which of them hold, pair by pair
    (`Program.pair_tables`), so maps with equal keys (one region class) give
    the same verdict for every state sequence.  Each pair's table runs up to
    the cap, the lesser of M, the last of `endpoints`, and max_time: a larger
    difference passes the tests M does, and none exceeds max_time.
    """
    cap = min(program.endpoints[-1] if program.endpoints else 0, bounds.max_time)
    for length in bounds.lengths():
        tables = program.pair_tables(length, cap)
        for times in time_maps(length, bounds.max_time, bounds.strict_only):
            diffs = [t - s if t - s < cap else cap for j, t in enumerate(times) for s in times[:j]]
            yield times, tuple(map(getitem, tables, diffs))


def state_bits(trace: TimedHTTrace, formulas) -> list[int]:
    """Each formula's truth at every state of the trace, bit k for state k, in one pass:
    `Program.bits` read back from time positions to state indices."""
    program = Program(formulas).at(trace.times)
    out = list(program.bits(trace.here, trace.there))
    top = program.position(trace.length - 1)
    if top == trace.length - 1:  # a position per state
        return out
    order = [top - p for p in reversed(program.pos)]  # characters from the last state down
    return [int("".join(map(f"{bits:0{top + 1}b}".__getitem__, order)), 2) for bits in out]


def mht_sat(trace: TimedHTTrace, k: int, phi: Formula) -> bool:
    """Does the trace satisfy phi at state k?"""
    if not 0 <= k < trace.length:
        raise IndexError(f"state index {k} out of range for length {trace.length}")
    program = Program((phi,)).at(trace.times)
    return next(program.bits(trace.here, trace.there)) >> program.position(k) & 1 == 1


@cache
def _digit_masks(radix: int, width: int) -> tuple[tuple[int, int], ...]:
    """Per digit d < width of the lanes i < radix**width (digit d of i in base
    radix): the lanes where it is at least radix - 2 (its cell holds in the
    there-world) and where it is radix - 1 (in the here-world), each one
    period of radix**(d + 1) lanes times a repunit."""
    lanes, masks = radix ** width, []
    for d in range(width):
        step = radix ** d  # lanes per value of the digit
        end = 1 << radix * step  # just past one period
        repunit = ((1 << lanes) - 1) // (end - 1)
        masks.append(tuple((end - (1 << v * step)) * repunit for v in (radix - 2, radix - 1)))
    return tuple(masks)


def ht_tables(program: Program, alphabet: tuple[str, ...],
              there: tuple[frozenset[str], ...] | None = None) -> Iterator[tuple]:
    """The HT traces with the program's time map, in chunks of lanes, in search order.

    Here-state k owns a digit per atom of the alphabet or, when `there` fixes
    the there-states (the alphabet holding their atoms), per atom of there[k];
    `digits` lists them as (state, atom), the lowest first: the later states
    first, each state's atoms ascending.  With `there` free a digit is ternary
    (0 absent, 1 there only, 2 here and there), so every lane is an HT trace;
    with `there` fixed it is the here-bit.  A chunk spans the lowest `width`
    digits, and the chunks come by their outer there-pattern, then their outer
    here-pattern, each read as a binary number.  Yields (outer there-pattern,
    masks, cells) per chunk: masks holds the chunk's `_digit_masks`, the top
    digit first; `program.chunk(node, k, *cells)` evaluates a node on it,
    `lane_trace` reads a lane's trace back from it, and cells[2] has a bit per
    lane (cells ends with the chunk's memo).
    """
    nodes, lam = program.nodes, len(program.tau)
    if not program.chunk_nodes:  # once per compiled program: its bindings share the list
        uses = Counter(program.roots + [c for _, _, a, b in nodes for c in (a, b)])
        deep = [0] * len(nodes)  # U/R/S/T above a node, up to 2 (X and Y ask one state)
        for i in reversed(range(len(nodes))):  # parents first
            kind, _, a, b = nodes[i]
            inner = min(deep[i] + (kind in KERNEL_BINARY), 2)
            deep[a], deep[b] = max(deep[a], inner), max(deep[b], inner)
        truth = {}  # #false and #true by node
        for i, (kind, detail, a, b) in enumerate(nodes):
            if kind is Bottom:
                truth[i] = False
            elif kind is Implies and truth.get(b) is False:  # ~a: HT decides it in the there-world
                if a in truth:  # ~#false or ~#true: a constant
                    kind, detail = Bottom, not truth[a]
                    truth[i] = detail
                else:
                    kind, detail = neg, nodes[a][1] if nodes[a][0] is Atom else None
            elif kind is And or kind is Or:
                detail = nodes[a][0] in (And, Or)
            elif kind in KERNEL_BINARY and truth.get(a) is (kind is Until or kind is Since):
                a = None  # F/O's #true, G/H's #false
            leaf = kind is Bottom or type(detail) is str  # an atom, a negated atom, a constant
            program.chunk_nodes.append((kind, detail, a, b, uses[i] > 1 and not leaf
                                        or deep[i] > 1 and kind in KERNEL_BINARY))
    atoms = [alphabet] * lam if there is None else [sorted(state) for state in there]
    digits = [(k, a) for k in reversed(range(lam)) for a in atoms[k]]
    radix = 3 if there is None else 2
    width = min(len(digits), WIDTH)
    while radix ** width > 1 << WIDTH:
        width -= 1
    outer, inner = len(digits) - width, _digit_masks(radix, width)
    full, top = (1 << radix ** width) - 1, inner[::-1]
    for high in range(0 if there is None else (1 << outer) - 1, 1 << outer):
        low = 0
        while True:  # the subsets of high, ascending; outer digit j is (radix - 2) high_j + low_j
            by_digit = inner + tuple((full if high >> j & 1 else 0, full if low >> j & 1 else 0)
                                     for j in range(outer))
            here, upper = {a: [0] * lam for a in alphabet}, {a: [0] * lam for a in alphabet}
            for (k, a), cell in zip(digits, by_digit):
                upper[a][k], here[a][k] = cell
            yield high, top, (here, upper, full, {})
            if low == high:
                break
            low = low - high & high


def lane_trace(cells: tuple, lane: int, tau: tuple[int, ...]) -> TimedHTTrace:
    """The HT trace on bit `lane` of a chunk's here-cells (cells[0]) and there-cells (cells[1])."""
    here, there = (tuple(frozenset(a for a, bits in world.items() if bits[k] >> lane & 1)
                         for k in range(len(tau))) for world in cells[:2])
    return TimedHTTrace(here, there, tau)


def first_trace(program: Program, alphabet: tuple[str, ...], sides: tuple,
                there: tuple[frozenset[str], ...] | None = None) -> TimedHTTrace | None:
    """The first `ht_tables` trace in search order on which an odd number of
    `sides`, each a list of roots, hold at state 0 (with one side: on which
    its roots hold), if any.

    Search order runs over the there-sequences, then the here-sequences, each
    read as the binary number of its cells.  A chunk's first hit is found by
    narrowing digit by digit from the top, over the there-cells, then the
    here-cells.  Of the chunks of one outer there-pattern, the hit with the
    least inner there-pattern wins, the earliest on a tie."""
    best = None
    for high, masks, cells in ht_tables(program, alphabet, there):
        if best and best[2] != high:
            break
        bits = 0
        for roots in sides:
            out = cells[2]
            for root in roots:
                out = out and out & program.chunk(root, 0, *cells)
            bits ^= out
        if bits:
            for side in (0, 1):  # keep the lanes whose cell is 0, if any, the top digit first
                for mask in masks:
                    hit = bits & mask[side]
                    bits = bits ^ hit or hit
            lane = bits.bit_length() - 1
            inner = [upper >> lane & 1 for upper, _ in masks]
            if best is None or inner < best[0]:
                best = inner, lane_trace(cells, lane, program.tau), high
            if inner == [upper & 1 for upper, _ in masks]:  # lane 0's, the least there is
                break
    return None if best is None else best[1]


def is_model(trace: TimedHTTrace, theory: Theory) -> bool:
    """Does the trace satisfy every formula of the theory at state 0?"""
    program = Program(theory.formulas).at(trace.times)
    return all(map(first_bit, program.bits(trace.here, trace.there)))


def em_theory(alphabet) -> Theory:
    """Per-atom excluded-middle axioms; exactly the total traces satisfy them."""
    return Theory(tuple(always(FULL, Or(Atom(p), neg(Atom(p)))) for p in alphabet))


def strictness_axiom() -> Formula:
    """No two consecutive states may share a time stamp: G ~X[0..0] #true."""
    return always(FULL, neg(Next(Interval(0, 1), TRUE)))
