"""Kernel syntax for interval-indexed temporal formulas over timed traces.

The kernel has exactly eleven constructors: atoms, falsum, the three binary
Boolean connectives, and six temporal connectives (one-step, since/until and
trigger/release in both time directions), each indexed by a half-open interval
[m..n) over the naturals where n may be unbounded (written ``w``).  Everything
else -- truth, negation, equivalence, always/eventually and their past twins,
weak one-step operators, #init/#final -- is constructor sugar that expands
immediately.  The printer re-sugars the common patterns on the way out, so
round trips are structural identities.
"""

from __future__ import annotations

from dataclasses import dataclass


class IntervalError(ValueError):
    """Raised for malformed or forbidden interval surface forms."""


@dataclass(frozen=True)
class Interval:
    """The set {i in N | lower <= i < upper}; ``upper is None`` means unbounded."""

    lower: int
    upper: int | None

    def __post_init__(self) -> None:
        if self.lower < 0 or (self.upper is not None and self.upper < 0):
            raise IntervalError("negative interval bounds are not allowed")

    def contains(self, i: int) -> bool:
        return i >= self.lower and (self.upper is None or i < self.upper)

    def is_empty(self) -> bool:
        return self.upper is not None and self.lower >= self.upper

    def is_full(self) -> bool:
        return self.lower == 0 and self.upper is None

    def __str__(self) -> str:
        if self.upper is None:
            return f"[{self.lower}..w)"
        if self.upper == self.lower + 1:
            return f"[{self.lower}]"
        return f"[{self.lower}..{self.upper})"


FULL = Interval(0, None)

def interval_from_bounds(lower: int, upper: int | None,
                         lower_open: bool = False, upper_closed: bool = False) -> Interval:
    """Map any bracket shape onto the canonical half-open form."""
    if upper is None and upper_closed:
        raise IntervalError("a closed upper bound requires a finite bound, not w")
    lo = lower + 1 if lower_open else lower
    hi = upper + 1 if (upper is not None and upper_closed) else upper
    return Interval(lo, hi)


# --------------------------------------------------------------------------
# Formula AST

class Formula:
    """Base class for kernel formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


# One dataclass per field layout: its generated __eq__ and __repr__ serve each subclass.

@dataclass(frozen=True, slots=True)
class _Pair(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class _Step(Formula):
    interval: Interval
    arg: Formula


@dataclass(frozen=True, slots=True)
class _Windowed(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula


class And(_Pair):
    __slots__ = ()


class Or(_Pair):
    __slots__ = ()


class Implies(_Pair):
    __slots__ = ()


class Next(_Step):
    __slots__ = ()


class Prev(_Step):
    __slots__ = ()


class Until(_Windowed):
    __slots__ = ()


class Release(_Windowed):
    __slots__ = ()


class Since(_Windowed):
    __slots__ = ()


class Trigger(_Windowed):
    __slots__ = ()


BOT = Bottom()
KERNEL_BINARY = (Until, Release, Since, Trigger)


# --------------------------------------------------------------------------
# Derived operators (sugar expands on construction)

TRUE = Implies(BOT, BOT)


def neg(phi: Formula) -> Formula:
    return Implies(phi, BOT)


def iff(lhs: Formula, rhs: Formula) -> Formula:
    return And(Implies(lhs, rhs), Implies(rhs, lhs))


def eventually(interval: Interval, phi: Formula) -> Formula:
    """F: some future state within the interval satisfies phi."""
    return Until(interval, TRUE, phi)


def always(interval: Interval, phi: Formula) -> Formula:
    """G: every future state within the interval satisfies phi."""
    return Release(interval, BOT, phi)


def once(interval: Interval, phi: Formula) -> Formula:
    """O: some past state within the interval satisfies phi."""
    return Since(interval, TRUE, phi)


def historically(interval: Interval, phi: Formula) -> Formula:
    """H: every past state within the interval satisfies phi."""
    return Trigger(interval, BOT, phi)


def weak_next(interval: Interval, phi: Formula) -> Formula:
    return Or(Next(interval, phi), neg(Next(interval, TRUE)))


def weak_prev(interval: Interval, phi: Formula) -> Formula:
    return Or(Prev(interval, phi), neg(Prev(interval, TRUE)))


WEAK_STEP = {Next: weak_next, Prev: weak_prev}


def initial() -> Formula:
    return neg(Prev(FULL, TRUE))


def final() -> Formula:
    return neg(Next(FULL, TRUE))


INITIAL = initial()
FINAL = final()


# --------------------------------------------------------------------------
# Pattern recognizers for the sugar the printer and the rewrites care about

def match_not(phi: Formula) -> Formula | None:
    if isinstance(phi, Implies) and phi.rhs == BOT:
        return phi.lhs
    return None


def match_weak(phi: Formula) -> tuple[type, Interval, Formula] | None:
    """(Next or Prev, interval, arg) when phi is weak one-step sugar."""
    if isinstance(phi, Or) and isinstance(phi.lhs, (Next, Prev)):
        step, inner = phi.lhs, match_not(phi.rhs)
        if type(inner) is type(step) and inner.arg == TRUE and inner.interval == step.interval:
            return type(step), step.interval, step.arg
    return None


def operands(phi: Formula) -> tuple[Formula, ...]:
    """phi's direct subformulas, left to right."""
    kind = type(phi)
    if kind is Atom or kind is Bottom:
        return ()
    return (phi.arg,) if kind is Next or kind is Prev else (phi.lhs, phi.rhs)


def postorder(formulas):
    """Each distinct subformula (by id) of the formulas once, its operands first.

    A stack of operand iterators stands in for recursion: depth costs no frames."""
    seen: set[int] = set()
    nodes, stack = [], [iter(formulas)]  # stack[i + 1] walks the operands of nodes[i]
    while stack:
        for part in stack[-1]:
            if id(part) not in seen:
                seen.add(id(part))
                parts = operands(part)
                if parts:
                    nodes.append(part)
                    stack.append(iter(parts))
                    break
                yield part
        else:
            stack.pop()
            if nodes:
                yield nodes.pop()


def map_children(phi: Formula, fn, cls: type | None = None) -> Formula:
    """Rebuild phi, as a `cls` node if given, with fn applied to each direct subformula."""
    if isinstance(phi, (Atom, Bottom)):
        return phi
    cls = cls or type(phi)
    if isinstance(phi, (And, Or, Implies)):
        return cls(fn(phi.lhs), fn(phi.rhs))
    if isinstance(phi, (Next, Prev)):
        return cls(phi.interval, fn(phi.arg))
    return cls(phi.interval, fn(phi.lhs), fn(phi.rhs))


# --------------------------------------------------------------------------
# Theories

@dataclass(frozen=True)
class Theory:
    formulas: tuple[Formula, ...]

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self):
        return iter(self.formulas)

    def atoms(self) -> tuple[str, ...]:
        return tuple(sorted({phi.name for phi in postorder(self.formulas) if type(phi) is Atom}))


# --------------------------------------------------------------------------
# Printing
#
# Precedence ladder, tighter binds higher: atoms 6, unary 5, binary temporal
# 4, & 3, | 2, -> 1.  Binary temporal operators associate to the right and
# take unary-level left operands; -> associates right; & and | chain left.
# The right operand of & and | is parenthesized below binary-temporal level so
# mixed Boolean nesting always carries explicit parentheses.

_PREC_ATOM, _PREC_UNARY, _PREC_BIN, _PREC_AND, _PREC_OR, _PREC_IMPL = 6, 5, 4, 3, 2, 1

_BINARY_NAMES = {Until: "U", Release: "R", Since: "S", Trigger: "T"}
_PREFIX_NAMES = {Next: "X", Prev: "Y", Until: "F", Since: "O", Release: "G", Trigger: "H"}


def format_formula(phi: Formula) -> str:
    """Render phi so that parsing the result reproduces phi exactly."""
    return emit(phi, _shape)


def emit(phi, shape) -> str:
    """Render a formula tree from shape(node) -> (precedence, parts), with an explicit stack.

    A part is text, or (subformula, least precedence, text before it when it
    needs no parentheses); a subformula below its least precedence is
    parenthesized.  A shared subformula is printed at every use."""
    out, stack = [], [iter(((phi, 0, ""),))]
    while stack:
        for part in stack[-1]:
            if type(part) is str:
                out.append(part)
                continue
            node, least, before = part
            precedence, parts = shape(node)
            if precedence < least:
                out.append("(")
                stack.append(iter(")"))
            elif before:
                out.append(before)
            stack.append(iter(parts))
            break
        else:
            stack.pop()
    return "".join(out)


def _iv_txt(interval: Interval) -> str:
    return "" if interval.is_full() else str(interval)


def _shape(phi: Formula) -> tuple[int, tuple]:
    kind = type(phi)
    if kind is Atom:
        return _PREC_ATOM, (phi.name,)
    if kind is Bottom:
        return _PREC_ATOM, ("#false",)
    if kind is Implies:
        if phi == TRUE:
            return _PREC_ATOM, ("#true",)
        if phi == INITIAL:
            return _PREC_ATOM, ("#init",)
        if phi == FINAL:
            return _PREC_ATOM, ("#final",)
        inner = match_not(phi)
        if inner is not None:
            return _PREC_UNARY, ("~", (inner, _PREC_UNARY, ""))
        return _PREC_IMPL, ((phi.lhs, _PREC_OR, ""), " -> ", (phi.rhs, _PREC_IMPL, ""))
    if kind is Or:
        wk = match_weak(phi)
        if wk is not None:
            return _PREC_UNARY, ("w" + _PREFIX_NAMES[wk[0]] + _iv_txt(wk[1]),
                                 (wk[2], _PREC_UNARY, " "))
        return _PREC_OR, ((phi.lhs, _PREC_OR, ""), " | ", (phi.rhs, _PREC_BIN, ""))
    if kind is And:
        return _PREC_AND, ((phi.lhs, _PREC_AND, ""), " & ", (phi.rhs, _PREC_BIN, ""))
    if kind is Next or kind is Prev:
        arg = phi.arg
    elif phi.lhs == (TRUE if kind is Until or kind is Since else BOT):  # F, O, G, H
        arg = phi.rhs
    else:
        op = f" {_BINARY_NAMES[kind]}{_iv_txt(phi.interval)} "
        return _PREC_BIN, ((phi.lhs, _PREC_UNARY, ""), op, (phi.rhs, _PREC_BIN, ""))
    return _PREC_UNARY, (_PREFIX_NAMES[kind] + _iv_txt(phi.interval), (arg, _PREC_UNARY, " "))
