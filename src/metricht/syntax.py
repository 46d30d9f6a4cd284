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

    def is_singleton(self) -> bool:
        return self.upper is not None and self.upper == self.lower + 1

    def subset_of(self, other: "Interval") -> bool:
        if self.is_empty():
            return True
        if other.upper is None:
            return self.lower >= other.lower
        return self.upper is not None and self.lower >= other.lower and self.upper <= other.upper

    def __str__(self) -> str:
        if self.upper is None:
            return f"[{self.lower}..w)"
        if self.is_singleton():
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


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Next(Formula):
    interval: Interval
    arg: Formula


@dataclass(frozen=True)
class Prev(Formula):
    interval: Interval
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Release(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Since(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Trigger(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula


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


def match_weak_next(phi: Formula) -> tuple[Interval, Formula] | None:
    if isinstance(phi, Or) and isinstance(phi.lhs, Next):
        inner = match_not(phi.rhs)
        if isinstance(inner, Next) and inner.arg == TRUE and inner.interval == phi.lhs.interval:
            return phi.lhs.interval, phi.lhs.arg
    return None


def match_weak_prev(phi: Formula) -> tuple[Interval, Formula] | None:
    if isinstance(phi, Or) and isinstance(phi.lhs, Prev):
        inner = match_not(phi.rhs)
        if isinstance(inner, Prev) and inner.arg == TRUE and inner.interval == phi.lhs.interval:
            return phi.lhs.interval, phi.lhs.arg
    return None


def atoms_of(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Atom):
        return frozenset([phi.name])
    if isinstance(phi, Bottom):
        return frozenset()
    if isinstance(phi, (Next, Prev)):
        return atoms_of(phi.arg)
    return atoms_of(phi.lhs) | atoms_of(phi.rhs)


def interval_endpoints(formulas) -> list[int]:
    """Sorted finite interval bounds (lower, and upper unless w) over all subformulas."""
    found: set[int] = set()
    stack = list(formulas)
    while stack:
        for part in vars(stack.pop()).values():
            if isinstance(part, Formula):
                stack.append(part)
            elif isinstance(part, Interval):
                found.update(b for b in (part.lower, part.upper) if b is not None)
    return sorted(found)


def map_children(phi: Formula, fn) -> Formula:
    """Rebuild phi with fn applied to each direct subformula."""
    if isinstance(phi, (Atom, Bottom)):
        return phi
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(fn(phi.lhs), fn(phi.rhs))
    if isinstance(phi, (Next, Prev)):
        return type(phi)(phi.interval, fn(phi.arg))
    return type(phi)(phi.interval, fn(phi.lhs), fn(phi.rhs))


# --------------------------------------------------------------------------
# Theories

@dataclass(frozen=True)
class Theory:
    formulas: tuple[Formula, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self):
        return iter(self.formulas)

    def atoms(self) -> tuple[str, ...]:
        names: set[str] = set()
        for phi in self.formulas:
            names |= atoms_of(phi)
        return tuple(sorted(names))


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
_UNARY_NAMES = {Next: "X", Prev: "Y"}


def format_formula(phi: Formula) -> str:
    """Render phi so that parsing the result reproduces phi exactly."""
    return _fmt(phi)[0]


def _iv_txt(interval: Interval) -> str:
    return "" if interval.is_full() else str(interval)


def _child(phi: Formula, min_prec: int) -> str:
    s, p = _fmt(phi)
    return s if p >= min_prec else f"({s})"


def _unary_app(op: str, interval: Interval, arg: Formula) -> tuple[str, int]:
    s, p = _fmt(arg)
    body = f" {s}" if p >= _PREC_UNARY else f"({s})"
    return f"{op}{_iv_txt(interval)}{body}", _PREC_UNARY


def _fmt(phi: Formula) -> tuple[str, int]:
    if phi == TRUE:
        return "#true", _PREC_ATOM
    if isinstance(phi, Bottom):
        return "#false", _PREC_ATOM
    if isinstance(phi, Atom):
        return phi.name, _PREC_ATOM
    if phi == INITIAL:
        return "#init", _PREC_ATOM
    if phi == FINAL:
        return "#final", _PREC_ATOM

    wk = match_weak_next(phi)
    if wk is not None:
        return _unary_app("wX", wk[0], wk[1])
    wk = match_weak_prev(phi)
    if wk is not None:
        return _unary_app("wY", wk[0], wk[1])

    inner = match_not(phi)
    if inner is not None:
        s, p = _fmt(inner)
        return (f"~{s}" if p >= _PREC_UNARY else f"~({s})"), _PREC_UNARY

    if isinstance(phi, (Next, Prev)):
        return _unary_app(_UNARY_NAMES[type(phi)], phi.interval, phi.arg)

    if isinstance(phi, (Until, Since)) and phi.lhs == TRUE:
        return _unary_app("F" if isinstance(phi, Until) else "O", phi.interval, phi.rhs)
    if isinstance(phi, (Release, Trigger)) and phi.lhs == BOT:
        return _unary_app("G" if isinstance(phi, Release) else "H", phi.interval, phi.rhs)

    if isinstance(phi, KERNEL_BINARY):
        op = _BINARY_NAMES[type(phi)]
        lhs = _child(phi.lhs, _PREC_UNARY)
        rhs = _child(phi.rhs, _PREC_BIN)
        return f"{lhs} {op}{_iv_txt(phi.interval)} {rhs}", _PREC_BIN

    if isinstance(phi, And):
        return f"{_child(phi.lhs, _PREC_AND)} & {_child(phi.rhs, _PREC_BIN)}", _PREC_AND
    if isinstance(phi, Or):
        return f"{_child(phi.lhs, _PREC_OR)} | {_child(phi.rhs, _PREC_BIN)}", _PREC_OR
    if isinstance(phi, Implies):
        return f"{_child(phi.lhs, _PREC_OR)} -> {_child(phi.rhs, _PREC_IMPL)}", _PREC_IMPL
    raise TypeError(f"not a formula node: {phi!r}")
