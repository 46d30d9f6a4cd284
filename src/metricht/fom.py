"""Monadic first-order sentences with difference constraints over time points.

Besides the Boolean connectives and quantifiers, the only non-monadic
predicates are the difference atoms ``t1 <={d} t2`` meaning t1 - t2 <= d,
with d an integer or the unbounded bound ``w`` (always true).  Sentences are
evaluated in static-domain here-and-there interpretations whose domain is a
finite set of naturals containing 0.  Metric formulas translate into this
fragment structurally, one quantified variable per temporal operator.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import combinations, count
from typing import Iterable

from . import syntax as mf
from .parser import ATOM_RE, TokenCursor
from .traces import TimedHTTrace


# --------------------------------------------------------------------------
# Terms and formulas

@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Point:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Term = Var | Point


class FOMFormula:
    __slots__ = ()

    def __str__(self) -> str:
        return format_fom(self)


@dataclass(frozen=True, slots=True)
class _Constant(FOMFormula):
    pass


@dataclass(frozen=True, slots=True)
class _Pair(FOMFormula):
    lhs: FOMFormula
    rhs: FOMFormula


@dataclass(frozen=True, slots=True)
class _Quantified(FOMFormula):
    var: Var
    body: FOMFormula


class Top(_Constant):
    __slots__ = ()


class Bot(_Constant):
    __slots__ = ()


@dataclass(frozen=True)
class Pred(FOMFormula):
    name: str
    arg: Term


@dataclass(frozen=True)
class Diff(FOMFormula):
    """left - right <= delta; delta is an integer or None for the unbounded bound."""

    left: Term
    delta: int | None
    right: Term


class And(_Pair):
    __slots__ = ()


class Or(_Pair):
    __slots__ = ()


class Implies(_Pair):
    __slots__ = ()


class Forall(_Quantified):
    __slots__ = ()


class Exists(_Quantified):
    __slots__ = ()


TOP = Top()
BOT = Bot()


def fneg(phi: FOMFormula) -> FOMFormula:
    return Implies(phi, BOT)


def conj(parts: Iterable[FOMFormula]) -> FOMFormula:
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# Comparison abbreviations.  le/lt/eq/ne expand into difference atoms; the
# strict bound lt_bound(t1, d, t2) renders "t1 - t2 < d" and is truth for the
# unbounded d, the one comparison the difference atoms cannot spell directly.

def le(a: Term, b: Term) -> FOMFormula:
    return Diff(a, 0, b)


def eq(a: Term, b: Term) -> FOMFormula:
    return And(le(a, b), le(b, a))


def ne(a: Term, b: Term) -> FOMFormula:
    return fneg(eq(a, b))


def lt(a: Term, b: Term) -> FOMFormula:
    return And(le(a, b), ne(a, b))


def lt_bound(a: Term, d: int | None, b: Term) -> FOMFormula:
    if d is None:
        return TOP
    return fneg(Diff(b, -d, a))


# --------------------------------------------------------------------------
# Translation of metric formulas

def translate(phi: mf.Formula, at: int | Term) -> FOMFormula:
    """Structural translation of phi anchored at the given time point.

    Every interval must be non-empty; run the empty-interval collapses of
    rewrite.unfold_next first if the input may contain them.  Each temporal
    operator introduces a fresh main variable y<k> and, where needed, an
    auxiliary z<k>.
    """
    x = Point(at) if isinstance(at, int) else at
    return _tr(phi, x, count())


def _bounds(iv: mf.Interval, x: Term, y: Term, future: bool) -> list[FOMFormula]:
    if iv.is_empty():
        raise ValueError(f"translation requires non-empty intervals, got {iv}")
    if future:
        return [Diff(x, -iv.lower, y), lt_bound(y, iv.upper, x)]
    return [lt_bound(x, iv.upper, y), Diff(y, -iv.lower, x)]


def _tr(phi: mf.Formula, x: Term, fresh) -> FOMFormula:
    if isinstance(phi, mf.Bottom):
        return BOT
    if isinstance(phi, mf.Atom):
        return Pred(phi.name, x)
    if isinstance(phi, (mf.And, mf.Or, mf.Implies)):
        cls = {mf.And: And, mf.Or: Or, mf.Implies: Implies}[type(phi)]
        return cls(_tr(phi.lhs, x, fresh), _tr(phi.rhs, x, fresh))

    k = next(fresh)
    y, z = Var(f"y{k}"), Var(f"z{k}")
    future = isinstance(phi, (mf.Next, mf.Until, mf.Release))

    if isinstance(phi, (mf.Next, mf.Prev)):
        adjacent = [lt(x, y), fneg(Exists(z, And(lt(x, z), lt(z, y))))] if future \
            else [lt(y, x), fneg(Exists(z, And(lt(y, z), lt(z, x))))]
        return Exists(y, conj(adjacent + _bounds(phi.interval, x, y, future)
                              + [_tr(phi.arg, y, fresh)]))
    if isinstance(phi, mf.KERNEL_BINARY):
        guard = [le(x, y) if future else le(y, x)] + _bounds(phi.interval, x, y, future)
        between = And(le(x, z), lt(z, y)) if future else And(lt(y, z), le(z, x))
        left = _tr(phi.lhs, z, fresh)  # before the rhs: fixes the fresh-variable numbering
        if isinstance(phi, (mf.Until, mf.Since)):
            chain = Forall(z, Implies(between, left))
            return Exists(y, conj(guard + [_tr(phi.rhs, y, fresh), chain]))
        escape = Exists(z, And(between, left))
        return Forall(y, Implies(conj(guard), Or(_tr(phi.rhs, y, fresh), escape)))
    raise TypeError(f"not a formula node: {phi!r}")


# --------------------------------------------------------------------------
# Simplification.  Sound on every interpretation (property-tested):
#   * unbounded difference atoms are truth,
#   * negated difference atoms flip: ~(t1 <={d} t2)  ==  t2 <={-d-1} t1,
#   * truth/falsum absorption in the connectives and under quantifiers,
#   * currying a -> (b -> c)  ==  a & b -> c,
#   * duplicate and subsumed difference conjuncts collapse.
# Bound variables are finally renamed x, y, z, x1, ... in traversal order.

def simplify_fom(phi: FOMFormula) -> FOMFormula:
    return _rename(_simp(phi))


def _conjuncts(phi: FOMFormula) -> list[FOMFormula]:
    if isinstance(phi, And):
        return _conjuncts(phi.lhs) + _conjuncts(phi.rhs)
    return [phi]


def _and(simplified: Iterable[FOMFormula]) -> FOMFormula:
    """The conjunction of simplified formulas, flattened, so that one pass is a fixpoint."""
    parts, diffs = [], {}  # diffs: per (left, right), the index of its bound in parts
    for part in (c for phi in simplified for c in _conjuncts(phi)):
        if isinstance(part, Bot):
            return BOT
        if isinstance(part, Top) or part in parts:
            continue
        if isinstance(part, Diff):
            key = (part.left, part.right)
            if key in diffs:
                if part.delta < parts[diffs[key]].delta:
                    parts[diffs[key]] = part
                continue
            diffs[key] = len(parts)
        parts.append(part)
    return conj(parts) if parts else TOP


def _simp(phi: FOMFormula) -> FOMFormula:
    if isinstance(phi, Diff):
        return TOP if phi.delta is None else phi
    if isinstance(phi, And):
        return _and(map(_simp, _conjuncts(phi)))
    if isinstance(phi, Or):
        lhs, rhs = _simp(phi.lhs), _simp(phi.rhs)
        if isinstance(lhs, Top) or isinstance(rhs, Top):
            return TOP
        if isinstance(lhs, Bot):
            return rhs
        if isinstance(rhs, Bot):
            return lhs
        return Or(lhs, rhs)
    if isinstance(phi, Implies):
        lhs, rhs = _simp(phi.lhs), _simp(phi.rhs)
        if isinstance(rhs, Top) or isinstance(lhs, Bot):
            return TOP
        if isinstance(lhs, Top):
            return rhs
        if isinstance(lhs, Diff) and isinstance(rhs, Bot):
            return Diff(lhs.right, -lhs.delta - 1, lhs.left)
        if isinstance(rhs, Implies):
            return Implies(_and((lhs, rhs.lhs)), rhs.rhs)
        return Implies(lhs, rhs)
    if isinstance(phi, (Forall, Exists)):
        body = _simp(phi.body)
        if isinstance(body, (Top, Bot)):
            return body
        return type(phi)(phi.var, body)
    return phi


_NAME_CYCLE = ("x", "y", "z")


def _rename(phi: FOMFormula, taken: frozenset[str] = frozenset()) -> FOMFormula:
    """Bound variables renamed x, y, z, x1, ... in traversal order, none to a free name:
    walked again with the free names `taken` only if the first walk gave one away."""
    counter, free, made = count(), set(), set()

    def fresh() -> Var:
        while True:
            i = next(counter)
            name = _NAME_CYCLE[i % 3] + ("" if i < 3 else str(i // 3))
            if name not in taken:
                made.add(name)
                return Var(name)

    def term(t: Term, env: dict[Var, Var]) -> Term:
        if isinstance(t, Var) and t not in env:
            free.add(t.name)
        return env.get(t, t)

    def walk(node: FOMFormula, env: dict[Var, Var]) -> FOMFormula:
        if isinstance(node, (Top, Bot)):
            return node
        if isinstance(node, Pred):
            return Pred(node.name, term(node.arg, env))
        if isinstance(node, Diff):
            return Diff(term(node.left, env), node.delta, term(node.right, env))
        if isinstance(node, (And, Or, Implies)):
            return type(node)(walk(node.lhs, env), walk(node.rhs, env))
        var, new = node.var, fresh()
        outer, env[var] = env.get(var), new  # restored after the body: one dict for all binders
        body = walk(node.body, env)
        if outer is None:
            del env[var]
        else:
            env[var] = outer
        return type(node)(new, body)

    out = walk(phi, {})
    return _rename(phi, frozenset(free)) if made & free else out


# --------------------------------------------------------------------------
# Interpretations and satisfaction

@dataclass(frozen=True)
class QHTInterpretation:
    domain: tuple[int, ...]
    here: frozenset[tuple[str, int]]
    there: frozenset[tuple[str, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(sorted(set(self.domain))))
        object.__setattr__(self, "here", frozenset(self.here))
        object.__setattr__(self, "there", frozenset(self.there))
        if 0 not in self.domain:
            raise ValueError("the domain must contain 0")
        if not self.here <= self.there:
            raise ValueError("the here-atoms must be included in the there-atoms")
        for _, point in self.there:
            if point not in self.domain:
                raise ValueError(f"atom argument {point} lies outside the domain")

    def is_total(self) -> bool:
        return self.here == self.there


def induced_interpretation(trace: TimedHTTrace) -> QHTInterpretation:
    """Time points as domain, atoms stamped with their state's time."""
    if not trace.is_strict():
        raise ValueError("only strict traces induce interpretations")
    here = frozenset((p, t) for state, t in zip(trace.here, trace.times) for p in state)
    there = frozenset((p, t) for state, t in zip(trace.there, trace.times) for p in state)
    return QHTInterpretation(trace.times, here, there)


class Program:
    """Formulas compiled into a post-order list of (kind, detail, a, b, free, reads):
    per subformula its class, test, operands, variables and whether it reads a
    predicate; `roots` are the formulas' nodes.  A variable is (1, its binder's
    depth), read from one scope table kept for the whole compile, or (0, name) if
    free.  Bound to D points, a node with k variables gets D^k bits, the deepest
    the lowest.  A connective's operand with fewer variables goes through a node
    of kind None, which widens node a to the variables `free`."""

    def __init__(self, formulas):
        number, points, done = {}, {}, []  # done: (number, variables, reads) per operand
        scopes = {}  # per variable name, the variables of its binders in scope, innermost last
        stack = [(phi, 0, False) for phi in reversed(formulas)]
        while stack:  # explicit, so nesting costs no Python frames
            phi, depth, ready = stack.pop()
            kind = type(phi)
            if kind is And or kind is Or or kind is Implies:
                if not ready:
                    stack += [(phi, depth, True), (phi.rhs, depth, False), (phi.lhs, depth, False)]
                    continue
                (b, free_b, reads_b), (a, free_a, reads_a) = done.pop(), done.pop()
                free = tuple(sorted({*free_a, *free_b}))
                a, b = [c if f == free else number.setdefault((None, None, c, 0, free, r),
                                                              len(number))
                        for c, f, r in ((a, free_a, reads_a), (b, free_b, reads_b))]
                node = (kind, None, a, b, free, reads_a or reads_b)
            elif kind is Forall or kind is Exists:
                if not ready:  # the body is compiled before this entry is popped again
                    scopes.setdefault(phi.var.name, []).append((1, depth))
                    stack += [(phi, depth, True), (phi.body, depth + 1, False)]
                    continue
                scopes[phi.var.name].pop()
                if done[-1][1][-1:] != ((1, depth),):
                    continue  # the body does not mention the variable: it stands for itself
                a, free, reads = done.pop()
                node = (kind, None, a, 0, free[:-1], reads)
            elif kind is Pred or kind is Diff:  # a term is a time point or a variable
                left, right = [(scopes.get(t.name) or [(0, t.name)])[-1] if type(t) is Var
                               else points.setdefault(t.value, t.value)
                               for t in ((phi.arg,) * 2 if kind is Pred else (phi.left, phi.right))]
                free = tuple(sorted({t for t in (left, right) if type(t) is tuple}))
                if kind is Pred:
                    node = (Pred, (phi.name, None if free else left), 0, 0, free, True)
                elif phi.delta is None or not free or left == right:  # a constant
                    holds = phi.delta is None or (0 if left == right else left - right) <= phi.delta
                    node = (Top if holds else Bot, None, 0, 0, (), False)
                else:  # inner - outer <= delta, or not inner - outer <= -delta - 1
                    flip, outer = (True, left) if left != free[-1] else (False, right)
                    delta = -phi.delta - 1 if flip else phi.delta
                    node = (Diff, (delta, outer, flip), 0, 0, free, False)
            else:  # #true or #false; a KeyError for anything else
                node = ({Top: Top, Bot: Bot}[kind], None, 0, 0, (), False)
            done.append((number.setdefault(node, len(number)), node[4], node[5]))
        self.nodes, self.roots, self.points = list(number), [n for n, _, _ in done], tuple(points)
        self.free = sorted({key[1] for _, free, _ in done for key in free})
        self.order = {r: [i for i, n in enumerate(self.nodes) if n[5] is r] for r in (False, True)}

    def at(self, domain) -> Program:
        """This program bound to a domain: the same nodes, refusing a time point outside it,
        with the tables of the nodes that read no predicate, the same in every run."""
        bound = object.__new__(Program)  # not compiled again
        bound.__dict__.update(self.__dict__)
        bound.domain = domain = tuple(sorted(set(domain)))
        bound.index = {t: i for i, t in enumerate(domain)}
        for point in self.points:
            if point not in bound.index:
                raise ValueError(f"time point {point} lies outside the domain")
        bound.tables = bound._tables([None] * len(self.nodes), (), None, False)
        return bound

    def run(self, atoms, upper=None) -> list[int]:
        """Every node's bits in the world of the (name, point) `atoms`; see `qht_sat`."""
        return self._tables(self.tables[:], atoms, upper, True)

    def _tables(self, out, atoms, upper, reads) -> list[int]:
        """`out` with the tables of the nodes whose `reads` is given filled in."""
        index, nodes, size, rows = self.index, self.nodes, len(self.domain), {}
        for name, point in atoms:
            rows[name] = rows.get(name, 0) | 1 << index[point]
        for i in self.order[reads]:
            kind, detail, a, b, free, _ = nodes[i]
            if kind is Pred:  # a row, or its bit at a time point
                value = rows.get(detail[0], 0)
                value = value if detail[1] is None else value >> index[detail[1]] & 1
            elif kind is And or kind is Or:
                value = out[a] & out[b] if kind is And else out[a] | out[b]
            elif kind is Implies:
                value = ((1 << size ** len(free)) - 1) ^ (out[a] & ~out[b])
                if upper is not None:
                    value &= upper[i]
            elif kind is None:
                value = self._widen(out[a], a, free)
            elif kind is Forall or kind is Exists:  # fold the innermost variable:
                value = table = out[a]  # OR (AND for !) over D shifts, then every D-th bit
                for s in range(1, size):
                    value = value & table >> s if kind is Forall else value | table >> s
                value = int(format(value, f"0{size ** (len(free) + 1)}b")[size - 1::size], 2)
            elif kind is Diff:  # a row over the inner variable per outer value, one bisect each
                (delta, outer, flip), value = detail, 0
                for o in reversed(self.domain) if type(outer) is tuple else (outer,):
                    value = value << size | (1 << bisect_right(self.domain, o + delta)) - 1
                if flip:
                    value ^= (1 << size ** len(free)) - 1
            else:
                value = 1 if kind is Top else 0
            out[i] = value
        return out

    def _widen(self, table: int, node: int, want: tuple) -> int:
        """A node's table widened to the variables `want`: when they add only outer ones, one
        multiply by a repunit; else blocks spread D apart, repeated, per variable."""
        size, have = len(self.domain), list(self.nodes[node][4])
        if want[len(want) - len(have):] == tuple(have):
            return table * (((1 << size ** len(want)) - 1) // ((1 << size ** len(have)) - 1))
        for key in set(want).difference(have):
            block = size ** sum(key < h for h in have)
            text = format(table, f"0{size ** len(have)}b")
            table = int(("0" * (block * (size - 1))).join(
                [text[i:i + block] for i in range(0, len(text), block)]), 2)
            table *= ((1 << block * size) - 1) // ((1 << block) - 1)
            have = sorted(have + [key])
        return table


def compile_sentence(phi: FOMFormula | Program) -> Program:
    """phi compiled (a Program passes through), refusing free variables."""
    program = phi if isinstance(phi, Program) else Program([phi])
    if program.free:
        raise ValueError(f"free variable {', '.join(program.free)}: qht needs a closed sentence")
    return program


def qht_sat(interp: QHTInterpretation, phi: FOMFormula | Program) -> bool:
    """Satisfaction of phi, a sentence or its Program's first, in the here-world, whose
    implications the there-world's run masks."""
    program = compile_sentence(phi).at(interp.domain)
    upper, root = program.run(interp.there), program.roots[0]
    return (upper if interp.is_total() else program.run(interp.here, upper))[root] == 1


MAX_SUBSET_ATOMS = 20


def first_smaller_model(domain: Iterable[int], there: Iterable[tuple[str, int]],
                        phi: FOMFormula | Program) -> frozenset | None:
    """The first proper subset of `there` still satisfying phi, if any, by ascending
    size and lexicographically within a size, or `there` itself when it does not
    satisfy phi, which is found before the subset cap applies; the there-world runs once."""
    atoms = sorted(set(there))
    full = frozenset(atoms)  # an atom outside the domain is refused
    program = compile_sentence(phi).at(QHTInterpretation(tuple(domain), full, full).domain)
    upper, root = program.run(atoms), program.roots[0]
    if not upper[root]:
        return full
    if len(atoms) > MAX_SUBSET_ATOMS:
        raise ValueError(f"subset search capped at {MAX_SUBSET_ATOMS} atoms, got {len(atoms)}")
    subsets = (frozenset(c) for size in range(len(atoms)) for c in combinations(atoms, size))
    return next((s for s in subsets if program.run(s, upper)[root]), None)


# --------------------------------------------------------------------------
# Text format:  !x / ?x quantifiers, p(t) atoms, t1 <={d} t2 difference
# atoms, & | -> connectives, #true / #false.  Precedence and associativity
# mirror the metric formula syntax; quantifier bodies are parenthesized
# unless atomic.

_PREC_ATOM, _PREC_QUANT, _PREC_AND, _PREC_OR, _PREC_IMPL = 5, 4, 3, 2, 1


def format_fom(phi: FOMFormula) -> str:
    return mf.emit(phi, _shape)


def _shape(phi: FOMFormula) -> tuple[int, tuple]:
    kind = type(phi)
    if kind is Pred:
        return _PREC_ATOM, (f"{phi.name}({phi.arg})",)
    if kind is Diff:
        d = "w" if phi.delta is None else str(phi.delta)
        return _PREC_ATOM, (f"{phi.left} <={{{d}}} {phi.right}",)
    if kind is And:
        return _PREC_AND, ((phi.lhs, _PREC_AND, ""), " & ", (phi.rhs, _PREC_QUANT, ""))
    if kind is Or:
        return _PREC_OR, ((phi.lhs, _PREC_OR, ""), " | ", (phi.rhs, _PREC_QUANT, ""))
    if kind is Implies:
        return _PREC_IMPL, ((phi.lhs, _PREC_OR, ""), " -> ", (phi.rhs, _PREC_IMPL, ""))
    if kind is Forall or kind is Exists:
        mark = "!" if kind is Forall else "?"
        return _PREC_QUANT, (f"{mark}{phi.var} ", (phi.body, _PREC_QUANT, ""))
    if kind is Top or kind is Bot:
        return _PREC_ATOM, ("#true" if kind is Top else "#false",)
    raise TypeError(f"not a FOM node: {phi!r}")


# --------------------------------------------------------------------------
# Parsing the text format back, on the formula parser's tokens and precedence parser

class _FOMParser(TokenCursor):
    PREFIX = {"!": Forall, "?": Exists}
    BINARY = {"->": (1, True, Implies), "|": (2, False, Or), "&": (3, False, And)}

    def bind(self, tok, build):
        if tok[0] in self.PREFIX:  # a quantifier: its variable follows
            return partial(build, Var(self.expect("name", "a variable")[1]))
        return build

    def term(self, tok) -> Term:
        if tok[0] == "num":
            return Point(int(tok[1]))
        if tok[0] == "name":
            return Var(tok[1])
        self.fail(f"expected a term, found {tok[1] or 'end of input'!r}", tok)

    def primary(self, tok) -> FOMFormula:
        kind, text, _ = tok
        if kind in ("#true", "#false"):
            return TOP if kind == "#true" else BOT
        if kind == "name" and self.peek()[0] == "(":
            self.next()
            arg = self.term(self.next())
            self.expect(")")
            return Pred(text, arg)
        first = self.term(tok)
        raw = self.expect("diff", "a difference bound")[1][3:-1]
        return Diff(first, None if raw == "w" else int(raw), self.term(self.next()))


def parse_fom(text: str) -> FOMFormula:
    return _FOMParser(text).parse()


# Interpretation JSON: {"domain": [0, 5, 12], "here": ["red(0)"],
#                       "there": ["red(0)", "push(5)"]}
# "here" may be omitted when it equals "there".

_GROUND_ATOM_RE = re.compile(rf"({ATOM_RE.pattern})\((\d+)\)")


def _ground_atoms(entries: list[str], key: str) -> frozenset[tuple[str, int]]:
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise ValueError(f"{key!r} must be a list of ground atoms such as \"p(0)\"")
    out = set()
    for entry in entries:
        m = _GROUND_ATOM_RE.fullmatch(entry.strip())
        if m is None:
            raise ValueError(f"malformed ground atom {entry!r}")
        out.add((m.group(1), int(m.group(2))))
    return frozenset(out)


def interpretation_from_json(data: dict) -> QHTInterpretation:
    if not isinstance(data, dict) or "domain" not in data:
        raise ValueError("interpretation JSON must be an object with a 'domain' list")
    domain = data["domain"]
    if not isinstance(domain, list) or any(type(d) is not int or d < 0 for d in domain):
        raise ValueError("'domain' must be a list of non-negative integers")
    there = _ground_atoms(data.get("there", []), "there")
    here = _ground_atoms(data["here"], "here") if "here" in data else there
    return QHTInterpretation(tuple(domain), here, there)


def interpretation_to_json(interp: QHTInterpretation) -> dict:
    data: dict = {"domain": list(interp.domain)}
    if not interp.is_total():
        data["here"] = sorted(f"{p}({t})" for p, t in interp.here)
    data["there"] = sorted(f"{p}({t})" for p, t in interp.there)
    return data
