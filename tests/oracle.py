"""Brute-force reference implementations, independent of the library evaluator.

Only the formula AST classes, metric and first-order, are shared, and the
renaming of bound variables that closes fom.simplify_fom, and ParseError.
The reference parsers are recursive descent, one method per precedence
level, on their own tokenizer (one regex match per token or gap), cursor
and interval reader, apart from the library's, so that the differential
tests compare two implementations.
Satisfaction here works on plain (here, there, times) tuples, or a domain
and atom sets, with explicit world tags and index loops or variable
bindings, and the bounded trace space is generated with its own nested
products, so agreement with the library is a meaningful cross-check.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import product
from typing import NoReturn

from metricht import fom
from metricht.parser import ATOM_RE, ParseError
from metricht.syntax import (
    And, Atom, BOT, Bottom, FINAL, INITIAL, Implies, Interval, IntervalError, Next, Or, Prev,
    Release, Since, Theory, Trigger, TRUE, Until, always, eventually, historically,
    interval_from_bounds, neg, once, weak_next, weak_prev,
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


def simplify_fixpoint(phi):
    """fom.simplify_fom's rules one pass at a time, repeated until nothing changes.

    A pass simplifies each operand once: a conjunct that simplifies to a
    conjunction stays nested, and the conjunction that currying builds is left
    as it is, until the next pass.  Bound variables are then renamed by
    fom._rename, as simplify_fom does."""
    prev, cur = None, phi
    while cur != prev:
        prev, cur = cur, _simp_once(cur)
    return fom._rename(cur)


def _conjuncts(phi):
    if isinstance(phi, fom.And):
        return _conjuncts(phi.lhs) + _conjuncts(phi.rhs)
    return [phi]


def _simp_once(phi):
    if isinstance(phi, fom.Diff):
        return fom.TOP if phi.delta is None else phi
    if isinstance(phi, fom.And):
        parts, diffs = [], {}
        for part in map(_simp_once, _conjuncts(phi)):
            if isinstance(part, fom.Bot):
                return fom.BOT
            if isinstance(part, fom.Top) or part in parts:
                continue
            if isinstance(part, fom.Diff):
                key = (part.left, part.right)
                if key in diffs:  # keep the tightest bound, where the first one stood
                    if part.delta < diffs[key].delta:
                        parts[parts.index(diffs[key])] = diffs[key] = part
                    continue
                diffs[key] = part
            parts.append(part)
        return reduce(fom.And, parts) if parts else fom.TOP
    if isinstance(phi, fom.Or):
        lhs, rhs = _simp_once(phi.lhs), _simp_once(phi.rhs)
        if isinstance(lhs, fom.Top) or isinstance(rhs, fom.Top):
            return fom.TOP
        return rhs if isinstance(lhs, fom.Bot) else lhs if isinstance(rhs, fom.Bot) \
            else fom.Or(lhs, rhs)
    if isinstance(phi, fom.Implies):
        lhs, rhs = _simp_once(phi.lhs), _simp_once(phi.rhs)
        if isinstance(rhs, fom.Top) or isinstance(lhs, fom.Bot):
            return fom.TOP
        if isinstance(lhs, fom.Top):
            return rhs
        if isinstance(lhs, fom.Diff) and isinstance(rhs, fom.Bot):
            return fom.Diff(lhs.right, -lhs.delta - 1, lhs.left)
        if isinstance(rhs, fom.Implies):
            return fom.Implies(fom.And(lhs, rhs.lhs), rhs.rhs)
        return fom.Implies(lhs, rhs)
    if isinstance(phi, (fom.Forall, fom.Exists)):
        body = _simp_once(phi.body)
        return body if isinstance(body, (fom.Top, fom.Bot)) else type(phi)(phi.var, body)
    return phi


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


# ------------------------------------------------------------------ parsers

Token = tuple[str, str, int]  # (kind, text, offset); kind is the text itself for literals

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<diff><=\{(?:-?\d+|w)\})
      | (?P<lit>\#(?:true|false|init|final)|\.\.|<->|->|<=|>=|[()\[\]~&|!?])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line_offset: int = 1) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError.at(f"unexpected character {value!r}", text, m.start(), line_offset)
        if kind != "ws":
            tokens.append((value if kind == "lit" else kind, value, m.start()))
    tokens.append(("<eof>", "", len(text)))
    return tokens


def _logical_lines(text: str):
    """Yield (starting line number, chunk) pairs, joining bracket-open lines."""
    chunk: list[str] = []
    start = depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if not chunk:
            start = lineno
        depth += sum(line.count(c) for c in "([") - sum(line.count(c) for c in ")]")
        if line.strip() or chunk:
            chunk.append(line)
        if chunk and depth <= 0:  # a chunk starts on a line with text
            yield start, "\n".join(chunk)
            chunk, depth = [], 0
    if chunk:
        yield start, "\n".join(chunk)


class TokenCursor:
    """A position in the tokens of one text."""

    def __init__(self, text: str, line_offset: int = 1):
        self.text, self.line_offset = text, line_offset
        self.tokens = _tokenize(text, line_offset)
        self.pos, self.last = 0, len(self.tokens) - 1

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, self.last)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < self.last:
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        """Raise a ParseError located at `tok`, by default the next token."""
        offset = (tok or self.peek())[2]
        raise ParseError.at(message, self.text, offset, self.line_offset)

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what or repr(kind)}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def parse(self):
        """Run the start rule over the whole text."""
        result = self.formula()
        tok = self.peek()
        if tok[0] != "<eof>":
            self.fail(f"unexpected trailing input {tok[1]!r}", tok)
        return result


_UNARY_OPS = {"X": Next, "wX": weak_next, "Y": Prev, "wY": weak_prev,
              "G": always, "F": eventually, "H": historically, "O": once}
_CONSTANTS = {"#true": TRUE, "#false": BOT, "#init": INITIAL, "#final": FINAL}
_BINARY_OPS = {"U": Until, "R": Release, "S": Since, "T": Trigger}


class FormulaParser(TokenCursor):
    """The formula grammar by recursive descent: a Python frame per level."""

    def interval_ahead(self) -> bool:
        kind = self.peek()[0]
        if kind in ("[", "<=", ">="):
            return True
        return kind == "(" and self.peek(1)[0] == "num" and self.peek(2)[0] == ".."

    def parse_interval(self) -> Interval:
        tok = self.next()
        kind = tok[0]
        try:
            if kind in ("<=", ">="):
                num = int(self.expect("num")[1])
                return Interval(0, num + 1) if kind == "<=" else Interval(num, None)
            lower_open = kind == "("
            lo = int(self.expect("num")[1])
            if not lower_open and self.peek()[0] == "]":
                self.next()
                return Interval(lo, lo + 1)
            self.expect("..")
            nxt = self.next()
            if nxt[0] == "num":
                upper, closer = int(nxt[1]), self.next()
            elif nxt[1] == "w":
                upper, closer = None, self.next()
            elif nxt[0] in (")", "]"):
                upper, closer = None, nxt
            else:
                self.fail(f"expected an upper bound, found {nxt[1]!r}", nxt)
            if closer[0] not in (")", "]"):
                self.fail(f"expected ')' or ']', found {closer[1]!r}", closer)
            return interval_from_bounds(lo, upper, lower_open=lower_open,
                                        upper_closed=closer[0] == "]")
        except IntervalError as exc:
            self.fail(str(exc), tok)

    def optional_interval(self) -> Interval:
        return self.parse_interval() if self.interval_ahead() else Interval(0, None)

    def formula(self):
        lhs = self.implication()
        while self.peek()[0] == "<->":
            self.next()
            rhs = self.implication()
            lhs = And(Implies(lhs, rhs), Implies(rhs, lhs))
        return lhs

    def implication(self):
        lhs = self.disjunction()
        if self.peek()[0] == "->":
            self.next()
            return Implies(lhs, self.implication())
        return lhs

    def disjunction(self):
        lhs = self.conjunction()
        while self.peek()[0] == "|":
            self.next()
            lhs = Or(lhs, self.conjunction())
        return lhs

    def conjunction(self):
        lhs = self.binary_temporal()
        while self.peek()[0] == "&":
            self.next()
            lhs = And(lhs, self.binary_temporal())
        return lhs

    def binary_temporal(self):
        lhs = self.unary()
        op = _BINARY_OPS.get(self.peek()[1])
        if op is None:
            return lhs
        self.next()
        interval = self.optional_interval()
        return op(interval, lhs, self.binary_temporal())

    def unary(self):
        tok = self.next()
        kind, text, _ = tok
        if kind == "~":
            if self.interval_ahead():
                self.fail("negation takes no interval")
            return neg(self.unary())
        if text in _UNARY_OPS:
            interval = self.optional_interval()
            return _UNARY_OPS[text](interval, self.unary())
        if kind in _CONSTANTS:
            return _CONSTANTS[kind]
        if kind == "(":
            phi = self.formula()
            self.expect(")")
            return phi
        if kind == "name" and ATOM_RE.fullmatch(text):
            return Atom(text)
        self.fail("unexpected end of input" if kind == "<eof>"
                  else f"unknown operator name {text!r}" if kind == "name"
                  else f"unexpected {text!r}", tok)


class SentenceParser(TokenCursor):
    """The first-order sentence grammar by recursive descent."""

    def formula(self):
        lhs = self.disjunction()
        if self.peek()[0] == "->":
            self.next()
            return fom.Implies(lhs, self.formula())
        return lhs

    def disjunction(self):
        lhs = self.conjunction()
        while self.peek()[0] == "|":
            self.next()
            lhs = fom.Or(lhs, self.conjunction())
        return lhs

    def conjunction(self):
        lhs = self.unary()
        while self.peek()[0] == "&":
            self.next()
            lhs = fom.And(lhs, self.unary())
        return lhs

    def term(self):
        tok = self.next()
        if tok[0] == "num":
            return fom.Point(int(tok[1]))
        if tok[0] == "name":
            return fom.Var(tok[1])
        self.fail(f"expected a term, found {tok[1] or 'end of input'!r}", tok)

    def unary(self):
        kind, text, _ = self.peek()
        if kind in ("!", "?"):
            self.next()
            var = fom.Var(self.expect("name", "a variable")[1])
            return (fom.Forall if kind == "!" else fom.Exists)(var, self.unary())
        if kind == "(":
            self.next()
            phi = self.formula()
            self.expect(")")
            return phi
        if kind in ("#true", "#false"):
            self.next()
            return fom.TOP if kind == "#true" else fom.BOT
        if kind == "name" and self.peek(1)[0] == "(":
            self.next()
            self.next()
            arg = self.term()
            self.expect(")")
            return fom.Pred(text, arg)
        first = self.term()
        raw = self.expect("diff", "a difference bound")[1][3:-1]
        return fom.Diff(first, None if raw == "w" else int(raw), self.term())


def parse_formula(text, line_offset=1):
    return FormulaParser(text, line_offset).parse()


def parse_theory(text):
    return Theory(tuple(parse_formula(chunk, start) for start, chunk in _logical_lines(text)))


def parse_fom(text):
    return SentenceParser(text).parse()
