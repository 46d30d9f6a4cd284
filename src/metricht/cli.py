"""Command-line front end.

Subcommands: check, models, equiv, rewrite, translate, qht.  Exit codes are
a stable contract: 0 for success or an affirmative verdict, 1 for a negative
verdict or a pass precondition failure, 2 for parse/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .equilibrium import bounded_equiv, stream_models
from .equilibrium import enumerate_equilibrium  # noqa: F401  (wrapped by bench/tracer.py)
from .parser import parse_formula, parse_theory
from .rewrite import PASSES, printed_size, range_split
from .semantics import Program, is_model, mht_sat  # noqa: F401  (wrapped by bench/tracer.py)
from .syntax import format_formula
from .traces import EnumerationBounds, trace_from_json, trace_to_json
from .traces import enumerate_total_traces  # noqa: F401  (bench/tracer.py wraps it here)


def _naming(source: str, fn, arg):
    """fn(arg); a ValueError it raises names `source` first."""
    try:
        return fn(arg)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _load(path: str, parse):
    with open(path, encoding="utf-8") as handle:
        return _naming(path, parse, handle.read())


def _bounds(args, theories) -> EnumerationBounds:
    atoms = set()
    for theory in theories:
        atoms.update(theory.atoms())
    atoms.update(a.strip() for a in args.alphabet.split(",") if a.strip())
    max_time = args.max_time if args.max_time is not None else max(args.max_len - 1, 0)
    return EnumerationBounds(atoms, args.max_len, max_time,
                             strict_only=not args.non_strict,
                             exact_len=getattr(args, "exact_len", False))


def _add_bounds_flags(sub, with_exact=False):
    sub.add_argument("--max-len", type=int, required=True, help="largest trace length")
    sub.add_argument("--max-time", type=int, default=None,
                     help="largest final time stamp (default: max-len - 1)")
    sub.add_argument("--non-strict", action="store_true",
                     help="allow repeated time stamps in the searched traces")
    sub.add_argument("--alphabet", default="",
                     help="extra atoms, comma separated (default: the theory's atoms)")
    if with_exact:
        sub.add_argument("--exact-len", action="store_true",
                         help="search only traces of exactly max-len states")


def cmd_check(args) -> int:
    theory = _load(args.theory, parse_theory)
    trace, _ = _load(args.trace, lambda text: trace_from_json(json.loads(text)))
    if not 0 <= args.at < trace.length:
        raise ValueError(f"--at {args.at}: {args.trace} has states 0 to {trace.length - 1}")
    program, failing = Program(theory.formulas).at(trace.times), None
    at = program.position(args.at)
    for i, bits in enumerate(program.bits(trace.here, trace.there), start=1):
        ok = bits >> at & 1
        print(f"formula {i}: {'SAT' if ok else 'UNSAT'}")  # as soon as it is decided
        failing = failing or (None if ok else i)
    print("SAT" if failing is None else f"UNSAT(formula {failing})")
    return 0 if failing is None else 1


def cmd_models(args) -> int:
    theory = _load(args.theory, parse_theory)
    bounds = _bounds(args, [theory])
    count = 0
    for count, trace in enumerate(stream_models(theory, bounds, args.equilibrium), start=1):
        print(json.dumps(trace_to_json(trace, bounds.alphabet)))  # as soon as it is decided
    print(f"{count} model{'' if count == 1 else 's'}")
    return 0


def cmd_equiv(args) -> int:
    left, right = _load(args.left, parse_theory), _load(args.right, parse_theory)
    verdict = bounded_equiv(left, right, _bounds(args, [left, right]))
    if verdict.equivalent:
        print("EQUIVALENT (within bounds)")
        return 0
    trace, index, side = verdict.counterexample
    print(f"NOT EQUIVALENT: formula {index + 1} of the {side} theory fails on")
    print(json.dumps(trace_to_json(trace)))
    return 1


MAX_REWRITE_NODES = 1_000_000  # `p U[0..18) q` unfolds to 524,286 nodes, [0..19) to twice that


def cmd_rewrite(args) -> int:
    phi = _naming("--formula", parse_formula, args.formula)
    name = args.pass_name
    split = name.startswith("split:")
    if split:
        try:
            point = int(name[len("split:"):])
        except ValueError:
            raise ValueError(f"--pass {name}: the split point must be an integer") from None
    elif name not in PASSES:
        raise ValueError(f"--pass: unknown pass {name!r}; choose from "
                         f"{', '.join(sorted(PASSES))}, split:<i>")
    try:
        # unf builds O(n^2) nodes for a window of n and onestep n parts: counted first
        size = printed_size(phi, name) if name in ("unf", "onestep") else 0
        if size <= MAX_REWRITE_NODES:
            result = range_split(phi, point) if split else PASSES[name](phi)
            size = printed_size(result)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if size > MAX_REWRITE_NODES:  # printed_size stops at 2^14284, the most digits Python prints
        count = f"{size:,}" if size.bit_length() <= 14284 else "at least 2^14284"
        print(f"error: the rewritten formula has {count} nodes, above the bound of "
              f"{MAX_REWRITE_NODES:,}", file=sys.stderr)
        return 1
    print(format_formula(result))
    return 0


def cmd_translate(args) -> int:
    from . import fom  # only translate and qht load it
    phi = _naming("--formula", parse_formula, args.formula)
    if args.at < 0:  # the sentence would not parse back
        raise ValueError(f"--at: the anchor time point must be a natural number, got {args.at}")
    try:
        sentence = fom.translate(phi, args.at)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.raw:
        sentence = fom.simplify_fom(sentence)
    print(fom.format_fom(sentence))
    return 0


def cmd_qht(args) -> int:
    from . import fom
    sentence = _load(args.sentence, fom.parse_fom)
    program = _naming(args.sentence, fom.compile_sentence, sentence)  # once for both steps
    interp = _load(args.interp, lambda text: fom.interpretation_from_json(json.loads(text)))
    # binding refuses a sentence time point outside the domain, the scan too many there-atoms
    return _naming(args.interp, lambda interp: _qht(interp, program, args.equilibrium), interp)


def _qht(interp: fom.QHTInterpretation, program: fom.Program, equilibrium: bool) -> int:
    from . import fom
    if equilibrium:
        witness = fom.first_smaller_model(interp.domain, interp.there, program)
        if witness is None:
            print("EQ")
            return 0
        print("NON-EQ (the there-world is not a model)" if witness == interp.there else
              "NON-EQ witness " + json.dumps(sorted(f"{p}({t})" for p, t in witness)))
        return 1
    ok = fom.qht_sat(interp, program)
    print("SAT" if ok else "UNSAT")
    return 0 if ok else 1


@functools.cache  # built once per process, not on every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricht",
        description="Interval-indexed temporal reasoning over timed traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a theory on a trace")
    p.add_argument("theory")
    p.add_argument("trace")
    p.add_argument("--at", type=int, default=0, help="state index (default 0)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("models", help="list bounded models as JSON lines")
    p.add_argument("theory")
    _add_bounds_flags(p, with_exact=True)
    p.add_argument("--equilibrium", action="store_true",
                   help="keep only equilibrium models")
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("equiv", help="compare two theories over a bounded space")
    p.add_argument("left")
    p.add_argument("right")
    _add_bounds_flags(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("rewrite", help="apply a formula transformation")
    p.add_argument("--formula", required=True)
    p.add_argument("--pass", dest="pass_name", required=True,
                   help="unf, unary, demorgan, dual, swap, onestep or split:<i>")
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("translate", help="print the first-order translation")
    p.add_argument("--formula", required=True)
    p.add_argument("--at", type=int, default=0, help="anchor time point (default 0)")
    p.add_argument("--raw", action="store_true", help="skip simplification")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("qht", help="evaluate a first-order sentence in an interpretation")
    p.add_argument("--sentence", required=True, help="path to the sentence file")
    p.add_argument("--interp", required=True, help="path to the interpretation JSON")
    p.add_argument("--equilibrium", action="store_true",
                   help="also check here-world minimality")
    p.set_defaults(fn=cmd_qht)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ParseError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the rewrite passes, translate, simplify_fom and Program.chunk recurse
        files = ", ".join(getattr(args, a) for a in ("theory", "left", "right", "sentence")
                          if hasattr(args, a))
        print(f"error: {files or '--formula'}: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
