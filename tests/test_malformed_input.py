"""Mutated input files through the CLI: exit 0, 1 or 2, never a traceback.

Each JSON example deep-copies a valid document and applies one to three
mutations at random places: drop a key or list item, swap a value for one
of another type, perturb a time, make here not included in there, or nest a
value one level too deep.  Each theory or sentence example drops,
duplicates, swaps or inserts one to three tokens of a valid text; where the
reference parser refuses the result, the CLI must exit 2 with its located
message.  An exit 2 must print exactly one line, naming the mutated file
(or, for a sentence that parses, the interpretation it is evaluated in).
"""

import contextlib
import copy
import io
import json
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracle
from conftest import mutated_text
from metricht.cli import main
from metricht.parser import ParseError

TRACE = {
    "alphabet": ["green", "push", "red"],
    "states": [
        {"time": 0, "there": ["red"]},
        {"time": 5, "here": ["red"], "there": ["push", "red"]},
        {"time": 12, "there": ["green"]},
    ],
}
THEORY = "G (red & green -> #false)\nG (~green -> red)\nG (push -> F[1..15) G[0..30] green)\n"

INTERP = {"domain": [0, 5, 12], "here": ["red(0)"], "there": ["red(0)", "push(5)"]}
SENTENCE = "red(0) & !x (push(x) -> ?y (x <={-1} y & green(y) | red(y))) & (green(12) -> push(5))"

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(-2, 20),
                 st.text("pr(0)5 ", max_size=6),
                 st.sampled_from([[], {}, ["red"], [5], "red"]).map(copy.deepcopy))


def _places(value, parent, key):
    """(container, key) for every value in the document, the root included."""
    yield parent, key
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _places(v, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _places(v, value, i)


def _perturb(value, delta: int):
    if type(value) is int:
        return value + delta
    if isinstance(value, str):
        return re.sub(r"\d+", lambda m: str(max(int(m.group()) + delta, 0)), value)
    return value


@st.composite
def mutated(draw, document: dict, extra_atom: str):
    holder = {"root": copy.deepcopy(document)}
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_places(holder["root"], holder, "root"))))
        mutation = draw(st.sampled_from(["drop", "swap", "perturb", "not-included", "nest"]))
        if mutation == "drop" and container is not holder:
            del container[key]
        elif mutation == "swap":
            container[key] = draw(JUNK)
        elif mutation == "perturb":
            container[key] = _perturb(container[key], draw(st.integers(-6, 6)))
        elif mutation == "not-included" and isinstance(container[key], dict):
            entry = container[key]
            there = entry.get("there")
            entry["here"] = (there if isinstance(there, list) else []) + [extra_atom]
        else:
            container[key] = draw(st.sampled_from([[container[key]], {"x": container[key]}]))
    return holder["root"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err, *paths):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(tuple(f"error: {path}: " for path in paths)), err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    (root / "theory.lp").write_text(THEORY)
    (root / "s.fom").write_text(SENTENCE)
    (root / "trace.json").write_text(json.dumps(TRACE))
    (root / "i.json").write_text(json.dumps(INTERP))
    return root


def test_valid_documents_pass(files):
    assert _run(["check", str(files / "theory.lp"), str(files / "trace.json")])[0] == 0
    code, out, _ = _run(["qht", "--sentence", str(files / "s.fom"), "--interp",
                         str(files / "i.json")])
    assert (code, out) == (0, "SAT\n")


@settings(max_examples=300, deadline=None)
@given(mutated(TRACE, "green"))
def test_mutated_trace_json(files, data):
    path = files / "mutated-trace.json"
    path.write_text(json.dumps(data))
    _assert_contract(*_run(["check", str(files / "theory.lp"), str(path)]), path)


@pytest.mark.parametrize("data,message", [
    ({"states": [{"time": 0, "there": [["p"]]}]},
     "state 0: 'here' and 'there' must be lists of atom names"),
    ({"states": [{"time": 0, "there": ["p"]}, {"time": 1, "here": [{"a": 1}], "there": ["p"]}]},
     "state 1: 'here' and 'there' must be lists of atom names"),
    ({"alphabet": [["p"]], "states": [{"time": 0, "there": ["p"]}]},
     "'alphabet' must be a list of atom names"),
], ids=["there-list", "here-object", "alphabet-list"])
def test_unhashable_atom_in_trace_json(files, tmp_path, data, message):
    # atom lists are looked up by value, which fails on a list or an object inside
    path = tmp_path / "unhashable.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(["check", str(files / "theory.lp"), str(path)])
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@settings(max_examples=300, deadline=None)
@given(mutated(INTERP, "green(12)"), st.booleans())
def test_mutated_interpretation_json(files, data, equilibrium):
    path = files / "mutated-interp.json"
    path.write_text(json.dumps(data))
    argv = ["qht", "--sentence", str(files / "s.fom"), "--interp", str(path)]
    _assert_contract(*_run(argv + ["--equilibrium"] * equilibrium), path)


def _assert_refused_as_the_reference(result, text, reference, path, *others):
    """Exit 2 with the reference parser's located message if it refuses `text`,
    else the contract, naming `path` or one of `others`."""
    try:
        reference(text)
    except ParseError as exc:
        assert result == (2, "", f"error: {path}: {exc}\n")
        assert re.fullmatch(r"line \d+, column \d+: .+", str(exc))
    else:
        _assert_contract(*result, path, *others)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["check", "models", "equiv"]))
def test_mutated_theory_text(files, rng, command):
    text = mutated_text(rng, THEORY)
    path = files / "mutated.lp"
    path.write_text(text)
    argv = {"check": ["check", str(path), str(files / "trace.json")],
            "models": ["models", str(path), "--max-len", "1"],
            "equiv": ["equiv", str(files / "theory.lp"), str(path), "--max-len", "1"]}[command]
    _assert_refused_as_the_reference(_run(argv), text, oracle.parse_theory, path)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_mutated_sentence_text(files, rng, equilibrium):
    text = mutated_text(rng, SENTENCE)
    path = files / "mutated.fom"
    path.write_text(text)
    argv = ["qht", "--sentence", str(path), "--interp", str(files / "i.json")]
    # a sentence that parses may name a time point outside the interpretation's domain
    _assert_refused_as_the_reference(_run(argv + ["--equilibrium"] * equilibrium), text,
                                     oracle.parse_fom, path, files / "i.json")
