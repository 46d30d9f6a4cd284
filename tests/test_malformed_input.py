"""Mutated trace and interpretation JSON through the CLI: exit 0, 1 or 2, never a traceback.

Each example deep-copies a valid document and applies one to three
mutations at random places: drop a key or list item, swap a value for one
of another type, perturb a time, make here not included in there, or nest a
value one level too deep.  An exit 2 must print exactly one line, naming
the mutated file.
"""

import contextlib
import copy
import io
import json
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from metricht.cli import main

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


def _assert_contract(code, out, err, path):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(f"error: {path}: "), err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    (root / "theory.lp").write_text(THEORY)
    (root / "s.fom").write_text(SENTENCE)
    return root


def test_valid_documents_pass(files):
    (files / "trace.json").write_text(json.dumps(TRACE))
    assert _run(["check", str(files / "theory.lp"), str(files / "trace.json")])[0] == 0
    (files / "i.json").write_text(json.dumps(INTERP))
    code, out, _ = _run(["qht", "--sentence", str(files / "s.fom"), "--interp",
                         str(files / "i.json")])
    assert (code, out) == (0, "SAT\n")


@settings(max_examples=300, deadline=None)
@given(mutated(TRACE, "green"))
def test_mutated_trace_json(files, data):
    path = files / "mutated-trace.json"
    path.write_text(json.dumps(data))
    _assert_contract(*_run(["check", str(files / "theory.lp"), str(path)]), path)


@settings(max_examples=300, deadline=None)
@given(mutated(INTERP, "green(12)"), st.booleans())
def test_mutated_interpretation_json(files, data, equilibrium):
    path = files / "mutated-interp.json"
    path.write_text(json.dumps(data))
    argv = ["qht", "--sentence", str(files / "s.fom"), "--interp", str(path)]
    _assert_contract(*_run(argv + ["--equilibrium"] * equilibrium), path)
