import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import metricht
from metricht.cli import main

TRAFFIC = """% traffic light control
G (red & green -> #false)
G (~green -> red)
G (push -> F[1..15) G[0..30] green)
X[5] push
"""

MEMBER_TRACE = {
    "alphabet": ["green", "push", "red"],
    "states": [
        {"time": 0, "there": ["red"]},
        {"time": 5, "there": ["push", "red"]},
        {"time": 12, "there": ["green"]},
    ],
}


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out
    return invoke


@pytest.fixture
def traffic(tmp_path):
    path = tmp_path / "traffic.lp"
    path.write_text(TRAFFIC)
    return str(path)


@pytest.fixture
def member(tmp_path):
    path = tmp_path / "member.json"
    path.write_text(json.dumps(MEMBER_TRACE))
    return str(path)


def test_check_sat(run, traffic, member):
    code, out = run("check", traffic, member)
    assert code == 0
    assert out.splitlines() == ["formula 1: SAT", "formula 2: SAT",
                                "formula 3: SAT", "formula 4: SAT", "SAT"]


def test_check_unsat_reports_first_failure(run, tmp_path, member):
    theory = tmp_path / "one.lp"
    theory.write_text("G (red -> #false)\n")
    code, out = run("check", str(theory), member)
    assert code == 1
    assert out.splitlines()[-1] == "UNSAT(formula 1)"


def test_check_malformed_trace_exits_2(run, traffic, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"states\": [{\"time\": 1, \"there\": []}]}")
    code, _ = run("check", traffic, str(bad))
    assert code == 2


def test_models_traffic_light(run, traffic):
    code, out = run("models", traffic, "--max-len", "3", "--exact-len",
                    "--max-time", "20", "--equilibrium")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "14 models"
    parsed = [json.loads(line) for line in lines[:-1]]
    assert len(parsed) == 14
    assert all(entry["alphabet"] == ["green", "push", "red"] for entry in parsed)
    assert parsed[0]["states"][2] == {"time": 6, "there": ["green"]}


def test_models_single_atom(run, tmp_path):
    theory = tmp_path / "p.lp"
    theory.write_text("p\n")
    code, out = run("models", str(theory), "--max-len", "1", "--equilibrium")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[-1] == "1 model"


def test_models_unsatisfiable(run, tmp_path):
    theory = tmp_path / "f.lp"
    theory.write_text("#false\n")
    code, out = run("models", str(theory), "--max-len", "2", "--max-time", "2")
    assert code == 0
    assert out.strip() == "0 models"


def test_models_reproducible(run, traffic):
    args = ("models", traffic, "--max-len", "2", "--max-time", "4")
    assert run(*args) == run(*args)


def test_equiv_negations(run, tmp_path):
    left = tmp_path / "l.lp"
    left.write_text("~~p\n")
    right = tmp_path / "r.lp"
    right.write_text("p\n")
    code, out = run("equiv", str(left), str(right), "--max-len", "1")
    assert code == 1
    assert out.startswith("NOT EQUIVALENT")
    trace = json.loads(out.strip().splitlines()[-1])
    assert trace["states"][0]["here"] == [] and trace["states"][0]["there"] == ["p"]


def test_equiv_commutativity(run, tmp_path):
    left = tmp_path / "l.lp"
    left.write_text("p & q\n")
    right = tmp_path / "r.lp"
    right.write_text("q & p\n")
    code, out = run("equiv", str(left), str(right), "--max-len", "2", "--max-time", "3")
    assert code == 0 and out.strip() == "EQUIVALENT (within bounds)"


def test_rewrite_passes(run):
    code, out = run("rewrite", "--formula", "p U[2..4) q", "--pass", "unf")
    assert code == 0
    assert out.strip() == ("p & (X[1](p & (X[1](q | (p & X[1] q)) | X[2] q)) | "
                           "X[2](q | (p & X[1] q)) | X[3] q)")
    assert run("rewrite", "--formula", "p U q", "--pass", "swap") == (0, "p S q\n")
    assert run("rewrite", "--formula", "p U[2..8) q", "--pass", "split:5") == \
        (0, "p U[2..5) q | p U[5..8) q\n")
    assert run("rewrite", "--formula", "~(p U q)", "--pass", "demorgan") == \
        (0, "~p R ~q\n")


def test_rewrite_errors(run):
    code, _ = run("rewrite", "--formula", "p -> q", "--pass", "dual")
    assert code == 1
    code, _ = run("rewrite", "--formula", "p & q", "--pass", "split:1")
    assert code == 1
    code, _ = run("rewrite", "--formula", "p", "--pass", "nope")
    assert code == 2
    code, _ = run("rewrite", "--formula", "p U[", "--pass", "swap")
    assert code == 2


def test_rewrite_split_point_must_be_an_integer(capsys):
    assert main(["rewrite", "--formula", "p U[2..8) q", "--pass", "split:abc"]) == 2
    assert capsys.readouterr().err == \
        "error: --pass split:abc: the split point must be an integer\n"
    # a point outside the interval fails the pass's precondition, not its usage
    assert main(["rewrite", "--formula", "p U[2..8) q", "--pass", "split:9"]) == 1
    assert capsys.readouterr().err == "error: split point 9 lies outside [2..8)\n"


def test_rewrite_refuses_a_result_above_the_node_bound(capsys):
    # unfolding doubles the printed tree with each step of the window, while
    # the shared result stays small enough to count at once
    start = time.perf_counter()
    assert main(["rewrite", "--formula", "p U[0..24) q", "--pass", "unf"]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == \
        "error: the rewritten formula has 33,554,430 nodes, above the bound of 1,000,000\n"
    assert main(["rewrite", "--formula", "p U[0..19) q", "--pass", "unf"]) == 1
    assert "1,048,574 nodes" in capsys.readouterr().err


def test_rewrite_below_the_node_bound_prints_the_whole_tree(capsys):
    assert main(["rewrite", "--formula", "p U[0..14) q", "--pass", "unf"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 106_503
    assert hashlib.sha256(out).hexdigest() == \
        "ae28a68da7a9a9670bc7ca6a254b454738263d49881f12f86e9635960cd68902"


def test_rewrite_result_too_deep_to_print_is_not_blamed_on_the_input(capsys):
    # the flat input unrolls into a 699-part `|` chain of 6,985 nodes; the
    # printer keeps its own stack, so the result prints
    assert main(["rewrite", "--formula", "X[0..700) p", "--pass", "onestep"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert len(out.out) == 22_128  # 22,127 characters and the newline
    assert hashlib.sha256(out.out.encode()).hexdigest() == \
        "9ea5885c45d32b203fe96f9f91674ce76c452c2a7f6f54811d98aa81ec364206"
    assert main(["rewrite", "--formula", "X[0..50) p", "--pass", "onestep"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 1428
    assert hashlib.sha256(out).hexdigest() == \
        "e97f3979500212a4cd9a45554e8432394cd30b34952f639299293df1c9138e6c"


@pytest.mark.parametrize("text,where", [
    ("p &", "line 1, column 4: unexpected end of input"),
    ("G (p", "line 1, column 5: expected ')', found 'end of input'"),
    ("p @ q", "line 1, column 3: unexpected character '@'"),
], ids=["dangling-and", "unclosed", "bad-character"])
@pytest.mark.parametrize("command", [["rewrite", "--pass", "swap"], ["translate"]],
                         ids=["rewrite", "translate"])
def test_formula_option_errors_are_named(capsys, command, text, where):
    assert main([*command, "--formula", text]) == 2
    assert capsys.readouterr().err == f"error: --formula: {where}\n"


def test_translate(run):
    code, out = run("translate", "--formula",
                    "G (push -> F[1..15) G[0..30] green)", "--at", "0")
    assert code == 0
    assert out.strip() == ("!x (0 <={0} x & push(x) -> ?y (x <={-1} y & y <={14} x & "
                           "!z (y <={0} z & z <={30} y -> green(z))))")
    assert run("translate", "--formula", "p", "--at", "0") == (0, "p(0)\n")
    code, raw = run("translate", "--formula", "p U[1..3) q", "--raw")
    assert code == 0 and "<={-1}" in raw
    code, _ = run("translate", "--formula", "F[0..0) p")
    assert code == 1
    assert run("translate", "--formula", "p", "--simplified")[0] == 2  # simplifying is the default


def test_translate_refuses_a_negative_anchor(capsys):
    # `?x (-3 <={0} x & p(x))` would not parse back as a sentence
    assert main(["translate", "--formula", "F p", "--at", "-3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --at: the anchor time point must be a natural number, got -3\n"


def test_qht(run, tmp_path):
    sentence = tmp_path / "s.fom"
    sentence.write_text("p(0)")
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"domain": [0], "there": ["p(0)"]}))
    assert run("qht", "--sentence", str(sentence), "--interp", str(interp)) == \
        (0, "SAT\n")
    assert run("qht", "--sentence", str(sentence), "--interp", str(interp),
               "--equilibrium") == (0, "EQ\n")

    top = tmp_path / "t.fom"
    top.write_text("#true")
    code, out = run("qht", "--sentence", str(top), "--interp", str(interp),
                    "--equilibrium")
    assert code == 1 and out.startswith("NON-EQ")

    ht = tmp_path / "ht.json"
    ht.write_text(json.dumps({"domain": [0], "here": [], "there": ["p(0)"]}))
    assert run("qht", "--sentence", str(sentence), "--interp", str(ht)) == \
        (1, "UNSAT\n")


@pytest.mark.parametrize("text,names", [
    ("p(x)", "x"),
    ("!x (p(x) -> q(y)) & ?x x <={2} z", "y, z"),
], ids=["atom", "under-quantifier"])
@pytest.mark.parametrize("flags", [[], ["--equilibrium"]], ids=["sat", "equilibrium"])
def test_qht_free_variable_exits_2(capsys, tmp_path, text, names, flags):
    sentence = tmp_path / "free.fom"
    sentence.write_text(text)
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"domain": [0, 1], "there": ["p(0)"]}))
    assert main(["qht", "--sentence", str(sentence), "--interp", str(interp), *flags]) == 2
    assert capsys.readouterr().err == \
        f"error: {sentence}: free variable {names}: qht needs a closed sentence\n"


@pytest.mark.parametrize("text,interp,message", [
    ("p(7)", {"domain": [0]}, "time point 7 lies outside the domain"),
    ("#true", {"domain": [0], "there": [f"a{i}(0)" for i in range(21)]},
     "subset search capped at 20 atoms, got 21"),
], ids=["point-outside-domain", "subset-cap"])
def test_qht_evaluation_errors_name_the_interpretation(capsys, tmp_path, text, interp, message):
    sentence = tmp_path / "s.fom"
    sentence.write_text(text)
    path = tmp_path / "i.json"
    path.write_text(json.dumps(interp))
    assert main(["qht", "--sentence", str(sentence), "--interp", str(path), "--equilibrium"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_qht_equilibrium_names_a_failed_there_world_before_the_subset_cap(run, tmp_path):
    # 21 there-atoms, one more than the subset scan takes, but the there-world
    # is no model of the sentence, and that verdict comes first
    sentence = tmp_path / "s.fom"
    sentence.write_text("!x (p(x) -> q(x))")
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"domain": list(range(21)),
                                  "there": [f"p({t})" for t in range(21)]}))
    assert run("qht", "--sentence", str(sentence), "--interp", str(interp), "--equilibrium") == \
        (1, "NON-EQ (the there-world is not a model)\n")


@pytest.mark.parametrize("flags", [[], ["--equilibrium"]], ids=["sat", "equilibrium"])
def test_qht_refuses_a_point_outside_the_domain_whatever_decides_first(capsys, tmp_path, flags):
    sentence = tmp_path / "s.fom"
    sentence.write_text("#false & p(9)")
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"domain": [0]}))
    assert main(["qht", "--sentence", str(sentence), "--interp", str(interp), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {interp}: time point 9 lies outside the domain\n")


def test_models_non_strict(run, tmp_path):
    theory = tmp_path / "zero.lp"
    theory.write_text("X[0..0] p\n")
    code, out = run("models", str(theory), "--max-len", "2", "--max-time", "2",
                    "--equilibrium")
    assert code == 0 and out.strip().endswith("0 models")
    code, out = run("models", str(theory), "--max-len", "2", "--max-time", "2",
                    "--equilibrium", "--non-strict")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] != "0 models"
    assert all(s["time"] == 0 for s in json.loads(lines[0])["states"])


def test_usage_errors(run, tmp_path):
    code, _ = run("models", str(tmp_path / "missing.lp"), "--max-len", "1")
    assert code == 2
    assert main(["nope"]) == 2
    code, _ = run("models", str(tmp_path / "missing.lp"), "--max-len", "0")
    assert code == 2


def test_check_at_out_of_range(capsys, tmp_path, traffic, member):
    assert main(["check", traffic, member, "--at", "9"]) == 2
    assert capsys.readouterr().err == f"error: --at 9: {member} has states 0 to 2\n"
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"states": [{"time": 0, "there": ["red"]}]}))
    assert main(["check", traffic, str(single), "--at", "3"]) == 2
    assert capsys.readouterr().err == f"error: --at 3: {single} has states 0 to 0\n"


GOOD_STATE = {"time": 0, "there": ["red"]}


@pytest.mark.parametrize("data,located", [
    ({"states": [GOOD_STATE, {"there": ["red"]}]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": 1}]}, "state 1"),
    ({"states": [GOOD_STATE, 5]}, "state 1"),
    ({"states": [GOOD_STATE, ["red"]]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": 1, "there": [5]}]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": 1, "there": "red"}]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": 1, "here": "red", "there": ["red"]}]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": 1, "here": ["green"], "there": ["red"]}]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": True, "there": ["red"]}]}, "state 1"),
    ({"states": [GOOD_STATE, {"time": 1.5, "there": ["red"]}]}, "state 1"),
    ({"states": 5}, None),
    ({"alphabet": "red", "states": [GOOD_STATE]}, None),
    ([GOOD_STATE], None),
    ({"states": [GOOD_STATE, {"time": 3, "there": ["red"]}, {"time": 2, "there": ["red"]}]},
     "state 2: time stamps must be non-decreasing"),
    ({"states": [{"time": 1, "there": ["red"]}]}, "state 0: the first time stamp must be 0"),
], ids=["no-time", "no-there", "state-int", "state-list", "atom-int", "there-str",
        "here-str", "here-not-subset", "time-bool", "time-float", "states-int",
        "alphabet-str", "top-list", "time-decreasing", "time-first-nonzero"])
def test_malformed_trace_json_exits_2(capsys, traffic, tmp_path, data, located):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check", traffic, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    if located:
        assert located in err


@pytest.mark.parametrize("data", [
    {"domain": 5, "there": []},
    {"domain": [0], "there": [5]},
    {"domain": [0], "there": "p(0)"},
    {"domain": [0], "here": 5, "there": []},
    {"domain": [0, True], "there": []},
    {"domain": [0, -1], "there": []},
    {"domain": [0, "1"], "there": []},
], ids=["domain-int", "atom-int", "there-str", "here-int", "domain-bool",
        "domain-negative", "domain-str"])
def test_malformed_interpretation_json_exits_2(capsys, tmp_path, data):
    sentence = tmp_path / "s.fom"
    sentence.write_text("#true")
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps(data))
    assert main(["qht", "--sentence", str(sentence), "--interp", str(interp)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {interp}: ") and err.count("\n") == 1


@pytest.mark.parametrize("text,where", [
    ("!x (p(x) & )", "line 1, column 12: expected a term, found ')'"),
    ("?y (q(y) &\n   <={2} y)", "line 2, column 4: expected a term, found '<={2}'"),
    ("p(0", "line 1, column 4: expected ')', found 'end of input'"),
    ("!x p(x) |\n  @", "line 2, column 3: unexpected character '@'"),
], ids=["missing-operand", "second-line", "unclosed", "bad-character"])
def test_malformed_sentence_is_located(capsys, tmp_path, text, where):
    sentence = tmp_path / "s.fom"
    sentence.write_text(text)
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({"domain": [0]}))
    assert main(["qht", "--sentence", str(sentence), "--interp", str(interp)]) == 2
    assert capsys.readouterr().err == f"error: {sentence}: {where}\n"


@pytest.mark.parametrize("text,where", [
    ("p &\n& q\n", "line 1, column 4: unexpected end of input"),
    ("% rules\nG (p ->\n  q\n", "line 3, column 4: expected ')', found 'end of input'"),
    ("q\nQ p\n", "line 2, column 1: unknown operator name 'Q'"),
    ("p U[2..w] q\n", "line 1, column 4: a closed upper bound requires a finite bound, not w"),
], ids=["dangling-and", "unclosed", "unknown-operator", "interval"])
@pytest.mark.parametrize("command", ["check", "models", "equiv-left", "equiv-right"])
def test_malformed_theory_is_located(capsys, tmp_path, traffic, member, text, where, command):
    bad = tmp_path / "bad.lp"
    bad.write_text(text)
    argv = {"check": ["check", str(bad), member],
            "models": ["models", str(bad), "--max-len", "1"],
            "equiv-left": ["equiv", str(bad), traffic, "--max-len", "1"],
            "equiv-right": ["equiv", traffic, str(bad), "--max-len", "1"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {where}\n"


@pytest.mark.parametrize("text", [
    "(" * 200 + "p" + ")" * 200,
    "~" * 3000 + "p",
    "G " * 3000 + "p",
], ids=["parens-200", "neg-3000", "always-3000"])
def test_deep_nesting_exits_2(capsys, tmp_path, member, text):
    # the parser recurses on these; a long `&` chain it reads in a loop
    theory = tmp_path / "deep.lp"
    theory.write_text(text + "\n")
    assert main(["check", str(theory), member]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {theory}: formula nested too deeply\n"


def test_check_of_a_long_conjunction(capsys, tmp_path):
    theory, trace = tmp_path / "long.lp", tmp_path / "p.json"
    theory.write_text("p & " * 100_000 + "p\n")
    trace.write_text(json.dumps({"states": [{"time": 0, "there": ["p"]}]}))
    assert main(["check", str(theory), str(trace)]) == 0
    assert capsys.readouterr().out == "formula 1: SAT\nSAT\n"


def test_repeated_calls_answer_as_fresh_processes(capsys, monkeypatch, traffic, member):
    # main reuses one parser per process; a usage error must not leave state
    # behind that changes a later answer
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(metricht.__file__).resolve().parents[1])}
    formula = "G (push -> F[1..15) G[0..30] green)"
    for argv in (["check", traffic],
                 ["check", traffic, member],
                 ["models", traffic, "--max-len", "3", "--max-time", "7"],
                 ["translate", "--formula", formula, "--raw"],
                 ["translate", "--formula", formula],
                 ["check", traffic, member]):
        code = main(argv)
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "metricht", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
