import json

import pytest

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


def test_check_at_out_of_range(run, traffic, member):
    code, _ = run("check", traffic, member, "--at", "9")
    assert code == 2


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
    assert err.startswith("error: ") and err.count("\n") == 1
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
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "(" * 200 + "p" + ")" * 200,
    "~" * 3000 + "p",
    "G " * 3000 + "p",
    "p & " * 3000 + "p",
], ids=["parens-200", "neg-3000", "always-3000", "and-3000"])
def test_deep_nesting_exits_2(capsys, tmp_path, member, text):
    theory = tmp_path / "deep.lp"
    theory.write_text(text + "\n")
    assert main(["check", str(theory), member]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {theory}: formula nested too deeply\n"
