import json
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings

from conftest import gaps, gen_trace, make_trace, total_part, traces_st
from metricht.traces import (
    EnumerationBounds, TimedHTTrace, enumerate_total_traces, make_alphabet,
    refinements, reverse_trace, time_maps, total_trace, trace_from_json, trace_to_json,
)


def test_make_trace_valid_total_strict():
    t = make_trace([({"red"}, {"red"}), ({"push", "red"}, {"push", "red"}),
                    ({"green"}, {"green"})], [0, 5, 12])
    assert t.is_total() and t.is_strict() and t.length == 3


def test_make_trace_non_strict_is_valid():
    t = make_trace([(set(), set()), (set(), set())], [0, 0])
    assert not t.is_strict()


def test_make_trace_errors():
    with pytest.raises(ValueError, match="must be 0"):
        make_trace([(set(), set()), (set(), set())], [1, 2])
    with pytest.raises(ValueError, match="included"):
        make_trace([({"p"}, set())], [0])
    with pytest.raises(ValueError, match="non-decreasing"):
        make_trace([(set(), set()), (set(), set()), (set(), set())], [0, 3, 1])
    with pytest.raises(ValueError, match="at least one"):
        make_trace([], [])


E, P = frozenset(), frozenset({"p"})


@pytest.mark.parametrize("here,there,times,message", [
    ((E, E), (E, E), (1, 2), "state 0: the first time stamp must be 0"),
    ((E, E, E), (E, E, E), (0, 3, 1), "state 2: time stamps must be non-decreasing"),
    ((E, P, E), (E, E, E), (0, 1, 2), "state 1: 'here' must be included in 'there'"),
    ((E,), (E, E), (0, 1), "state and time sequences must have equal length"),
    ((), (), (), "traces must have at least one state"),
], ids=["first-time", "decreasing", "here-not-included", "lengths", "empty"])
def test_constructor_messages_name_the_state(here, there, times, message):
    with pytest.raises(ValueError) as info:
        TimedHTTrace(here, there, times)
    assert str(info.value) == message


@pytest.mark.parametrize("fields", [
    ([E], (E,), (0,)), ((E,), [E], (0,)), ((E,), (E,), [0]), ([P], [P], [0]),
], ids=["here", "there", "times", "all"])
def test_constructor_rejects_lists(fields):
    with pytest.raises(ValueError, match="must be tuples"):
        TimedHTTrace(*fields)


def test_constructor_converts_nothing():
    states, times = (P, E), (0, 4)
    t = TimedHTTrace(states, states, times)
    assert t.here is states and t.there is states and t.times is times
    assert hash(t) == hash(TimedHTTrace((P, E), (P, E), (0, 4)))


def test_total_trace_converts_sets_and_lists():
    t = total_trace([{"p"}, ["q", "p"], ()], [0, 2, 2])
    assert t.there == (P, frozenset({"p", "q"}), E) and t.here is t.there
    assert t.times == (0, 2, 2) and type(t.times) is tuple
    assert t == total_trace(({"p"}, {"p", "q"}, set()), iter((0, 2, 2)))
    hash(t)


def test_total_part():
    t = make_trace([(set(), {"p"})], [0])
    tp = total_part(t)
    assert tp.here == tp.there == (frozenset({"p"}),)
    assert total_part(tp) is tp


def test_reverse_examples():
    t = total_trace([{"a"}, {"b"}, {"c"}], [0, 2, 5])
    r = reverse_trace(t)
    assert r.times == (0, 3, 5)
    assert [sorted(s) for s in r.there] == [["c"], ["b"], ["a"]]
    single = total_trace([{"a"}], [0])
    assert reverse_trace(single) == single
    assert reverse_trace(r) == t


@settings(max_examples=300, deadline=None)
@given(traces_st())
def test_reverse_properties(t):
    r = reverse_trace(t)
    assert reverse_trace(r) == t
    assert r.length == t.length
    assert Counter(gaps(r)) == Counter(gaps(t))
    assert r.is_strict() == t.is_strict()


# ------------------------------------------------------------------ enumeration

def test_enumeration_counts():
    assert len(list(enumerate_total_traces(EnumerationBounds(("p",), 1, 0)))) == 2
    assert len(list(enumerate_total_traces(EnumerationBounds(("p",), 2, 2)))) == 10
    only_singles = list(enumerate_total_traces(EnumerationBounds(("p",), 2, 0)))
    assert len(only_singles) == 2 and all(t.length == 1 for t in only_singles)


def test_enumeration_order_and_uniqueness():
    bounds = EnumerationBounds(("p", "q"), 3, 3)
    first = list(enumerate_total_traces(bounds))
    second = list(enumerate_total_traces(bounds))
    assert first == second
    assert len(set(first)) == len(first)
    lengths = [t.length for t in first]
    assert lengths == sorted(lengths)


def test_enumeration_invariants_bulk():
    bounds = EnumerationBounds(("a", "b", "c"), 3, 7)
    seen = 0
    for t in enumerate_total_traces(bounds):
        seen += 1
        assert t.times[0] == 0 and t.is_total() and t.is_strict()
        assert t.times[-1] <= 7
        assert all(s <= frozenset("abc") for s in t.there)
    assert seen >= 10_000


def test_enumeration_exact_len():
    bounds = EnumerationBounds(("p",), 2, 2, exact_len=True)
    assert all(t.length == 2 for t in enumerate_total_traces(bounds))


def test_enumeration_non_strict():
    bounds = EnumerationBounds(("p",), 2, 1, strict_only=False)
    times = {t.times for t in enumerate_total_traces(bounds)}
    assert (0, 0) in times and (0, 1) in times


def test_time_maps_follow_the_itertools_order():
    # the odometer yields what combinations (strict) and combinations with
    # replacement (non-strict) of the later stamps do, in their order; it
    # walks a long map in a loop, not a frame per state
    for length in range(1, 6):
        for max_time in range(8):
            for strict in (True, False):
                later = (combinations(range(1, max_time + 1), length - 1) if strict
                         else combinations_with_replacement(range(max_time + 1), length - 1))
                assert list(time_maps(length, max_time, strict)) == [(0, *t) for t in later]
    assert next(time_maps(100_000, 1, False)) == (0,) * 100_000


def test_bounds_validation():
    with pytest.raises(ValueError):
        EnumerationBounds(("p",), 0, 3)
    with pytest.raises(ValueError):
        EnumerationBounds(("p",), 1, -1)
    with pytest.raises(ValueError, match="invalid atom"):
        EnumerationBounds(("P",), 1, 1)


# ------------------------------------------------------------------ refinements

def test_refinement_examples():
    assert list(refinements(total_trace([{"p"}], [0]))) == \
        [make_trace([(set(), {"p"})], [0])]
    assert len(list(refinements(total_trace([{"p", "q"}], [0])))) == 3
    assert list(refinements(total_trace([set(), set()], [0, 1]))) == []


def test_refinement_requires_total():
    with pytest.raises(ValueError):
        list(refinements(make_trace([(set(), {"p"})], [0])))


def test_refinement_count_property():
    rng = random.Random(3)
    for _ in range(200):
        t = gen_trace(rng, atoms=("p", "q"), max_len=3, total=True)
        expected = 1
        for s in t.there:
            expected *= 2 ** len(s)
        got = list(refinements(t))
        assert len(got) == expected - 1
        assert all(r.there == t.there and r.times == t.times and r != t for r in got)


# ------------------------------------------------------------------ JSON

def test_trace_json_roundtrip():
    t = make_trace([({"red"}, {"red"}), (set(), {"push", "red"})], [0, 5])
    data = trace_to_json(t, ("green", "push", "red"))
    assert data["alphabet"] == ["green", "push", "red"]
    assert "here" not in data["states"][0]
    assert data["states"][1]["here"] == []
    back, alphabet = trace_from_json(json.loads(json.dumps(data)))
    assert back == t and alphabet == ("green", "push", "red")


def test_trace_json_errors():
    with pytest.raises(ValueError):
        trace_from_json({"no": "states"})
    with pytest.raises(ValueError, match="non-negative"):
        trace_from_json({"states": [{"time": -1, "there": []}]})
    with pytest.raises(ValueError, match="alphabet"):
        trace_from_json({"alphabet": ["p"], "states": [{"time": 0, "there": ["q"]}]})


def test_make_alphabet():
    assert make_alphabet(["red", "green", "red"]) == ("green", "red")
    with pytest.raises(ValueError):
        make_alphabet(["1bad"])
