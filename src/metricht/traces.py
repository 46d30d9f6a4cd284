"""Timed traces with paired here/there states, bounded enumeration, JSON I/O.

A trace pairs a sequence of state pairs (H_i, T_i) with H_i subseteq T_i and
a non-decreasing time stamp per state starting at 0.  Traces are immutable;
all derived traces (total part, reversal, refinements) are fresh objects.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .syntax import interval_endpoints


_ATOM_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def make_alphabet(names: Iterable[str]) -> tuple[str, ...]:
    """Deduplicate, validate and sort atom names."""
    out = sorted(set(names))
    for name in out:
        if not _ATOM_RE.match(name):
            raise ValueError(f"invalid atom name {name!r}")
    return tuple(out)


@dataclass(frozen=True)
class TimedHTTrace:
    here: tuple[frozenset[str], ...]
    there: tuple[frozenset[str], ...]
    times: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "here", tuple(frozenset(s) for s in self.here))
        object.__setattr__(self, "there", tuple(frozenset(s) for s in self.there))
        object.__setattr__(self, "times", tuple(int(t) for t in self.times))
        if not (len(self.here) == len(self.there) == len(self.times)):
            raise ValueError("state and time sequences must have equal length")
        if len(self.times) == 0:
            raise ValueError("traces must have at least one state")
        if self.times[0] != 0:
            raise ValueError("the first time stamp must be 0")
        for h, t in zip(self.here, self.there):
            if not h <= t:
                raise ValueError("every here-state must be included in its there-state")
        for a, b in zip(self.times, self.times[1:]):
            if b < a:
                raise ValueError("time stamps must be non-decreasing")

    @property
    def length(self) -> int:
        return len(self.times)

    def is_total(self) -> bool:
        return self.here == self.there

    def is_strict(self) -> bool:
        return all(b > a for a, b in zip(self.times, self.times[1:]))

    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))

    def atoms(self) -> tuple[str, ...]:
        return make_alphabet(a for state in self.there for a in state)


def make_trace(states: Iterable[tuple[Iterable[str], Iterable[str]]],
               times: Iterable[int]) -> TimedHTTrace:
    """Build a validated trace from (here, there) pairs and time stamps."""
    pairs = [(frozenset(h), frozenset(t)) for h, t in states]
    return TimedHTTrace(tuple(h for h, _ in pairs), tuple(t for _, t in pairs), tuple(times))


def total_trace(states: Iterable[Iterable[str]], times: Iterable[int]) -> TimedHTTrace:
    sets = tuple(frozenset(s) for s in states)
    return TimedHTTrace(sets, sets, tuple(times))


def total_part(trace: TimedHTTrace) -> TimedHTTrace:
    """Collapse the trace onto its there-component; identity on total traces."""
    if trace.is_total():
        return trace
    return TimedHTTrace(trace.there, trace.there, trace.times)


def reverse_trace(trace: TimedHTTrace) -> TimedHTTrace:
    """Flip the state order and mirror the time stamps around the endpoint."""
    last = trace.times[-1]
    times = tuple(last - trace.times[len(trace.times) - 1 - i] for i in range(len(trace.times)))
    return TimedHTTrace(trace.here[::-1], trace.there[::-1], times)


@dataclass(frozen=True)
class EnumerationBounds:
    """Finite search space: alphabet, trace length and final-time limits.

    With strict_only, lengths above max_time + 1 yield nothing (a strict
    trace of length L needs final time >= L - 1); such bounds are legal and
    simply produce fewer traces.
    """

    alphabet: tuple[str, ...]
    max_len: int
    max_time: int
    strict_only: bool = True
    exact_len: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", make_alphabet(self.alphabet))
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.max_time < 0:
            raise ValueError("max_time must be non-negative")

    def lengths(self) -> range:
        return range(self.max_len, self.max_len + 1) if self.exact_len \
            else range(1, self.max_len + 1)


def _subsets(atoms: tuple[str, ...]) -> list[frozenset[str]]:
    """All subsets in binary-counter order: {}, {a0}, {a1}, {a0,a1}, ..."""
    return [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            for mask in range(1 << len(atoms))]


def _time_maps(length: int, max_time: int, strict: bool) -> Iterator[tuple[int, ...]]:
    def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == length:
            yield prefix
            return
        start = prefix[-1] + 1 if strict else prefix[-1]
        for t in range(start, max_time + 1):
            yield from extend(prefix + (t,))

    yield from extend((0,))


def region_keys(bounds: EnumerationBounds, formulas) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Each time map within bounds, in enumeration order, with its region key.

    The key places every difference tau[j] - tau[k] (k < j) among the interval
    endpoints.  Satisfaction reads time only through interval.contains(tau[j] -
    tau[k]), so maps with equal keys (one region class, as in Alur and Dill's
    timed automata) give the same verdict for every state sequence.
    """
    endpoints = interval_endpoints(formulas)
    for length in bounds.lengths():
        for times in _time_maps(length, bounds.max_time, bounds.strict_only):
            yield times, tuple(bisect_right(endpoints, t - s)
                               for j, t in enumerate(times) for s in times[:j])


def total_traces_at(times: tuple[int, ...], alphabet: tuple[str, ...]) -> Iterator[TimedHTTrace]:
    """Every total trace with this time map, the leftmost state varying slowest."""
    for states in product(_subsets(alphabet), repeat=len(times)):
        yield TimedHTTrace(states, states, times)


def enumerate_total_traces(bounds: EnumerationBounds) -> Iterator[TimedHTTrace]:
    """Every total trace within bounds, in a fixed lexicographic order.

    Order: length ascending, then time maps, then per-state subsets with the
    leftmost state varying slowest.
    """
    for length in bounds.lengths():
        for times in _time_maps(length, bounds.max_time, bounds.strict_only):
            yield from total_traces_at(times, bounds.alphabet)


def refinements(trace: TimedHTTrace) -> Iterator[TimedHTTrace]:
    """All strictly smaller here-components over the same there-trace.

    For each state the candidate here-sets run in binary-counter order over
    the atoms of that state; the all-equal combination is skipped.  The count
    is prod(2^|T_i|) - 1.
    """
    if not trace.is_total():
        raise ValueError("refinements are defined for total traces")
    choices = [_subsets(tuple(sorted(t))) for t in trace.there]
    for combo in product(*choices):
        if combo == trace.there:
            continue
        yield TimedHTTrace(combo, trace.there, trace.times)


# --------------------------------------------------------------------------
# JSON trace format:
#   {"alphabet": ["green", "push", "red"],
#    "states": [{"time": 0, "here": ["red"], "there": ["red"]}, ...]}
# "here" may be omitted when it equals "there".

def trace_to_json(trace: TimedHTTrace, alphabet: Iterable[str] | None = None) -> dict:
    alpha = make_alphabet(alphabet) if alphabet is not None else trace.atoms()
    states = []
    for h, t, time in zip(trace.here, trace.there, trace.times):
        entry: dict = {"time": time}
        if h != t:
            entry["here"] = sorted(h)
        entry["there"] = sorted(t)
        states.append(entry)
    return {"alphabet": list(alpha), "states": states}


def _atom_set(value) -> frozenset[str] | None:
    """The atoms of a JSON list of strings; None for any other value."""
    if type(value) is not list:
        return None
    for atom in value:
        if type(atom) is not str:
            return None
    return frozenset(value)


def trace_from_json(data: dict) -> tuple[TimedHTTrace, tuple[str, ...]]:
    if not isinstance(data, dict) or not isinstance(data.get("states"), list):
        raise ValueError("trace JSON must be an object with a 'states' list")
    alphabet = _atom_set(data.get("alphabet", []))
    if alphabet is None:
        raise ValueError("'alphabet' must be a list of atom names")
    alphabet = make_alphabet(alphabet)
    heres, theres, times = [], [], []
    for index, entry in enumerate(data["states"]):
        if not isinstance(entry, dict) or "time" not in entry or "there" not in entry:
            raise ValueError(f"state {index} must be an object with 'time' and 'there'")
        time = entry["time"]
        if type(time) is not int or time < 0:
            raise ValueError(f"state {index}: times must be non-negative integers")
        if not times and time != 0:
            raise ValueError("state 0: the first time stamp must be 0")
        if times and time < times[-1]:
            raise ValueError(f"state {index}: time stamps must be non-decreasing")
        there = _atom_set(entry["there"])
        here = _atom_set(entry["here"]) if "here" in entry else there
        if there is None or here is None:
            raise ValueError(f"state {index}: 'here' and 'there' must be lists of atom names")
        if not here <= there:
            raise ValueError(f"state {index}: 'here' must be a subset of 'there'")
        heres.append(here)
        theres.append(there)
        times.append(time)
    trace = TimedHTTrace(tuple(heres), tuple(theres), tuple(times))
    if alphabet:
        stray = set(trace.atoms()) - set(alphabet)
        if stray:
            raise ValueError(f"atoms {sorted(stray)} not in the declared alphabet")
    else:
        alphabet = trace.atoms()
    return trace, alphabet
