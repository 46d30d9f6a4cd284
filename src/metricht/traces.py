"""Timed traces with paired here/there states, bounded enumeration, JSON I/O.

A trace pairs a sequence of state pairs (H_i, T_i) with H_i subseteq T_i and
a non-decreasing time stamp per state starting at 0.  Traces are immutable;
all derived traces (reversal, refinements) are fresh objects.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from operator import getitem, le
from typing import Iterable, Iterator

from .parser import ATOM_RE


def make_alphabet(names: Iterable[str]) -> tuple[str, ...]:
    """Deduplicate, validate and sort atom names."""
    out = sorted(set(names))
    for name in out:
        if not ATOM_RE.fullmatch(name):
            raise ValueError(f"invalid atom name {name!r}")
    return tuple(out)


@dataclass(frozen=True)
class TimedHTTrace:
    """Tuples of frozensets and ints, checked but not converted (see total_trace)."""

    here: tuple[frozenset[str], ...]
    there: tuple[frozenset[str], ...]
    times: tuple[int, ...]

    def __post_init__(self) -> None:
        here, there, times = self.here, self.there, self.times
        if not all(isinstance(field, tuple) for field in (here, there, times)):
            raise ValueError("here, there and times must be tuples")
        if not len(here) == len(there) == len(times):
            raise ValueError("state and time sequences must have equal length")
        if not times:
            raise ValueError("traces must have at least one state")
        if times[0] != 0:
            raise ValueError("state 0: the first time stamp must be 0")
        if not all(map(le, times, times[1:])):
            i = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
            raise ValueError(f"state {i}: time stamps must be non-decreasing")
        if here is not there and not all(map(frozenset.issubset, here, there)):
            i = next(i for i, (h, t) in enumerate(zip(here, there)) if not h <= t)
            raise ValueError(f"state {i}: 'here' must be included in 'there'")

    @property
    def length(self) -> int:
        return len(self.times)

    def is_total(self) -> bool:
        return self.here == self.there

    def is_strict(self) -> bool:
        return all(b > a for a, b in zip(self.times, self.times[1:]))

    def atoms(self) -> tuple[str, ...]:
        return make_alphabet(a for state in self.there for a in state)


def total_trace(states: Iterable[Iterable[str]], times: Iterable[int]) -> TimedHTTrace:
    """The total trace over these states, converted to frozensets and ints."""
    sets = tuple(frozenset(s) for s in states)
    return TimedHTTrace(sets, sets, tuple(int(t) for t in times))


def reverse_trace(trace: TimedHTTrace) -> TimedHTTrace:
    """Flip the state order and mirror the time stamps around the endpoint."""
    times = tuple(trace.times[-1] - t for t in trace.times[::-1])
    return TimedHTTrace(trace.here[::-1], trace.there[::-1], times)


@dataclass(frozen=True)
class EnumerationBounds:
    """Finite search space: alphabet, trace length and final-time limits.

    With strict_only, lengths above max_time + 1 have no trace (a strict
    trace of length L needs final time >= L - 1); such bounds are legal, and
    `lengths` stops below them.
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
        top = min(self.max_len, self.max_time + 1) if self.strict_only else self.max_len
        return range(self.max_len, self.max_len + 1) if self.exact_len else range(1, top + 1)


def _subsets(atoms: tuple[str, ...]) -> list[frozenset[str]]:
    """All subsets in binary-counter order: {}, {a0}, {a1}, {a0,a1}, ..."""
    return [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            for mask in range(1 << len(atoms))]


def _time_maps(length: int, max_time: int, strict: bool) -> Iterator[tuple[int, ...]]:
    """Time maps from 0, ascending (non-decreasing unless strict), in lexicographic order."""
    later = (combinations(range(1, max_time + 1), length - 1) if strict
             else combinations_with_replacement(range(max_time + 1), length - 1))
    return ((0,) + rest for rest in later)


def region_keys(bounds: EnumerationBounds, program) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Each time map within bounds, in enumeration order, with its region key.

    Satisfaction at state 0 reads time only through tests of tau[j] - tau[i]
    (i < j) against the windows of the operators that reach the pair (i, j)
    from state 0.  The key holds which of them hold, pair by pair
    (`semantics.Program.pair_tables`), so maps with equal keys (one region
    class) give the same verdict for every state sequence.
    """
    endpoints = program.endpoints
    for length in bounds.lengths():
        tables = program.pair_tables(length)
        for times in _time_maps(length, bounds.max_time, bounds.strict_only):
            ranks = [bisect_right(endpoints, t - s) for j, t in enumerate(times) for s in times[:j]]
            yield times, tuple(map(getitem, tables, ranks))


def state_sequences(alphabet: tuple[str, ...], length: int) -> Iterator[tuple]:
    """Every sequence of states over the alphabet, the leftmost state varying slowest."""
    return product(_subsets(alphabet), repeat=length)


def enumerate_total_traces(bounds: EnumerationBounds) -> Iterator[TimedHTTrace]:
    """Every total trace within bounds, in a fixed lexicographic order.

    Order: length ascending, then time maps, then per-state subsets with the
    leftmost state varying slowest.
    """
    for length in bounds.lengths():
        for times in _time_maps(length, bounds.max_time, bounds.strict_only):
            for states in state_sequences(bounds.alphabet, length):
                yield TimedHTTrace(states, states, times)


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


def _atom_set(value, seen: dict) -> frozenset[str] | None:
    """The atoms of a JSON list of strings, one frozenset per distinct list in
    `seen`; None for any other value."""
    if type(value) is not list:
        return None
    key = tuple(value)
    try:
        return seen[key]
    except KeyError:
        atoms = seen[key] = frozenset(value) if all(type(a) is str for a in value) else None
        return atoms
    except TypeError:  # an item was a list or an object
        return None


def trace_from_json(data: dict) -> tuple[TimedHTTrace, tuple[str, ...]]:
    if not isinstance(data, dict) or not isinstance(data.get("states"), list):
        raise ValueError("trace JSON must be an object with a 'states' list")
    alphabet = _atom_set(data.get("alphabet", []), {})
    if alphabet is None:
        raise ValueError("'alphabet' must be a list of atom names")
    alphabet = make_alphabet(alphabet)
    heres, theres, times, seen = [], [], [], {}
    for index, entry in enumerate(data["states"]):
        if not isinstance(entry, dict) or "time" not in entry or "there" not in entry:
            raise ValueError(f"state {index} must be an object with 'time' and 'there'")
        time = entry["time"]
        if type(time) is not int or time < 0:
            raise ValueError(f"state {index}: times must be non-negative integers")
        there = _atom_set(entry["there"], seen)
        here = _atom_set(entry["here"], seen) if "here" in entry else there
        if there is None or here is None:
            raise ValueError(f"state {index}: 'here' and 'there' must be lists of atom names")
        heres.append(here)
        theres.append(there)
        times.append(time)
    heres, theres = tuple(heres), tuple(theres)
    # a total trace gets its there tuple as `here` too, so no subset pass runs
    trace = TimedHTTrace(theres if heres == theres else heres, theres, tuple(times))
    atoms = make_alphabet(frozenset().union(*seen.values()))  # here-sets lie in there-sets
    stray = set(atoms) - set(alphabet or atoms)
    if stray:
        raise ValueError(f"atoms {sorted(stray)} not in the declared alphabet")
    return trace, alphabet or atoms
