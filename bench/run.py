#!/usr/bin/env python3
"""metricht benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports metricht from ./src.  Every
question is an in-process metricht.cli.main(argv) call whose stdout is
captured; its exit code and stdout hash must match the answer recorded in
bench/expected/<workload>.json, otherwise it counts as failed.  The client
asks the next question only after the previous one returned, and repeats
the whole batch in rounds for as long as another round fits in S seconds.

Every time the benchmark reports is scaled to a reference speed.  On a
two-vCPU share of a busy Xeon host, one thread's speed drifts by up to 2x
over stretches of tens of seconds, so the raw seconds of one run say more
about the other tenants than about metricht.  A fixed pure-Python
reference burst (REFERENCE_S long at the reference speed) runs after every
REFERENCE_EVERY_S of question time, about a tenth of the run; each question's
time is multiplied by REFERENCE_S over the median of the REFERENCE_WINDOW
bursts around it, and set-up and layer times by the same ratio over their
whole phase.  The unscaled figures and the scales are printed too.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
untraced rounds for S/2 seconds, then traced rounds for S/2 seconds, and
prints the per-layer metrics, each layer's self time and the tracing
overhead (traced minus untraced batch time).  The last stdout line is one
JSON object; the lines before it repeat the figures for people.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

QUESTION_LIMIT_S = 60
SETUP_REPEATS = 15
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 21
# per-layer metrics that are ratios, not per-batch totals
RATIOS = {"semantics.is_model_true_ratio", "equilibrium.model_yield", "rewrite.growth"}

# Child process for setup_s: import metricht and answer the warm-up question.
PROBE = r"""
import hashlib, io, sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
from metricht.cli import main
real, sys.stdout = sys.stdout, io.StringIO()
code = main(sys.argv[2:])
text = sys.stdout.getvalue()
elapsed = perf_counter() - start
sys.stdout = real
print(code, hashlib.sha256(text.encode()).hexdigest(), repr(elapsed))
"""


def _factorial_mod(n: int) -> int:
    return 1 if n < 2 else n * _factorial_mod(n - 1) % 1000003


def reference_burst() -> float:
    """Seconds taken by fixed interpreter work: calls, tuples, dicts, small sets.

    The mix is the kind of work metricht's searches and evaluators do, so a
    slow-down of the machine shows in it as it shows in the questions.
    """
    start = perf_counter()
    table: dict = {}
    for i in range(10000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + _factorial_mod(i % 13) \
            + len(frozenset((i, i >> 1, i >> 2)))
    return perf_counter() - start


class SpeedMeter:
    """Reference bursts spread over a phase in proportion to its question time."""

    def __init__(self) -> None:
        self.bursts = [reference_burst()]
        self.owed = 0.0

    def after(self, answer: "Answer") -> None:
        """Owe bursts for the answer's time; note where in the burst series it fell."""
        answer.burst_at = len(self.bursts)
        self.owed += answer.seconds
        while self.owed >= REFERENCE_EVERY_S:
            self.owed -= REFERENCE_EVERY_S
            self.bursts.append(reference_burst())

    def scale(self) -> float:
        """Factor that turns this phase's measured seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.bursts)

    def rescale(self, answers: list["Answer"]) -> None:
        """Give each answer the factor of the REFERENCE_WINDOW bursts around it."""
        for a in answers:
            lo = max(0, min(a.burst_at - REFERENCE_WINDOW // 2,
                            len(self.bursts) - REFERENCE_WINDOW))
            a.scale = REFERENCE_S / statistics.median(self.bursts[lo:lo + REFERENCE_WINDOW])


class QuestionTimeout(BaseException):
    """Raised in the main thread when a question exceeds QUESTION_LIMIT_S."""


def _on_alarm(signum, frame):
    raise QuestionTimeout


class CapturedStdout(io.TextIOBase):
    """Collects a question's stdout and timestamps its first complete line."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first_line_at: float | None = None

    def write(self, text: str) -> int:
        self.parts.append(text)
        if self.first_line_at is None and "\n" in text:
            self.first_line_at = perf_counter()
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.parts)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def question_key(argv: list[str], contents: dict[str, str]) -> str:
    """Identity of a question: its argv with file operands replaced by their contents' hash."""
    tokens = ["file:" + sha256(contents[t]) if t in contents else t for t in argv]
    return sha256(json.dumps(tokens))


class Answer:
    __slots__ = ("code", "stdout", "seconds", "first_output_s", "error", "burst_at", "scale")

    def __init__(self, code, stdout, seconds, first_output_s, error):
        self.code, self.stdout, self.seconds = code, stdout, seconds
        self.first_output_s, self.error = first_output_s, error
        self.burst_at, self.scale = 0, 1.0


def ask(main, argv: list[str]) -> Answer:
    """One closed-loop question: call main(argv) with stdout and stderr captured.

    Garbage left by earlier questions is collected before the clock starts, as
    a fresh CLI process would not carry it; the question's own collections
    count.
    """
    gc.collect()
    out, err = CapturedStdout(), io.StringIO()
    real = sys.stdout, sys.stderr
    code = error = None
    sys.stdout, sys.stderr = out, err
    signal.setitimer(signal.ITIMER_REAL, QUESTION_LIMIT_S)
    start = perf_counter()
    try:
        code = main(argv)
    except QuestionTimeout:
        error = f"time limit of {QUESTION_LIMIT_S}s exceeded"
    except Exception as exc:  # a crash is a failed question, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = real
    if error is None and code is None:
        error = "no exit code"
    first = out.first_line_at - start if out.first_line_at is not None else end - start
    return Answer(code, out.getvalue(), end - start, first, error)


class Batch:
    """A workload's questions with their input files laid out in a run directory."""

    def __init__(self, questions, run_dir: Path, expected: dict):
        self.questions = questions
        self.run_dir = run_dir
        self.expected = expected
        self.contents: dict[str, str] = {}
        self.feeds: dict[int, list[str]] = {}
        for q in questions:
            self.lay_out(q)

    def lay_out(self, q) -> None:
        """Write the question's input files; register the ones its predecessors produce."""
        for name, content in q.files.items():
            self._write(name, content)
        for name, source in q.chained.items():
            self.feeds.setdefault(source, []).append(name)
            self.contents.setdefault(name, "")

    def _write(self, name: str, content: str) -> None:
        self.contents[name] = content
        (self.run_dir / name).write_text(content, encoding="utf-8")

    def argv(self, q) -> list[str]:
        return [str(self.run_dir / t) if t in self.contents else t for t in q.argv]

    def check(self, q, answer: Answer) -> str | None:
        """None when the answer is the recorded one, else what is wrong."""
        if answer.error is not None:
            return answer.error
        want = self.expected.get(question_key(q.argv, self.contents))
        if want is None:
            return "no recorded answer for these inputs"
        if [answer.code, sha256(answer.stdout)] != want[:2]:
            return f"exit {answer.code} / stdout differ from the recorded answer"
        return None

    def round(self, main, log: list, meter: SpeedMeter) -> tuple[float, list[Answer], int]:
        """Ask every question once; return (seconds in questions, answers, failures)."""
        answers, failed, busy = [], 0, 0.0
        for i, q in enumerate(self.questions):
            answer = ask(main, self.argv(q))
            busy += answer.seconds
            meter.after(answer)
            problem = self.check(q, answer)
            if problem is not None:
                failed += 1
                log.append(f"FAILED question {i} ({q.label}): {problem}")
            for name in self.feeds.get(i, ()):
                self._write(name, answer.stdout)
            answers.append(answer)
        return busy, answers, failed


def run_rounds(batch: Batch, main, budget: float, log: list):
    """Repeat the batch while another round still fits in `budget` seconds (at least once)."""
    walls, answers, failed = [], [], 0
    meter = SpeedMeter()
    start, round_s = perf_counter(), 0.0
    while not walls or perf_counter() - start + round_s <= budget:
        began = perf_counter()
        busy, round_answers, round_failed = batch.round(main, log, meter)
        round_s = perf_counter() - began
        walls.append(busy)
        answers += round_answers
        failed += round_failed
    meter.rescale(answers)
    return walls, answers, failed, meter


def measure_setup(root: Path, batch: Batch, warmup, log: list) -> tuple[float, int, SpeedMeter]:
    """Median over SETUP_REPEATS fresh processes (after one that fills bytecode caches).

    Reference bursts between the probes measure the machine's speed while
    they run.
    """
    want = batch.expected.get(question_key(warmup.argv, batch.contents))
    times, failed = [], 0
    meter = SpeedMeter()
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(root / "src"),
                               *batch.argv(warmup)],
                              cwd=root, capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if want is None or [int(fields[0]), fields[1]] != want[:2]:
            failed += 1
            log.append("FAILED set-up warm-up question: answer differs from the recorded one")
        if i:
            times.append(float(fields[2]))
        meter.bursts.append(reference_burst())
    return statistics.median(times), failed, meter


def question_medians(answers: list[Answer], size: int, field: str = "seconds") -> list[float]:
    """Each question's median scaled figure over the run's rounds, in batch order.

    Per-question medians keep a slow stretch of one round (another process on
    the machine) from moving the figures, as a median of round totals would
    only with many more rounds.
    """
    return [statistics.median(getattr(a, field) * a.scale for a in answers[i::size])
            for i in range(size)]


def batch_seconds(answers: list[Answer], size: int) -> float:
    """Time to answer the batch once: the sum of the question medians."""
    return sum(question_medians(answers, size))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] \
        if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "metricht" / "__init__.py").is_file():
        print(f"error: no metricht sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = json.loads((BENCH_DIR / "expected" / f"{args.workload}.json").read_text())

    work_dir = root / ".bench_run"
    run_dir = work_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _run(args, root, wanted, expected, run_dir, work_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, root, wanted, expected, run_dir, work_dir) -> int:
    log: list[str] = []
    warmup = workloads.WARMUP[args.workload]
    questions = workloads.batch(args.workload, args.seed)
    batch = Batch(questions, run_dir, expected)
    batch.lay_out(warmup)

    values: dict[str, float] = {}
    meters: dict[str, SpeedMeter] = {}
    attempted = failed = 0
    if not args.trace:
        setup_s, setup_failed, meters["set-up"] = measure_setup(root, batch, warmup, log)
        values["setup_s"] = setup_s * meters["set-up"].scale()
        attempted += SETUP_REPEATS + 1
        failed += setup_failed

    sys.path.insert(0, str(root / "src"))
    import metricht.cli
    if not Path(metricht.cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"metricht was imported from {metricht.cli.__file__}, not ./src")
    cli_main = metricht.cli.main

    search = {k: sum(q.search[k] for q in questions if q.search)
              for k in ("time_maps", "total_traces", "refinements")}
    print(f"workload {args.workload} seed {args.seed}: {len(questions)} questions per batch; "
          f"search size stated before running: {search['time_maps']} time maps, "
          f"{search['total_traces']} total traces, {search['refinements']} refinements")
    for q in questions:
        if q.search:
            print(f"  search {q.label}: {q.search}")

    warm = ask(cli_main, batch.argv(warmup))  # imports and lazy set-up finish here
    attempted += 1
    if batch.check(warmup, warm) is not None:
        failed += 1
        log.append(f"FAILED warm-up question: {batch.check(warmup, warm)}")

    budget = args.seconds / 2 if args.trace else args.seconds
    walls, answers, round_failed, meters["rounds"] = run_rounds(batch, cli_main, budget, log)
    attempted += len(answers)
    failed += round_failed

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_main = tracer.call("cli", "main", cli_main)
        try:
            traced_walls, traced_answers, traced_failed, meters["traced rounds"] = \
                run_rounds(batch, traced_main, budget, log)
        finally:
            tracer.restore()
        attempted += len(traced_answers)
        failed += traced_failed
        rounds = len(traced_walls)
        traced_scale = meters["traced rounds"].scale()
        seconds = {m["name"] for m in wanted if m["unit"] == "s"}
        layer = tracer.layer_metrics()
        for name, value in layer.items():
            value = value if name in RATIOS else value / rounds
            values[name] = value * traced_scale if name in seconds else value
        values["cli.output_bytes"] = sum(len(a.stdout.encode()) for a in traced_answers) / rounds
        for key, total in search.items():
            values[f"search.{key}"] = total
        untraced = batch_seconds(answers, len(questions))
        traced = batch_seconds(traced_answers, len(questions))
        values["trace.untraced_wall_s"] = untraced
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_frac"] = (traced - untraced) / untraced
        values["trace.bookkeeping_s"] = tracer.bookkeeping_s / rounds * traced_scale
        work_dir.joinpath(f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
            "search": search, "spans": tracer.dump(), "counts": tracer.counts,
            "questions": [{"label": q.label, "s": a.seconds}
                          for q, a in zip(questions * rounds, traced_answers)],
        }, indent=1))
    else:
        times = question_medians(answers, len(questions))
        values["wall_s"] = sum(times)
        values["question_s.p50"] = statistics.median(times)
        values["question_s.p90"] = p90(times)
        values["first_output_s"] = statistics.median(
            question_medians(answers, len(questions), "first_output_s"))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for line in log[:20]:
        print(line)
    for phase, meter in meters.items():
        burst = statistics.median(meter.bursts)
        print(f"reference burst in {phase}: median {burst * 1000:.3f} ms over "
              f"{len(meter.bursts)} bursts; its times are scaled by {meter.scale():.4f}")
    print("untraced batch seconds per round, unscaled: " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        print("traced batch seconds per round, unscaled: "
              + " ".join(f"{w:.4f}" for w in traced_walls))
    else:
        print(f"question_s.* and first_output_s over {len(questions)} questions, "
              f"each its median over {len(walls)} rounds")
    print(f"failed {failed} of {attempted} questions attempted (set-up and warm-up included), "
          f"failed_frac {failed / attempted:.6f}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:36s} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
