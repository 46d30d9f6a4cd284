#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark (one round per phase, seed 1).

    python3 bench/selfcheck.py [WORKLOAD ...]

Run from the repository root.  For each workload it asserts that
  * the untraced run prints every end-to-end metric of BENCHMARK.json, by
    name and with its unit, and nothing else in its result;
  * the traced run prints every per-layer metric, including each layer's
    self time and the tracing overhead;
  * no question failed (failed_frac is 0) and the result says correct;
and once, that the benchmark refuses to run, with a non-zero exit and no
result line, in a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYERS  # noqa: E402

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, wanted: list[dict]) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert any(line.endswith("failed_frac 0.000000") for line in lines), "failed_frac not 0"
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        f"{workload}: metrics differ from BENCHMARK.json"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), f"{m['name']} is not printed with its unit"
    return result["metrics"]


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_run" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "ran without metricht sources"
        assert not proc.stdout.strip().startswith("{") and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    names = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.self_s" in layer_names, f"no self time for layer {layer}"
    assert "trace.overhead_s" in layer_names
    for workload in names:
        check_result(workload, 0, SPEC["end_to_end"])
        traced = check_result(workload, 1, SPEC["per_layer"])
        print(f"{workload}: ok (tracing overhead {traced['trace.overhead_s']['value']:.3f} s)")
    check_refuses_without_sources()
    print("refuses to run without metricht sources: ok")


if __name__ == "__main__":
    main()
