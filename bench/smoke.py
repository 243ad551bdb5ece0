#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the tiny size of every workload.

    python3 bench/smoke.py

For each workload it runs ``bench/run.py --size tiny`` untraced and traced
and checks that the last stdout line is a correct result naming exactly
the metrics of ``BENCHMARK.json`` with their units, that every wrapped
layer the workload needs recorded a span, that span self times are >= 0
and that the child-covered share of ``run_experiment`` is <= 1.  Exits 1
on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import Span, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SEED = 3


def _fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        _fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_spans(workload: str) -> None:
    path = BENCH_DIR / "out" / f"spans-{workload}-seed{SEED}.jsonl"
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            spans.append(Span(d["name"], d["start"], d["end"], d["parent"], d["id"]))
    selfs, _ = self_times(spans)
    bad = [s.name for s, t in zip(spans, selfs) if t < 0]
    if bad:
        _fail(f"{workload}: negative self time in {bad[:3]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            res = _run(name, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                _fail(f"{name} trace={trace}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                _fail(f"{name} trace={trace}: metrics/units differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            values = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 1:
                if values["trace.missing_layers"] != 0:
                    _fail(f"{name}: layers without spans, see bench/out/result-*.json")
                if not 0.0 < values["trace.coverage"] <= 1.0:
                    _fail(f"{name}: trace.coverage {values['trace.coverage']}")
                _check_spans(name)
            print(f"ok {name} trace={trace} ({len(values)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
