#!/usr/bin/env python3
"""Benchmark of the signedgl sweep (edge list -> component -> operator ->
eigenbasis -> GL iteration -> accuracy CSV).

    python3 bench/run.py --workload ssbm2-lanczos --seed 1 --seconds 35 --trace 0

Run from the repository root; signedgl is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
(untraced and traced repetitions alternate, so the tracing overhead is
measured too).  Result details (CSV sha256, environment, every sample) go
to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS threads before numpy is imported anywhere.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUPS_PER_REP = 3
SETUP_SECONDS_PER_REP = 0.25
MIN_REPS = 2

END_TO_END_UNITS = {
    "sweep_s": "s",
    "rerun_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_mean": "ratio",
}

PER_LAYER_UNITS = {
    "classifier.gl_s": "s",
    "classifier.gl_calls": "count",
    "classifier.iters_total": "count",
    "classifier.ms_per_iter": "ms",
    "classifier.converged_ratio": "ratio",
    "classifier.gflops_computed": "GFLOP/s",
    "classifier.simplex_project_s": "s",
    "classifier.potential_grad_s": "s",
    "classifier.energy_s": "s",
    "spectral.eigs_s": "s",
    "spectral.eigs_calls": "count",
    "spectral.eigs_sponge_s": "s",
    "spectral.eigs_dense_s": "s",
    "spectral.eigs_lanczos_s": "s",
    "spectral.orth_err_max": "ratio",
    "spectral.cache_load_s": "s",
    "spectral.cache_save_s": "s",
    "spectral.cache_hit_ratio": "ratio",
    "data.graph_digest_s": "s",
    "data.load_s": "s",
    "data.load_calls": "count",
    "graph.lcc_s": "s",
    "graph.lcc_calls": "count",
    "laplacians.build_s": "s",
    "laplacians.build_calls": "count",
    "data.generate_ssbm_s": "s",
    "baselines.hf_s": "s",
    "baselines.lgc_s": "s",
    "harness.self_s": "s",
    "harness.emit_csv_s": "s",
    "harness.run_rows": "count",
    "failed_run_frac": "ratio",
    "maxiter_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.missing_layers": "count",
}


def _import_signedgl():
    """Import signedgl from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import signedgl
    except ImportError as exc:
        raise SystemExit(f"error: cannot import signedgl from {src}: {exc}")
    if not Path(signedgl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: signedgl was imported from {signedgl.__file__}, not {src}")


class CheckFailure(Exception):
    """An output of the program is not what the workload requires."""


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_version = "unknown"
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        l3 = -1
    return {
        "nproc": NPROC, "blas_threads": BLAS_THREADS, "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_version, "l3_bytes": l3,
        "python": platform.python_version(), "machine": platform.machine(),
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
    }


class Runner:
    """Runs repetitions of one workload and checks every output they make.

    A repetition is at least SETUPS_PER_REP timed setups taking at least
    SETUP_SECONDS_PER_REP, then the sweep pass, then the rerun pass in the
    same cache directory.  Spreading the setups over the run keeps one slow
    moment of the machine from setting setup_s.
    """

    def __init__(self, w, seed: int, workdir: Path, tracing=None):
        self.w, self.seed, self.workdir = w, seed, workdir
        self.tracing = tracing
        self.inputs = None
        self.hashes: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.gl_rows = 0
        self.maxiter_rows = 0
        self.accuracy_mean = None
        self.iterations = None

    def repetition(self, index: int, traced: bool) -> dict:
        rep = {"traced": traced}
        tracer = self.tracing.tracer if traced else None
        if traced:
            rep["window"] = [len(tracer.spans)]
            self.tracing.install()
        try:
            t0 = time.perf_counter()
            rep["setup"] = []
            while (len(rep["setup"]) < SETUPS_PER_REP
                   or sum(rep["setup"]) < SETUP_SECONDS_PER_REP):
                rep["setup"].append(self._setup())
            cache = self.workdir / f"cache{index}"
            rep["sweep"] = self._pass(cache, "sweep", tracer)
            rep["rerun"] = self._pass(cache, "rerun", tracer)
            rep["total"] = time.perf_counter() - t0
            shutil.rmtree(cache, ignore_errors=True)
        finally:
            if traced:
                tracer.unwrap()
                rep["window"].append(len(tracer.spans))
        return rep

    def _setup(self) -> float:
        import workloads

        t0 = time.perf_counter()
        self.inputs = workloads.setup(self.w, self.seed, self.workdir)
        return time.perf_counter() - t0

    def _pass(self, cache: Path, label: str, tracer) -> float:
        import workloads

        out = self.workdir / "out.csv"
        span = tracer.open(f"bench.{label}") if tracer else None
        t0 = time.perf_counter()
        workloads.sweep(self.w, self.seed, self.inputs, out, cache)
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        summary = workloads.summarize_csv(self.w, out)
        if summary.problems:
            raise CheckFailure(f"{label}: " + "; ".join(summary.problems))
        self.hashes.add(summary.sha256)
        if len(self.hashes) != 1:
            raise CheckFailure(f"{label}: CSV sha256 differs from an earlier pass")
        self.attempted += summary.run_rows
        self.failed += summary.error_rows
        self.gl_rows += summary.gl_rows
        self.maxiter_rows += summary.maxiter_rows
        self.accuracy_mean = summary.accuracy_mean
        self.iterations = summary.iterations
        return elapsed

    def measure(self, seconds: float) -> list[dict]:
        """Repetitions for about ``seconds``; every second one traced if tracing."""
        reps = []
        t0 = time.perf_counter()
        while True:
            traced = self.tracing is not None and len(reps) % 2 == 1
            reps.append(self.repetition(len(reps), traced))
            per_rep = statistics.median(r["total"] for r in reps)
            if len(reps) >= MIN_REPS and time.perf_counter() - t0 + per_rep > seconds:
                return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size of each workload")
    args = parser.parse_args(argv)

    _import_signedgl()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.workload(args.workload, tiny=args.size == "tiny")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR))
    tracing = layers.Tracing() if args.trace else None
    runner = Runner(w, args.seed, workdir, tracing)
    correct, problem, reps = True, "", []
    try:
        reps = runner.measure(args.seconds)
    except CheckFailure as exc:
        correct, problem = False, str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict = {}
    if correct and args.trace:
        values = tracing.per_layer(w, reps, runner)
        if tracing.missing:
            print(f"warning: no spans recorded for {', '.join(tracing.missing)}", file=sys.stderr)
        tracing.tracer.write_jsonl(OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl")
        units = PER_LAYER_UNITS
    elif correct:
        values = {
            "sweep_s": statistics.median(r["sweep"] for r in reps),
            "rerun_s": statistics.median(r["rerun"] for r in reps),
            "setup_s": statistics.median(t for r in reps for t in r["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_mean": runner.accuracy_mean,
        }
        units = END_TO_END_UNITS
    if correct:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in units.items()}
    details = {"workload": w.name, "size": args.size, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds, "environment": _environment(),
               "csv_sha256": sorted(runner.hashes), "gl_iterations_per_sweep": runner.iterations,
               "missing_layers": tracing.missing if tracing else [], "problem": problem,
               "repetitions": reps, "metrics": metrics}
    with open(OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
