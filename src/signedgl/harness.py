"""Experiment runner: method x parameter sweeps with averaged accuracy.

Each method runs on its own connected component (positive subgraph for
the unsigned methods, negative for the signless one, the full signed
graph otherwise), with label masks redrawn per run from a seed derived
deterministically from (base_seed, method, fraction).  Eigenbases are
computed once per (operator, eigenvector count) and reused across runs,
optionally through an on-disk cache.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import harmonic_functions, local_global
from .classifier import (
    BinaryLabelData,
    GLConfig,
    MulticlassLabelData,
    gl_binary,
    gl_multiclass,
)
from .data import LabelData, graph_digest, sample_labeled_nodes
from .graph import SignedGraph, largest_connected_component
from .laplacians import OperatorKind, build_operator
from .spectral import (
    Eigenbasis,
    eigenbasis_cache_file,
    load_eigenbasis,
    save_eigenbasis,
    smallest_eigs,
)

__all__ = [
    "GL_METHODS",
    "BASELINE_METHODS",
    "METHODS",
    "ExperimentSpec",
    "RunRecord",
    "ExperimentResult",
    "accuracy",
    "run_experiment",
    "emit_csv",
    "method_component",
]

# method token -> operator kind (GL methods only)
GL_METHODS = {
    "gl-plus": OperatorKind.LSYM_POS,
    "gl-minus": OperatorKind.QSYM_NEG,
    "gl-sn": OperatorKind.SN,
    "gl-sponge": OperatorKind.SPONGE,
    "gl-am": OperatorKind.AM,
}
BASELINE_METHODS = ("hf", "lgc")
METHODS = tuple(GL_METHODS) + BASELINE_METHODS

_CSV_COLUMNS = [
    "record",
    "method",
    "fraction",
    "n_eigs",
    "omega0",
    "epsilon",
    "run",
    "accuracy",
    "iterations",
    "error",
]


def method_component(method: str) -> str:
    """Connectivity mode whose largest component a method runs on."""
    if method in ("gl-plus", "hf", "lgc"):
        return "positive"
    if method == "gl-minus":
        return "negative"
    if method in GL_METHODS:
        return "signed"
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass
class ExperimentSpec:
    """One sweep: methods x fractions x (N_e, omega0, epsilon) x runs."""

    methods: list
    fractions: list
    n_eigs: list = field(default_factory=lambda: [100])
    omega0: list = field(default_factory=lambda: [1000.0])
    epsilon: list = field(default_factory=lambda: [0.1])
    runs: int = 10
    base_seed: int = 0
    dataset: str = ""
    alpha: float = 0.99
    tau: float = 0.1
    max_iter: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        if not self.methods:
            raise ValueError("methods list is empty")
        for m in self.methods:
            method_component(m)
        for name in ("fractions", "n_eigs", "omega0", "epsilon"):
            if not getattr(self, name):
                raise ValueError(f"{name} list is empty")
        for f in self.fractions:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"fractions must lie in (0, 1], got {f}")
        for ne in self.n_eigs:
            if int(ne) < 1:
                raise ValueError(f"n_eigs entries must be positive, got {ne}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


@dataclass
class RunRecord:
    method: str
    fraction: float
    n_eigs: int | None
    omega0: float | None
    epsilon: float | None
    run_index: int
    accuracy: float | None
    iterations: int | None
    wall_time: float
    error: str = ""


@dataclass
class MeanRecord:
    method: str
    fraction: float
    n_eigs: int | None
    omega0: float | None
    epsilon: float | None
    accuracy: float | None
    iterations: float | None
    runs: int
    error: str = ""


@dataclass
class ExperimentResult:
    runs: list
    means: list


def accuracy(pred, truth, eval_mask) -> float:
    """Fraction of eval-mask nodes whose prediction matches the truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    if pred.shape != truth.shape or pred.shape != eval_mask.shape:
        raise ValueError("pred, truth and eval_mask must be aligned")
    if not eval_mask.any():
        raise ValueError("evaluation mask is empty")
    return float(np.mean(pred[eval_mask] == truth[eval_mask]))


def _derived_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _get_eigenbasis(g, kind, k, seed, cache_dir, digest) -> Eigenbasis:
    path = None
    if cache_dir is not None:
        path = eigenbasis_cache_file(cache_dir, digest, kind, k)
        if path.exists():
            return load_eigenbasis(path)
    basis = smallest_eigs(build_operator(g, kind), k=k, seed=seed)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_eigenbasis(path, basis)
    return basis


def _truth_and_labels(labels: LabelData, train_mask):
    """(truth vector, labeled data object, binary?) on one component."""
    if labels.num_classes == 2:
        truth = labels.binary_signs()
        data = BinaryLabelData.from_signs(truth, train_mask)
        return truth, data, True
    truth = labels.y
    data = MulticlassLabelData.from_classes(labels.y, train_mask, labels.num_classes)
    return truth, data, False


def _classify(method, g, basis, data, binary, cfg, alpha, init_seed):
    if method in GL_METHODS:
        if binary:
            _, pred, diag = gl_binary(basis, data, cfg)
        else:
            _, pred, diag = gl_multiclass(basis, data, cfg, init_seed=init_seed)
        return pred, diag.iterations
    if method == "hf":
        pred, _ = harmonic_functions(g.Wp, data)
    else:
        pred, _ = local_global(g.Wp, data, alpha=alpha)
    return pred, None


def run_experiment(
    g: SignedGraph, labels: LabelData, spec: ExperimentSpec, cache_dir=None
) -> ExperimentResult:
    """Run the full sweep; failures become error rows and the sweep continues."""
    run_rows: list[RunRecord] = []
    for method in spec.methods:
        comp, old_to_new = largest_connected_component(g, method_component(method))
        comp_labels = labels.restrict(old_to_new, comp.n)
        digest = graph_digest(comp) if cache_dir is not None else ""
        if method in GL_METHODS:
            cells = [
                (ne, w0, eps)
                for ne in spec.n_eigs
                for w0 in spec.omega0
                for eps in spec.epsilon
            ]
            bases: dict[int, Eigenbasis] = {}
            for ne in spec.n_eigs:
                k = min(int(ne), comp.n)
                if k not in bases:
                    bases[k] = _get_eigenbasis(
                        comp, GL_METHODS[method], k, spec.base_seed, cache_dir, digest
                    )
        else:
            cells = [(None, None, None)]
            bases = {}
        for fraction in spec.fractions:
            mask_seed = _derived_seed(spec.base_seed, method, "mask", fraction)
            init_seed_base = _derived_seed(spec.base_seed, method, "init", fraction)
            for run_index in range(spec.runs):
                try:
                    train = sample_labeled_nodes(
                        comp_labels, fraction, run_index, base_seed=mask_seed
                    )
                except ValueError as exc:
                    for ne, w0, eps in cells:
                        run_rows.append(
                            RunRecord(method, fraction, ne, w0, eps, run_index,
                                      None, None, 0.0, error=str(exc))
                        )
                    continue
                truth, data, binary = _truth_and_labels(comp_labels, train)
                eval_mask = comp_labels.known & ~train
                for ne, w0, eps in cells:
                    t0 = time.perf_counter()
                    try:
                        if method in GL_METHODS:
                            cfg = GLConfig(
                                epsilon=eps, omega0=w0, tau=spec.tau,
                                max_iter=spec.max_iter, tol=spec.tol,
                            )
                            basis = bases[min(int(ne), comp.n)]
                        else:
                            cfg, basis = None, None
                        pred, iters = _classify(
                            method, comp, basis, data, binary, cfg, spec.alpha,
                            init_seed_base + run_index,
                        )
                        acc = accuracy(pred, truth, eval_mask)
                        err = ""
                    except Exception as exc:  # keep sweeping, record the failure
                        pred, iters, acc, err = None, None, None, str(exc)
                    run_rows.append(
                        RunRecord(method, fraction, ne, w0, eps, run_index,
                                  acc, iters, time.perf_counter() - t0, error=err)
                    )
    return ExperimentResult(runs=run_rows, means=_aggregate(run_rows, spec.runs))


def _aggregate(run_rows, runs) -> list:
    groups: dict[tuple, list[RunRecord]] = {}
    for row in run_rows:
        key = (row.method, row.fraction, row.n_eigs, row.omega0, row.epsilon)
        groups.setdefault(key, []).append(row)
    means = []
    for key, rows in groups.items():
        ok = [r for r in rows if not r.error]
        if len(ok) == len(rows):
            acc = float(np.mean([r.accuracy for r in ok]))
            its = (
                float(np.mean([r.iterations for r in ok]))
                if all(r.iterations is not None for r in ok)
                else None
            )
            err = ""
        else:
            acc, its = None, None
            err = f"{len(rows) - len(ok)}/{len(rows)} runs failed"
        means.append(MeanRecord(*key, accuracy=acc, iterations=its, runs=runs, error=err))
    return means


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_cells(row) -> dict:
    if isinstance(row, RunRecord):
        return {
            "record": "run",
            "method": row.method,
            "fraction": _fmt(row.fraction),
            "n_eigs": _fmt(row.n_eigs),
            "omega0": _fmt(row.omega0),
            "epsilon": _fmt(row.epsilon),
            "run": str(row.run_index),
            "accuracy": _fmt(row.accuracy),
            "iterations": _fmt(row.iterations),
            "error": row.error,
            "wall_time": repr(float(row.wall_time)),
        }
    return {
        "record": "mean",
        "method": row.method,
        "fraction": _fmt(row.fraction),
        "n_eigs": _fmt(row.n_eigs),
        "omega0": _fmt(row.omega0),
        "epsilon": _fmt(row.epsilon),
        "run": "",
        "accuracy": _fmt(row.accuracy),
        "iterations": _fmt(row.iterations),
        "error": row.error,
        "wall_time": "",
    }


def _sort_key(row):
    def num(v):
        return -1.0 if v is None else float(v)

    if isinstance(row, RunRecord):
        return (row.method, num(row.fraction), num(row.n_eigs), num(row.omega0),
                num(row.epsilon), 0, row.run_index)
    return (row.method, num(row.fraction), num(row.n_eigs), num(row.omega0),
            num(row.epsilon), 1, -1)


def emit_csv(result: ExperimentResult, path, include_timings: bool = False) -> None:
    """Write all rows as RFC-4180 CSV in a deterministic sorted order.

    Wall-clock timings vary between repetitions, so they are excluded
    unless ``include_timings`` is set; the default output is
    byte-reproducible for a fixed spec and seed.
    """
    columns = _CSV_COLUMNS + (["wall_time"] if include_timings else [])
    rows = sorted(result.runs + result.means, key=_sort_key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            cells = _row_cells(row)
            writer.writerow([cells[c] for c in columns])
