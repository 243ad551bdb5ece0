"""Experiment runner: method x parameter sweeps with averaged accuracy.

Each method runs on its own connected component (positive subgraph for
the unsigned methods, negative for the signless one, the full signed
graph otherwise), with label masks redrawn per run from a seed derived
deterministically from (base_seed, method, fraction).  Each component is
extracted once per sweep and shared by the methods that run on it.  Each
operator is solved once, at the largest eigenvector count of the sweep
(capped by the component size); smaller counts use leading truncations
of that basis.  The solve can go through an on-disk cache, which then
holds one file per operator at that largest count; a basis does not
depend on ``base_seed``, so a file serves a sweep of any seed.
``_bases`` is the one writer of those files: ``signedgl eigs`` calls it
too, so a file holds the same bits whether the sweep or ``eigs`` wrote
it.  A failed solve, or a cache file that cannot be read or holds
another operator's basis, turns that method's rows into error rows.
Every CSV row is a ``Record``; a cell's mean row (``run=None``) is
derived from its run rows, so the two cannot disagree.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import LGC_ALPHA, _check_alpha, harmonic_functions, local_global
from .classifier import (
    GLConfig,
    MulticlassLabelData,
    gl_binary,
    gl_multiclass,
    training_labels,
)
from .data import LabelData, graph_digest, sample_labeled_nodes
from .graph import SignedGraph, largest_connected_component
from .laplacians import OperatorKind, build_operator, operator_component
from .spectral import eigenbasis_cache_file, load_eigenbasis, save_eigenbasis, smallest_eigs

__all__ = [
    "GL_METHODS",
    "BASELINE_METHODS",
    "METHODS",
    "ExperimentSpec",
    "Record",
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


def method_component(method: str) -> str:
    """Connectivity mode whose largest component a method runs on."""
    if method in GL_METHODS:
        return operator_component(GL_METHODS[method])
    if method in BASELINE_METHODS:
        return "positive"
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass
class ExperimentSpec:
    """One sweep: methods x fractions x (N_e, omega0, epsilon) x runs.

    Refuses, before anything is solved, a list that repeats an entry, a
    fraction outside (0, 1), an n_eigs entry that is not a positive
    integer (kept as plain ints), and parameters that GLConfig or
    local_global reject.
    """

    methods: list
    fractions: list
    n_eigs: list = field(default_factory=lambda: [100])
    omega0: list = field(default_factory=lambda: [GLConfig.omega0])
    epsilon: list = field(default_factory=lambda: [GLConfig.epsilon])
    runs: int = 10
    base_seed: int = 0
    alpha: float = LGC_ALPHA
    tau: float = GLConfig.tau
    max_iter: int = GLConfig.max_iter
    tol: float = GLConfig.tol

    def __post_init__(self):
        for ne in self.n_eigs:
            if isinstance(ne, bool) or not hasattr(ne, "__index__") or ne < 1:
                raise ValueError(f"n_eigs entries must be positive integers, got {ne!r}")
        self.n_eigs = [int(ne) for ne in self.n_eigs]
        for name in ("methods", "fractions", "n_eigs", "omega0", "epsilon"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} list is empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} list repeats an entry: {values}")
        for m in self.methods:
            method_component(m)
        for f in self.fractions:
            # 1.0 draws every node with ground truth for training: none is left to score
            if not 0.0 < f < 1.0:
                raise ValueError(f"fractions must lie in (0, 1), got {f}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        # refuse parameters no cell can run before anything is solved
        for w0 in self.omega0:
            for eps in self.epsilon:
                self.gl_config(w0, eps)
        _check_alpha(self.alpha)

    def gl_config(self, omega0: float, epsilon: float) -> GLConfig:
        """The GL parameters of one (omega0, epsilon) cell."""
        return GLConfig(epsilon=epsilon, omega0=omega0, tau=self.tau,
                        max_iter=self.max_iter, tol=self.tol)


@dataclass
class Record:
    """One CSV row: a run of one cell, or with ``run=None`` the cell's mean.

    The field order is the CSV column order after ``record``; ``wall_time``
    is written only with ``include_timings``.
    """

    method: str
    fraction: float
    n_eigs: int | None
    omega0: float | None
    epsilon: float | None
    run: int | None
    accuracy: float | None
    iterations: float | None
    error: str = ""
    wall_time: float | None = None


@dataclass
class ExperimentResult:
    """The run rows of a sweep and the mean rows derived from them."""

    runs: list
    means: list = field(init=False)

    def __post_init__(self):
        self.means = _aggregate(self.runs)


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


def _bases(comp, kind, n_eigs, cache_dir, digest) -> list:
    """[(N_e, basis)] for one operator on its component: one solve, or one
    cache file, at the largest N_e (capped by the component size); smaller
    N_e take its leading vectors.  The one writer of eigenbasis cache files:
    the sweep and ``signedgl eigs`` both fill the cache through here."""
    k = min(max(n_eigs), comp.n)
    path = None if cache_dir is None else eigenbasis_cache_file(cache_dir, digest, kind, k)
    if path is not None and path.exists():
        try:
            full = load_eigenbasis(path)
        except Exception as exc:
            raise ValueError(f"cannot read cached eigenbasis {path.name}: {exc}") from exc
        if full.source.kind != kind:
            raise ValueError(f"cached eigenbasis {path.name} holds the "
                             f"{full.source.kind.value} basis, not the {kind.value} one")
    else:
        full = smallest_eigs(build_operator(comp, kind), k=k)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_eigenbasis(path, full)
    return [(ne, full.truncate(min(ne, comp.n))) for ne in n_eigs]


def _classify(method, g, basis, data, spec, w0, eps, init_seed):
    if method in GL_METHODS:
        cfg = spec.gl_config(w0, eps)
        if isinstance(data, MulticlassLabelData):
            _, pred, diag = gl_multiclass(basis, data, cfg, init_seed=init_seed)
        else:
            _, pred, diag = gl_binary(basis, data, cfg)
        return pred, diag.iterations
    if method == "hf":
        pred, _ = harmonic_functions(g.Wp, data)
    else:
        pred, _ = local_global(g.Wp, data, alpha=spec.alpha)
    return pred, None


def run_experiment(
    g: SignedGraph, labels: LabelData, spec: ExperimentSpec, cache_dir=None
) -> ExperimentResult:
    """Run the full sweep; failures become error rows and the sweep continues."""
    components: dict[str, tuple] = {}
    run_rows: list[Record] = []
    for method in spec.methods:
        mode = method_component(method)
        if mode not in components:
            comp, old_to_new = largest_connected_component(g, mode)
            digest = graph_digest(comp) if cache_dir is not None else ""
            components[mode] = (comp, labels.restrict(old_to_new, comp.n), digest)
        run_rows += _method_rows(method, *components[mode], spec, cache_dir)
    return ExperimentResult(run_rows)


def _method_rows(method, comp, comp_labels, digest, spec, cache_dir) -> list:
    """The run rows of one method on its component.

    A basis that cannot be solved or read, or a label sample that cannot
    be drawn, turns the cells it affects into error rows.
    """
    failure = ""
    if method in GL_METHODS:
        try:
            bases = _bases(comp, GL_METHODS[method], spec.n_eigs, cache_dir, digest)
        except Exception as exc:  # keep sweeping, record the failure
            bases, failure = [(ne, None) for ne in spec.n_eigs], str(exc)
        cells = [
            (ne, w0, eps, basis)
            for ne, basis in bases
            for w0 in spec.omega0
            for eps in spec.epsilon
        ]
    else:
        cells = [(None, None, None, None)]
    rows = []
    for fraction in spec.fractions:
        mask_seed = _derived_seed(spec.base_seed, method, "mask", fraction)
        init_seed_base = _derived_seed(spec.base_seed, method, "init", fraction)
        for run_index in range(spec.runs):
            error = failure
            if not error:
                try:
                    train = sample_labeled_nodes(
                        comp_labels, fraction, run_index, base_seed=mask_seed
                    )
                except ValueError as exc:
                    error = str(exc)
            if error:
                rows += [Record(method, fraction, ne, w0, eps, run_index, None, None,
                                error, wall_time=0.0) for ne, w0, eps, _ in cells]
                continue
            data, truth = training_labels(comp_labels, train)
            eval_mask = comp_labels.known & ~train
            for ne, w0, eps, basis in cells:
                t0 = time.perf_counter()
                try:
                    pred, iters = _classify(
                        method, comp, basis, data, spec, w0, eps, init_seed_base + run_index
                    )
                    acc = accuracy(pred, truth, eval_mask)
                    err = ""
                except Exception as exc:  # keep sweeping, record the failure
                    pred, iters, acc, err = None, None, None, str(exc)
                rows.append(Record(method, fraction, ne, w0, eps, run_index, acc, iters, err,
                                   wall_time=time.perf_counter() - t0))
    return rows


def _aggregate(run_rows) -> list:
    """One mean row per cell, in the order the cells first appear."""
    groups: dict[tuple, list[Record]] = {}
    for row in run_rows:
        key = (row.method, row.fraction, row.n_eigs, row.omega0, row.epsilon)
        groups.setdefault(key, []).append(row)
    means = []
    for key, rows in groups.items():
        failed = sum(bool(r.error) for r in rows)
        its = [r.iterations for r in rows]
        if failed:
            mean = Record(*key, None, None, None, f"{failed}/{len(rows)} runs failed")
        else:
            mean = Record(*key, None, float(np.mean([r.accuracy for r in rows])),
                          None if None in its else float(np.mean(its)))
        means.append(mean)
    return means


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sort_key(row: Record):
    """Cell order, then each cell's run rows by index, then its mean row."""
    cell = (row.fraction, row.n_eigs, row.omega0, row.epsilon)
    return (row.method, *(-1.0 if v is None else float(v) for v in cell),
            math.inf if row.run is None else row.run)


def emit_csv(result: ExperimentResult, path, include_timings: bool = False) -> None:
    """Write all rows as RFC-4180 CSV in a deterministic sorted order.

    Wall-clock timings vary between repetitions, so they are excluded
    unless ``include_timings`` is set; the default output is
    byte-reproducible for a fixed spec and seed.
    """
    names = [f.name for f in fields(Record)]
    if not include_timings:
        names.remove("wall_time")
    rows = sorted(result.runs + result.means, key=_sort_key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record", *names])
        for row in rows:
            kind = "mean" if row.run is None else "run"
            writer.writerow([kind, *(_fmt(getattr(row, n)) for n in names)])
