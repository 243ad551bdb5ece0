"""Experiment runner: method x parameter sweeps with averaged accuracy.

``run_experiment`` takes each method through four stages, one function
each.  ``_component`` extracts the largest component of a connectivity
mode (positive for the unsigned methods, negative for the signless one,
signed otherwise) with its labels, once per sweep.  ``_cells`` gives a
method's (N_e, omega0, epsilon, basis) cells from ``_bases``, which
solves each operator once at the largest N_e (capped by the component
size), or reads it from an on-disk cache, and truncates it for smaller
N_e; a basis does not depend on ``base_seed``, so a file serves a sweep
of any seed, and ``_bases`` is the one writer of the files (``signedgl
eigs`` calls it too).  ``_samples`` draws a method's label masks per
(fraction, run).  ``_rows`` classifies one cell's samples: the one
classifier dispatch, and the one place a ``Record`` is built.  Both
per-run seeds, a run's mask in ``_samples`` and its multiclass start in
``_rows``, are ``_derived_seed(base_seed, method, stream, fraction) +
run`` with stream ``"mask"`` or ``"init"``.  A basis that cannot be
solved or read, or else a mask that cannot be drawn, gives error rows; a
cache file that cannot be written is a warning, and the rows run on the
solved basis.  A cell's mean row (``run=None``) is derived from its run
rows, so the two cannot disagree.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import LGC_ALPHA, _check_alpha, harmonic_functions, local_global
from .classifier import (
    GLConfig,
    MulticlassLabelData,
    _positive_int,
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
    fraction outside (0, 1), an n_eigs entry or ``runs`` that is not a
    positive integer, a ``base_seed`` that is not an integer, and
    parameters that GLConfig or local_global reject (``max_iter`` among
    them).  Keeps fractions, omega0 and epsilon as plain floats and the
    integers as plain ints: a run's seeds hash their ``repr`` and its CSV
    row writes them, so numpy scalars give the rows of Python numbers.
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
        self.n_eigs = [_positive_int(ne, "each n_eigs entry") for ne in self.n_eigs]
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
        self.runs = _positive_int(self.runs, "runs")
        if isinstance(self.base_seed, bool) or not hasattr(self.base_seed, "__index__"):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        self.base_seed = int(self.base_seed)
        # refuse parameters no cell can run before anything is solved
        for w0 in self.omega0:
            for eps in self.epsilon:
                self.gl_config(w0, eps)
        _check_alpha(self.alpha)
        for name in ("fractions", "omega0", "epsilon"):
            setattr(self, name, [float(v) for v in getattr(self, name)])

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


class _CacheWriteWarning(UserWarning):
    """A solved basis whose cache file could not be written."""


def _bases(comp, kind, n_eigs, cache_dir, digest) -> list:
    """[(N_e, basis)] for one operator on its component: one solve, or one
    cache file, at the largest N_e (capped by the component size); smaller
    N_e take its leading vectors.  The one writer of eigenbasis cache files:
    the sweep and ``signedgl eigs`` both fill the cache through here.  A file
    that cannot be read raises; one that cannot be written is a
    ``_CacheWriteWarning``, and the solved basis is returned."""
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
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                save_eigenbasis(path, full)
            except OSError as exc:  # the solve is good: its rows run without the file
                warnings.warn(f"cannot write eigenbasis cache file {path.name}: {exc}",
                              _CacheWriteWarning, stacklevel=2)
    return [(ne, full.truncate(min(ne, comp.n))) for ne in n_eigs]


def run_experiment(
    g: SignedGraph, labels: LabelData, spec: ExperimentSpec, cache_dir=None
) -> ExperimentResult:
    """Run the full sweep; failures become error rows and the sweep continues.

    Labels that no run could score, of another node count or with fewer
    than two classes, raise before anything is solved."""
    if labels.num_classes < 2:
        raise ValueError(f"a sweep needs at least 2 classes, the labels hold "
                         f"{labels.num_classes}")
    modes = dict.fromkeys(method_component(method) for method in spec.methods)
    components = {mode: _component(g, labels, mode, cache_dir) for mode in modes}
    run_rows: list[Record] = []
    for method in spec.methods:
        comp, comp_labels, digest = components[method_component(method)]
        samples = _samples(method, comp_labels, spec)
        # the comprehension's own scope frees a method's bases before the next solves
        run_rows += [row for cell in _cells(method, comp, digest, spec, cache_dir)
                     for row in _rows(method, comp, cell, samples, spec)]
    return ExperimentResult(run_rows)


def _component(g, labels, mode, cache_dir) -> tuple:
    """(largest component of one connectivity mode, its labels, its digest);
    the digest names cache files, so it is computed only with a cache."""
    comp, old_to_new = largest_connected_component(g, mode)
    digest = graph_digest(comp) if cache_dir is not None else ""
    return comp, labels.restrict(old_to_new), digest


def _cells(method, comp, digest, spec, cache_dir) -> list:
    """[(N_e, omega0, epsilon, basis)] of one method; a failed basis leaves its
    message in its slot, and a baseline has one cell of Nones."""
    if method not in GL_METHODS:
        return [(None, None, None, None)]
    try:
        bases = _bases(comp, GL_METHODS[method], spec.n_eigs, cache_dir, digest)
    except Exception as exc:  # keep sweeping, record the failure
        bases = [(ne, str(exc)) for ne in spec.n_eigs]
    return [(ne, w0, eps, basis) for ne, basis in bases
            for w0 in spec.omega0 for eps in spec.epsilon]


def _samples(method, comp_labels, spec) -> dict:
    """{(fraction, run): (label object, truth, evaluation mask)} of one method,
    or the message of a mask that cannot be drawn."""
    samples = {}
    for fraction in spec.fractions:
        mask_seed = _derived_seed(spec.base_seed, method, "mask", fraction)
        for run in range(spec.runs):
            try:
                train = sample_labeled_nodes(comp_labels, fraction, mask_seed + run)
            except ValueError as exc:
                samples[fraction, run] = str(exc)
            else:
                samples[fraction, run] = (*training_labels(comp_labels, train),
                                          comp_labels.known & ~train)
    return samples


def _rows(method, comp, cell, samples, spec):
    """One cell's run rows, one per sample.  A failed basis, else a failed sample,
    makes an error row that never ran (``wall_time`` 0.0); a failed run keeps its time."""
    ne, w0, eps, basis = cell
    for (fraction, run), sample in samples.items():
        acc, iters, elapsed = None, None, 0.0
        error = basis if isinstance(basis, str) else sample if isinstance(sample, str) else ""
        if not error:
            data, truth, eval_mask = sample
            t0 = time.perf_counter()
            try:
                if method == "hf":
                    pred, _ = harmonic_functions(comp.Wp, data)
                elif method == "lgc":
                    pred, _ = local_global(comp.Wp, data, alpha=spec.alpha)
                elif isinstance(data, MulticlassLabelData):
                    seed = _derived_seed(spec.base_seed, method, "init", fraction) + run
                    _, pred, diag = gl_multiclass(basis, data, spec.gl_config(w0, eps),
                                                  init_seed=seed)
                else:
                    _, pred, diag = gl_binary(basis, data, spec.gl_config(w0, eps))
                acc = accuracy(pred, truth, eval_mask)
                iters = None if basis is None else diag.iterations
            except Exception as exc:  # keep sweeping, record the failure
                acc, error = None, str(exc)
            elapsed = time.perf_counter() - t0
        yield Record(method, fraction, ne, w0, eps, run, acc, iters, error, wall_time=elapsed)


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
    return "" if value is None else str(value)


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
