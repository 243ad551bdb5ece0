"""Which signedgl functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every per-layer value covers one repetition (the sweep pass and the rerun
pass) and is the median over the traced repetitions of a run; counts are
the same in every repetition.
"""

from __future__ import annotations

import statistics

import numpy as np

from signedgl.classifier import MulticlassLabelData
from spans import Tracer, self_times


def _gl_attrs(args, kwargs, result):
    basis, labels = args[0], args[1]
    diag = result[2]
    n, k = basis.phis.shape
    it = diag.iterations
    if isinstance(labels, MulticlassLabelData):
        # phis.T @ U, phis.T @ TU, phis.T @ fidelity and phis @ C_new per step
        flops = 8 * n * k * labels.num_classes * it
    else:
        # three n x k GEMVs per step, two more to start
        flops = 2 * n * k * (3 * it + 2)
    return {"n": n, "k": k, "iterations": it, "converged": bool(diag.converged),
            "flops": flops}


def _basis_attrs(args, kwargs, result):
    return {"kind": result.source.kind.value, "n": result.n, "k": result.k,
            "_basis": result}


# (module, attribute looked up at call time, span name, attribute extractor)
WRAPS = (
    ("signedgl.harness", "run_experiment", "harness.run_experiment", None),
    ("signedgl.cli", "run_experiment", "harness.run_experiment", None),
    ("signedgl.harness", "emit_csv", "harness.emit_csv", None),
    ("signedgl.cli", "emit_csv", "harness.emit_csv", None),
    ("signedgl.cli", "load_signed_edge_list", "data.load_signed_edge_list", None),
    ("signedgl.cli", "load_labels", "data.load_labels", None),
    ("signedgl.harness", "largest_connected_component", "graph.largest_connected_component",
     None),
    ("signedgl.harness", "sample_labeled_nodes", "data.sample_labeled_nodes", None),
    ("signedgl.harness", "graph_digest", "data.graph_digest", None),
    ("signedgl.harness", "build_operator", "laplacians.build_operator", None),
    ("signedgl.harness", "smallest_eigs", "spectral.smallest_eigs", _basis_attrs),
    ("signedgl.spectral", "eigsh", "spectral.eigsh", None),
    ("signedgl.harness", "load_eigenbasis", "spectral.load_eigenbasis", _basis_attrs),
    ("signedgl.harness", "save_eigenbasis", "spectral.save_eigenbasis", None),
    ("signedgl.harness", "gl_binary", "classifier.gl_binary", _gl_attrs),
    ("signedgl.harness", "gl_multiclass", "classifier.gl_multiclass", _gl_attrs),
    ("signedgl.classifier", "project_rows_onto_simplex",
     "classifier.project_rows_onto_simplex", None),
    ("signedgl.classifier", "multiclass_potential_gradient",
     "classifier.multiclass_potential_gradient", None),
    ("signedgl.classifier", "multiclass_energy", "classifier.multiclass_energy", None),
    ("signedgl.harness", "harmonic_functions", "baselines.harmonic_functions", None),
    ("signedgl.harness", "local_global", "baselines.local_global", None),
    ("signedgl.data", "generate_ssbm", "data.generate_ssbm", None),
)

GL = ("classifier.gl_binary", "classifier.gl_multiclass")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def orthonormality_error(phis: np.ndarray) -> float:
    """||Phi^T Phi - I||_F, a k x k check."""
    gram = phis.T @ phis
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


class Tracing:
    def __init__(self):
        self.tracer = Tracer()
        self.missing: list[str] = []

    def install(self) -> None:
        for module, attr, name, describe in WRAPS:
            self.tracer.wrap(module, attr, name, describe)

    def per_layer(self, w, reps: list[dict], runner) -> dict:
        spans = self.tracer.spans
        selfs, covered = self_times(spans)
        windows = [self._window(spans[lo:hi], selfs[lo:hi], covered[lo:hi])
                   for lo, hi in (r["window"] for r in reps if r["traced"])]
        values = {name: statistics.median(v[name] for v in windows) for name in windows[0]}

        self.missing = sorted(set(w.expected_spans) - {s.name for s in spans})
        plain = statistics.median(r["sweep"] for r in reps if not r["traced"])
        traced = statistics.median(r["sweep"] for r in reps if r["traced"])
        values.update({
            "harness.run_rows": _ratio(runner.attempted, len(reps)),
            "failed_run_frac": _ratio(runner.failed, runner.attempted),
            "maxiter_frac": _ratio(runner.maxiter_rows, runner.gl_rows),
            "trace.overhead_frac": traced / plain - 1.0,
            "trace.missing_layers": len(self.missing),
        })
        return values

    @staticmethod
    def _window(spans, selfs, covered) -> dict:
        def total(*names, key=None):
            return sum(s.duration for s in spans
                       if s.name in names and (key is None or key(s)))

        def count(*names):
            return sum(1 for s in spans if s.name in names)

        gl = [(s, t) for s, t in zip(spans, selfs) if s.name in GL]
        gl_s = total(*GL)
        iters = sum(s.attrs["iterations"] for s, _ in gl)
        eigs = [s for s in spans if s.name == "spectral.smallest_eigs"]
        lanczos_parents = {s.parent for s in spans if s.name == "spectral.eigsh"}
        lanczos_s = sum(s.duration for s in eigs if s.ident in lanczos_parents)
        bases = {id(s.attrs["_basis"]): s.attrs["_basis"] for s in spans if "_basis" in s.attrs}
        run = [(s, c) for s, c in zip(spans, covered) if s.name == "harness.run_experiment"]
        loads = count("spectral.load_eigenbasis")
        return {
            "classifier.gl_s": gl_s,
            "classifier.gl_calls": len(gl),
            "classifier.iters_total": iters,
            "classifier.ms_per_iter": 1000.0 * _ratio(gl_s, iters),
            "classifier.converged_ratio": _ratio(sum(s.attrs["converged"] for s, _ in gl),
                                                 len(gl)),
            "classifier.gflops_computed": 1e-9 * _ratio(sum(s.attrs["flops"] for s, _ in gl),
                                                        sum(t for _, t in gl)),
            "classifier.simplex_project_s": total("classifier.project_rows_onto_simplex"),
            "classifier.potential_grad_s": total("classifier.multiclass_potential_gradient"),
            "classifier.energy_s": total("classifier.multiclass_energy"),
            "spectral.eigs_s": total("spectral.smallest_eigs"),
            "spectral.eigs_calls": len(eigs),
            "spectral.eigs_sponge_s": total("spectral.smallest_eigs",
                                            key=lambda s: s.attrs.get("kind") == "SPONGE"),
            "spectral.eigs_dense_s": total("spectral.smallest_eigs") - lanczos_s,
            "spectral.eigs_lanczos_s": lanczos_s,
            "spectral.orth_err_max": max(
                (orthonormality_error(b.phis) for b in bases.values()), default=0.0),
            "spectral.cache_load_s": total("spectral.load_eigenbasis"),
            "spectral.cache_save_s": total("spectral.save_eigenbasis"),
            "spectral.cache_hit_ratio": _ratio(loads, loads + len(eigs)),
            "data.graph_digest_s": total("data.graph_digest"),
            "data.load_s": total("data.load_signed_edge_list", "data.load_labels"),
            "data.load_calls": count("data.load_signed_edge_list", "data.load_labels"),
            "graph.lcc_s": total("graph.largest_connected_component"),
            "graph.lcc_calls": count("graph.largest_connected_component"),
            "laplacians.build_s": total("laplacians.build_operator"),
            "laplacians.build_calls": count("laplacians.build_operator"),
            "baselines.hf_s": total("baselines.harmonic_functions"),
            "baselines.lgc_s": total("baselines.local_global"),
            "harness.self_s": sum(t for s, t in zip(spans, selfs)
                                  if s.name == "harness.run_experiment"),
            "harness.emit_csv_s": total("harness.emit_csv"),
            "data.generate_ssbm_s": _ratio(total("data.generate_ssbm"),
                                           count("data.generate_ssbm")),
            "trace.coverage": _ratio(sum(c for _, c in run), sum(s.duration for s, _ in run)),
        }
