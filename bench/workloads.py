"""The three benchmark workloads and one pass of each through signedgl.

Each workload is a fixed signed stochastic block model (SSBM) sweep.  The
graph seed and the sweep's ``base_seed`` both come from the ``--seed``
argument, so the program only ever sees generated inputs.  The two
``ssbm*`` workloads call ``signedgl.harness.run_experiment`` and
``emit_csv`` directly; ``dense-cache`` writes its graph to files and runs
``signedgl run --cache-dir`` in-process through ``signedgl.cli.main``.

Every module attribute below is looked up at call time, so the span
wrappers installed by a traced run are the functions that get called.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import signedgl.cli
import signedgl.data
import signedgl.harness

MAX_ITER = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    blocks: int
    p: float
    eta: float
    methods: tuple
    fractions: tuple
    n_eigs: tuple
    runs: int
    via_cli: bool
    # span names the traced run must record on this workload
    expected_spans: tuple

    def run_rows(self) -> int:
        """Run rows the CSV must hold: one per (method, fraction, N_e, run)."""
        return sum(self._cells(m) for m in self.methods) * len(self.fractions) * self.runs

    def mean_rows(self) -> int:
        return sum(self._cells(m) for m in self.methods) * len(self.fractions)

    def _cells(self, method: str) -> int:
        return len(self.n_eigs) if method in signedgl.harness.GL_METHODS else 1

    def params(self, seed: int) -> signedgl.data.SSBMParams:
        return signedgl.data.SSBMParams(
            n=self.n, k=self.blocks, p_in=self.p, p_out=self.p, eta=self.eta, seed=seed
        )

    def spec(self, seed: int) -> signedgl.harness.ExperimentSpec:
        return signedgl.harness.ExperimentSpec(
            methods=list(self.methods), fractions=list(self.fractions),
            n_eigs=list(self.n_eigs), runs=self.runs, base_seed=seed, max_iter=MAX_ITER,
        )


_COMMON = ("harness.run_experiment", "harness.emit_csv", "graph.largest_connected_component",
           "data.sample_labeled_nodes", "data.generate_ssbm")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ssbm2-lanczos",
            n=2200, blocks=2, p=0.007, eta=0.2,
            methods=("gl-sn", "gl-am", "gl-sponge", "hf", "lgc"),
            fractions=(0.01, 0.05), n_eigs=(20,), runs=2, via_cli=False,
            expected_spans=_COMMON + (
                "laplacians.build_operator", "spectral.smallest_eigs", "spectral.eigsh",
                "classifier.gl_binary", "baselines.harmonic_functions",
                "baselines.local_global"),
        ),
        Workload(
            name="ssbm3-multiclass",
            n=2200, blocks=3, p=0.007, eta=0.15,
            methods=("gl-sn", "gl-am", "gl-sponge", "hf"),
            fractions=(0.02, 0.05), n_eigs=(20,), runs=2, via_cli=False,
            expected_spans=_COMMON + (
                "laplacians.build_operator", "spectral.smallest_eigs", "spectral.eigsh",
                "classifier.gl_multiclass", "classifier.project_rows_onto_simplex",
                "classifier.multiclass_potential_gradient", "classifier.multiclass_energy",
                "baselines.harmonic_functions"),
        ),
        Workload(
            name="dense-cache",
            n=600, blocks=2, p=0.01, eta=0.2,
            methods=tuple(signedgl.harness.METHODS),
            fractions=(0.05,), n_eigs=(20, 50, 100), runs=1, via_cli=True,
            expected_spans=_COMMON + (
                "data.load_signed_edge_list", "data.load_labels", "data.graph_digest",
                "laplacians.build_operator", "spectral.smallest_eigs",
                "spectral.save_eigenbasis", "spectral.load_eigenbasis",
                "classifier.gl_binary", "baselines.harmonic_functions",
                "baselines.local_global"),
        ),
    )
}

# Small versions for the smoke test: same code paths (the Lanczos
# workloads stay just above the 2000-node dense cap), far less work.
TINY = {
    "ssbm2-lanczos": dict(n=2050, fractions=(0.05,), n_eigs=(8,), runs=1),
    "ssbm3-multiclass": dict(n=2050, fractions=(0.05,), n_eigs=(8,), runs=1),
    "dense-cache": dict(n=300, p=0.05, n_eigs=(5, 10)),
}


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


@dataclass
class Inputs:
    graph: object
    labels: object
    edges_path: Path | None = None
    labels_path: Path | None = None


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's input; dense-cache also writes it to files."""
    g, blocks = signedgl.data.generate_ssbm(w.params(seed))
    labels = signedgl.data.ssbm_label_data(blocks)
    if not w.via_cli:
        return Inputs(g, labels)
    edges, label_file = workdir / "graph.edges", workdir / "graph.labels"
    signedgl.data.write_signed_edge_list(g, edges)
    with open(label_file, "w", encoding="utf-8") as fh:
        for ident, block in zip(g.node_ids, blocks):
            fh.write(f"{ident} block{block}\n")
    return Inputs(g, labels, edges, label_file)


def sweep(w: Workload, seed: int, inputs: Inputs, out_csv: Path, cache_dir: Path) -> None:
    """One pass: [load,] run_experiment, emit_csv.  Raises if the CLI fails."""
    if not w.via_cli:
        result = signedgl.harness.run_experiment(inputs.graph, inputs.labels, w.spec(seed))
        signedgl.harness.emit_csv(result, out_csv)
        return
    argv = [
        "run", "--dataset", str(inputs.edges_path), "--labels", str(inputs.labels_path),
        "--methods", ",".join(w.methods),
        "--fractions", ",".join(map(str, w.fractions)),
        "--neigs", ",".join(map(str, w.n_eigs)),
        "--runs", str(w.runs), "--seed", str(seed), "--max-iter", str(MAX_ITER),
        "--cache-dir", str(cache_dir), "--out", str(out_csv),
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = signedgl.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"signedgl run exited with {code}: {stderr.getvalue().strip()}")


@dataclass
class CsvSummary:
    sha256: str
    run_rows: int
    mean_rows: int
    error_rows: int
    gl_rows: int
    maxiter_rows: int
    iterations: int
    accuracy_mean: float
    problems: list


def summarize_csv(w: Workload, path: Path) -> CsvSummary:
    """Hash and check one sweep CSV against the workload's grid."""
    data = path.read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    runs = [r for r in rows if r["record"] == "run"]
    means = [r for r in rows if r["record"] == "mean"]
    gl = [r for r in runs if r["method"] in signedgl.harness.GL_METHODS]
    problems = []
    if len(runs) != w.run_rows() or len(means) != w.mean_rows():
        problems.append(f"{len(runs)} run / {len(means)} mean rows, expected "
                        f"{w.run_rows()} / {w.mean_rows()}")
    accs = [float(r["accuracy"]) for r in rows if r["accuracy"] != ""]
    if any(not 0.0 <= a <= 1.0 for a in accs):
        problems.append("accuracy outside [0, 1]")
    ok_means = [float(r["accuracy"]) for r in means if not r["error"]]
    acc_mean = float(np.mean(ok_means)) if ok_means else 0.0
    if acc_mean <= 1.0 / w.blocks:
        problems.append(f"mean accuracy {acc_mean} is no better than chance")
    return CsvSummary(
        sha256=hashlib.sha256(data).hexdigest(),
        run_rows=len(runs),
        mean_rows=len(means),
        error_rows=sum(1 for r in runs if r["error"]),
        gl_rows=len(gl),
        maxiter_rows=sum(1 for r in gl if r["iterations"] == str(MAX_ITER)),
        iterations=sum(int(r["iterations"]) for r in gl if r["iterations"]),
        accuracy_mean=acc_mean,
        problems=problems,
    )
