"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criterion 9 needs the Wikipedia-Elections
dataset on disk (see README) and skips with a notice otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from signedgl import (
    BinaryLabelData,
    GLConfig,
    MulticlassLabelData,
    SSBMParams,
    build_operator,
    energy,
    energy_gradient,
    generate_ssbm,
    gl_binary,
    gl_multiclass,
    largest_connected_component,
    load_labels,
    load_signed_edge_list,
    run_experiment,
    simplex_project,
    smallest_eigs,
    split_signs,
)
from signedgl.cli import main as cli_main
from signedgl.classifier import multiclass_potential_gradient
from signedgl.harness import ExperimentSpec

from conftest import clique_graph, negative_only, positive_only, random_signed_graph
from test_classifier import potential_oracle, qp_projection_oracle


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


def lam_min(handle):
    if handle.B is not None:
        return sla.eigh(handle.A.toarray(), handle.B.toarray(), eigvals_only=True)[0]
    return np.linalg.eigvalsh(handle.A.toarray())[0]


def test_criterion_1_balance_theorem():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_balanced = -np.inf
    for _ in range(50):
        n = int(rng.integers(30, 201))
        p = float(rng.uniform(0.3, 0.6))
        g, _ = generate_ssbm(
            SSBMParams(n=n, k=2, p_in=p, p_out=p, eta=0.0, seed=int(rng.integers(1e9)))
        )
        worst_balanced = max(worst_balanced, lam_min(build_operator(g, "SR")))
        worst_balanced = max(
            worst_balanced, lam_min(build_operator(g, "SN"))
        )
    assert worst_balanced <= 1e-10
    smallest_perturbed = np.inf
    for _ in range(50):
        n = int(rng.integers(30, 201))
        p = float(rng.uniform(0.3, 0.6))
        g, _ = generate_ssbm(
            SSBMParams(n=n, k=2, p_in=p, p_out=p, eta=0.2, seed=int(rng.integers(1e9)))
        )
        smallest_perturbed = min(smallest_perturbed, lam_min(build_operator(g, "SR")))
    elapsed = time.monotonic() - t0
    report(
        1,
        smallest_perturbed > 1e-6 and elapsed < 30,
        f"balanced lam_min <= {worst_balanced:.2e}, perturbed >= {smallest_perturbed:.2e}, "
        f"{elapsed:.1f}s",
    )


def _suite_graphs():
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(10, 201))
        yield random_signed_graph(
            rng, n, density=float(rng.uniform(0.05, 0.4)),
            neg_share=float(rng.uniform(0.1, 0.9)), weighted=bool(rng.integers(2)),
        )


def test_criterion_2_psd_suite():
    t0 = time.monotonic()
    worst = np.inf
    for g in _suite_graphs():
        W_abs = g.absolute_adjacency()
        handles = [
            build_operator(positive_only(W_abs), "SR"),
            build_operator(positive_only(W_abs), "L_plus_sym"),
            build_operator(negative_only(W_abs), "SR"),
            build_operator(negative_only(W_abs), "Q_minus_sym"),
            build_operator(g, "L_plus_sym"),
            build_operator(g, "Q_minus_sym"),
            build_operator(g, "SR"),
            build_operator(g, "SN"),
            build_operator(g, "AM"),
            build_operator(g, "SPONGE"),
        ]
        for h in handles:
            worst = min(worst, lam_min(h))
    assert worst >= -1e-10
    neg_edge = split_signs(np.array([[0, -1.0], [-1.0, 0]]))
    br_min = lam_min(build_operator(neg_edge, "BR"))
    elapsed = time.monotonic() - t0
    report(
        2,
        br_min < -1e-6 and elapsed < 60,
        f"min eigenvalue over PSD family {worst:.2e}, BR counterexample {br_min:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_signed_ratio_identity():
    worst = 0.0
    for g in _suite_graphs():
        lhs = build_operator(g, "SR").A.toarray()
        Wp, Wn = g.Wp.toarray(), g.Wn.toarray()
        # (D+ - W+) + (D- + W-), from the dense adjacencies
        rhs = (np.diag(Wp.sum(axis=1)) - Wp) + (np.diag(Wn.sum(axis=1)) + Wn)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(3, worst <= 1e-12, f"max entrywise deviation {worst:.2e}")


def test_criterion_4_energy_gradient_and_T_matrix():
    rng = np.random.default_rng(404)
    g = random_signed_graph(rng, 30, density=0.25, weighted=True)
    basis = smallest_eigs(build_operator(g, "SN"), g.n)
    signs = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, rng.random(30) < 0.3)
    cfg = GLConfig()
    h = 1e-6
    worst_grad = 0.0
    for _ in range(100):
        u = rng.uniform(-1.5, 1.5, 30)
        grad = energy_gradient(basis, u, labels, cfg)
        fd = np.empty(30)
        for i in range(30):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[i] = (energy(basis, up, labels, cfg) - energy(basis, um, labels, cfg)) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd - grad) / np.linalg.norm(grad))
    assert worst_grad <= 1e-6

    worst_T = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 7))
        v = rng.uniform(0.05, 1.0, K)
        U = (v / v.sum())[None, :]
        T = multiclass_potential_gradient(U)[0]
        fd = np.empty(K)
        for kk in range(K):
            up, um = U.copy(), U.copy()
            up[0, kk] += h
            um[0, kk] -= h
            fd[kk] = (potential_oracle(up) - potential_oracle(um)) / (2 * h)
        worst_T = max(worst_T, np.linalg.norm(fd - T) / np.linalg.norm(T))
    report(
        4,
        worst_T <= 1e-5,
        f"gradient rel err {worst_grad:.2e}, T-matrix rel err {worst_T:.2e}",
    )


def test_criterion_5_monotone_descent():
    rng = np.random.default_rng(505)
    worst_increase = -np.inf
    for _ in range(20):
        g = random_signed_graph(rng, 50, density=0.15, weighted=True)
        basis = smallest_eigs(build_operator(g, "SN"), g.n)
        signs = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        mask = rng.random(50) < 0.2
        mask[0] = True
        labels = BinaryLabelData.from_signs(signs, mask)
        cfg = GLConfig(epsilon=0.1, omega0=1000.0, tau=0.1, max_iter=500, tol=0.0)
        _, _, diag = gl_binary(basis, labels, cfg, track_energy=True)
        assert len(diag.energy_history) == 501
        worst_increase = max(worst_increase, float(np.max(np.diff(diag.energy_history))))
    report(5, worst_increase <= 1e-12, f"max per-step energy increase {worst_increase:.2e}")


def test_criterion_6_simplex_projection():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 7))
        scale = float(rng.choice([0.5, 1.0, 3.0, 10.0]))
        v = rng.normal(0.0, scale, K)
        x = simplex_project(v)
        worst = max(worst, float(np.max(np.abs(x - qp_projection_oracle(v)))))
        assert x.min() >= -1e-12
        assert abs(x.sum() - 1.0) <= 1e-12
    report(6, worst <= 1e-8, f"max deviation from QP oracle {worst:.2e}")


CRITERION_7_CMD = [
    "ssbm", "--n", "200", "--k", "2", "--p-in", "0.1", "--p-out", "0.1",
    "--eta", "0.05", "--graph-seed", "1",
    "--methods", "gl-sn,gl-am,gl-plus", "--fractions", "0.05",
    "--neigs", "10", "--runs", "10", "--seed", "0",
]


def _read_means(path):
    import csv

    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["record"] == "mean"]
    return {r["method"]: float(r["accuracy"]) for r in rows}


def test_criterion_7_synthetic_recovery(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "recovery.csv"
    rc = cli_main(CRITERION_7_CMD + ["--out", str(out)])
    assert rc == 0
    means = _read_means(out)
    elapsed = time.monotonic() - t0
    ok = (
        means["gl-sn"] >= 0.95
        and means["gl-am"] >= 0.95
        and means["gl-am"] >= means["gl-plus"] - 0.02
        and elapsed < 120
    )
    report(
        7, ok,
        f"SN {means['gl-sn']:.3f}, AM {means['gl-am']:.3f}, "
        f"L+ {means['gl-plus']:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_multiclass_binary_consistency():
    g, truth = clique_graph([5, 5])
    op = build_operator(g, "L_plus_sym")
    mask = np.zeros(10, bool)
    mask[0] = mask[5] = True
    signs = np.where(truth == 0, 1.0, -1.0)
    _, bin_pred, _ = gl_binary(
        smallest_eigs(op, op.n), BinaryLabelData.from_signs(signs, mask), GLConfig()
    )
    mlabels = MulticlassLabelData.from_classes(truth, mask, 2)
    basis = smallest_eigs(op, op.n).truncate(2)
    _, multi_pred, _ = gl_multiclass(basis, mlabels, GLConfig(), init_seed=0)
    agreement = float(np.mean(np.where(multi_pred == 0, 1, -1) == bin_pred))
    report(8, agreement >= 0.99, f"agreement {agreement:.2f}")


def _elec_paths():
    root = os.environ.get("SIGNEDGL_DATA") or str(Path(__file__).resolve().parent.parent / "data")
    edges = Path(root) / "wikipedia-elec.edges"
    labels = Path(root) / "wikipedia-elec.labels"
    return edges, labels


def test_criterion_9_paper_reproduction():
    edges, labels_path = _elec_paths()
    if not (edges.exists() and labels_path.exists()):
        pytest.skip(
            "Wikipedia-Elections dataset not present; download and convert it "
            "per README (data/wikipedia-elec.edges, data/wikipedia-elec.labels)"
        )
    g = load_signed_edge_list(edges)
    labels = load_labels(labels_path, g, strict=False)
    comp, _ = largest_connected_component(g, "signed")
    n_edges = comp.num_positive_edges + comp.num_negative_edges
    pos_share = comp.num_positive_edges / n_edges
    assert abs(comp.n - 2325) <= 0.01 * 2325
    assert abs(n_edges - 111466) <= 0.01 * 111466
    assert abs(pos_share - 0.776) <= 0.01

    spec = ExperimentSpec(
        methods=["gl-am", "gl-sn"], fractions=[0.05], n_eigs=[100], runs=10, base_seed=0
    )
    res = run_experiment(g, labels, spec)
    means = {m.method: m.accuracy for m in res.means}
    ok = abs(means["gl-am"] - 0.885) <= 0.03 and abs(means["gl-sn"] - 0.842) <= 0.03
    report(
        9, ok,
        f"LCC n={comp.n}, edges={n_edges}, positive {pos_share:.3f}; "
        f"AM {means['gl-am']:.3f} (target 0.885), SN {means['gl-sn']:.3f} (target 0.842)",
    )


def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli_main(CRITERION_7_CMD + ["--out", str(out1)]) == 0
    assert cli_main(CRITERION_7_CMD + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(10, identical, "repeated sweep produced byte-identical CSV")
