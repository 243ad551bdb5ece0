"""Symmetries of a signed graph that every method must respect, checked with
no oracle: relabelling the nodes, switching a node set (for SN) and scaling
every weight."""

import csv

import numpy as np
import pytest
import scipy.sparse as sp

from signedgl import (
    BinaryLabelData,
    GLConfig,
    SignedGraph,
    SSBMParams,
    build_operator,
    generate_ssbm,
    gl_binary,
    harmonic_functions,
    largest_connected_component,
    local_global,
    smallest_eigs,
    split_signs,
    ssbm_label_data,
    write_labels,
    write_signed_edge_list,
)
from signedgl.cli import main as cli_main
from signedgl.harness import GL_METHODS, METHODS, method_component

N_E = 20


def ssbm(seed):
    return generate_ssbm(SSBMParams(n=300, k=2, p_in=0.05, p_out=0.05, eta=0.1, seed=seed))


@pytest.fixture(params=["dense", "lanczos"])
def solve_path(request, monkeypatch):
    """The graph seed of each eigensolver path; the Lanczos one lowers the cap
    below its components, as the dense-path tests above the cap do."""
    if request.param == "lanczos":
        monkeypatch.setattr("signedgl.spectral.DENSE_CAP", 100)
    return {"dense": 1, "lanczos": 7919}[request.param]


def component_run(method, comp, signs, mask):
    """(predictions, GL iterations or None) of one method on one component."""
    labels = BinaryLabelData.from_signs(np.where(mask, signs, 0.0), mask)
    if method == "hf":
        return harmonic_functions(comp, labels)[0], None
    if method == "lgc":
        return local_global(comp, labels)[0], None
    basis = smallest_eigs(build_operator(comp, GL_METHODS[method]), N_E)
    _, pred, diag = gl_binary(basis, labels, GLConfig())
    return pred, diag.iterations


@pytest.mark.parametrize("method", METHODS)
def test_relabelling_the_nodes_moves_no_prediction(method, solve_path):
    g, blocks = ssbm(solve_path)
    perm = np.random.default_rng(solve_path).permutation(g.n)
    moved = SignedGraph(g.Wp[perm, :][:, perm], g.Wn[perm, :][:, perm],
                        node_ids=[g.node_ids[i] for i in perm])
    mode = method_component(method)
    comp, old_to_new = largest_connected_component(g, mode)
    comp_moved, _ = largest_connected_component(moved, mode)
    assert comp.n > 100  # the lowered cap puts each component on the Lanczos path
    # node i of the moved component is node order[i] of the first
    index = {ident: i for i, ident in enumerate(comp.node_ids)}
    order = np.array([index[ident] for ident in comp_moved.node_ids])
    signs = np.where(blocks[old_to_new >= 0] == 0, 1.0, -1.0)
    mask = np.random.default_rng(3).random(comp.n) < 0.05
    pred, iters = component_run(method, comp, signs, mask)
    pred_moved, iters_moved = component_run(method, comp_moved, signs[order], mask[order])
    assert np.array_equal(pred_moved, pred[order])
    assert iters_moved == iters


def test_switching_a_node_set_flips_sn_on_it_alone(solve_path):
    # switching S flips every edge with one end in S; SN's spectrum is unchanged
    # and its eigenvectors flip on S, so the labels and predictions flip with them
    g, blocks = ssbm(solve_path)
    flip = np.where(np.random.default_rng(solve_path).random(g.n) < 0.3, -1.0, 1.0)
    S = sp.diags_array(flip, format="csr")
    switched = split_signs(S @ g.signed_adjacency() @ S)
    comp, old_to_new = largest_connected_component(g, "signed")
    comp_switched, _ = largest_connected_component(switched, "signed")
    assert comp_switched.node_ids == comp.node_ids
    signs = np.where(blocks[old_to_new >= 0] == 0, 1.0, -1.0)
    flip = flip[old_to_new >= 0]
    assert (flip < 0).any() and (flip > 0).any()
    mask = np.random.default_rng(3).random(comp.n) < 0.05
    pred, iters = component_run("gl-sn", comp, signs, mask)
    pred_switched, iters_switched = component_run("gl-sn", comp_switched, flip * signs, mask)
    assert np.array_equal(pred_switched, flip * pred)
    assert iters_switched == iters
    lam, lam_switched = (smallest_eigs(build_operator(c, "SR"), 1).lambdas[0]
                         for c in (comp, comp_switched))
    assert abs(lam_switched - lam) <= 1e-10 * max(1.0, abs(lam))


def test_doubling_every_weight_gives_the_same_csv(tmp_path):
    # every operator is normalized and doubling is exact, so a sweep cannot tell
    g, blocks = ssbm(5)
    labels = ssbm_label_data(blocks)
    write_labels(g, labels, tmp_path / "labels.txt")
    outputs = []
    for scale in (1.0, 2.0):
        edges = tmp_path / f"edges_{scale}.txt"
        write_signed_edge_list(SignedGraph(scale * g.Wp, scale * g.Wn, node_ids=g.node_ids), edges)
        out = tmp_path / f"sweep_{scale}.csv"
        assert cli_main(["run", "--dataset", str(edges), "--labels", str(tmp_path / "labels.txt"),
                         "--methods", ",".join(METHODS), "--fractions", "0.1", "--neigs", "5,10",
                         "--runs", "2", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # equal bytes alone would also pass if both sweeps refused every row
    with open(tmp_path / "sweep_1.0.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * (2 * 5 + 2) and all(row["error"] == "" for row in rows)
