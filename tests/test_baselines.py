from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from signedgl import (
    BinaryLabelData,
    MulticlassLabelData,
    SSBMParams,
    generate_ssbm,
    harmonic_functions,
    local_global,
    ssbm_label_data,
)

from signedgl.baselines import _solve_columns

from conftest import clique_graph, random_signed_graph


def test_hf_all_labeled_is_identity(rng):
    g = random_signed_graph(rng, 12, neg_share=0.0)
    signs = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, np.ones(12, bool))
    pred, scores = harmonic_functions(g.Wp, labels)
    assert np.array_equal(pred, signs.astype(int))
    assert np.array_equal(scores, signs)


def test_hf_path_midpoint_tie_positive():
    W = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    labels = BinaryLabelData.from_signs([1.0, 0.0, -1.0], [True, False, True])
    pred, scores = harmonic_functions(W, labels)
    assert abs(scores[1]) <= 1e-12
    assert pred[1] == 1  # sign(0) := +1


def test_hf_two_cliques_match_direct_solve_oracle():
    g, truth = clique_graph([5, 5])
    # add one weak bridge so the positive graph is connected
    Wp = g.Wp.toarray()
    Wp[4, 5] = Wp[5, 4] = 0.1
    mask = np.zeros(10, bool)
    mask[0] = mask[9] = True
    signs = np.where(truth == 0, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, mask)
    pred, scores = harmonic_functions(Wp, labels)

    # independent dense solve of the Dirichlet system
    L = np.diag(Wp.sum(1)) - Wp
    unl = np.flatnonzero(~mask)
    lab = np.flatnonzero(mask)
    expected = np.array(labels.f)
    expected[unl] = np.linalg.solve(
        L[np.ix_(unl, unl)], Wp[np.ix_(unl, lab)] @ labels.f[lab]
    )
    assert np.allclose(scores, expected, atol=1e-10)
    assert np.array_equal(pred, signs.astype(int))


def test_hf_singular_unlabeled_block():
    # two disjoint edges, labels only in the first component
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    labels = BinaryLabelData.from_signs([1.0, 0, 0, 0], [True, False, False, False])
    with pytest.raises(np.linalg.LinAlgError):
        harmonic_functions(W, labels)


@pytest.mark.parametrize("n", [10, 2010])
def test_hf_unlabeled_region_raises_at_every_size(n):
    # a labeled path plus an isolated unlabeled pair: the pair's block of
    # L_uu is singular whatever the graph size
    W = sp.lil_array((n, n))
    for i in range(n - 3):
        W[i, i + 1] = W[i + 1, i] = 1.0
    W[n - 2, n - 1] = W[n - 1, n - 2] = 1.0
    mask = np.zeros(n, bool)
    mask[0] = True
    labels = BinaryLabelData.from_signs(np.r_[1.0, np.zeros(n - 1)], mask)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        harmonic_functions(W.tocsr(), labels)


def test_hf_requires_some_labels():
    g, _ = clique_graph([3])
    labels = BinaryLabelData.from_signs(np.zeros(3), np.zeros(3, bool))
    with pytest.raises(ValueError, match="labeled"):
        harmonic_functions(g.Wp, labels)


def test_hf_maximum_principle(rng):
    for _ in range(5):
        g, _ = generate_ssbm(SSBMParams(n=60, k=2, p_in=0.3, p_out=0.3, seed=int(rng.integers(1e6))))
        sub = g.Wp.toarray()
        signs = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        mask = rng.random(60) < 0.2
        mask[0] = True
        labels = BinaryLabelData.from_signs(signs, mask)
        try:
            _, scores = harmonic_functions(sub, labels)
        except np.linalg.LinAlgError:
            continue  # isolated unlabeled region in this draw
        lo, hi = labels.f[mask].min(), labels.f[mask].max()
        assert scores[~mask].min() >= lo - 1e-9
        assert scores[~mask].max() <= hi + 1e-9


def test_hf_multiclass_three_cliques():
    g, truth = clique_graph([4, 4, 4])
    Wp = g.Wp.toarray()
    Wp[3, 4] = Wp[4, 3] = 0.1  # bridges keep the system nonsingular
    Wp[7, 8] = Wp[8, 7] = 0.1
    mask = np.zeros(12, bool)
    mask[[0, 4, 8]] = True
    labels = MulticlassLabelData.from_classes(truth, mask, 3)
    pred, _ = harmonic_functions(Wp, labels)
    assert np.array_equal(pred, truth)


def test_lgc_zero_labels_all_positive():
    g, _ = clique_graph([4])
    labels = BinaryLabelData.from_signs(np.zeros(4), np.zeros(4, bool))
    pred, scores = local_global(g.Wp, labels)
    assert np.array_equal(scores, np.zeros(4))
    assert np.array_equal(pred, np.ones(4, dtype=int))


def test_lgc_alpha_to_zero_limit(rng):
    g = random_signed_graph(rng, 15, neg_share=0.0)
    signs = np.where(rng.random(15) < 0.5, 1.0, -1.0)
    mask = rng.random(15) < 0.5
    mask[0] = True
    labels = BinaryLabelData.from_signs(signs, mask)
    pred, _ = local_global(g.Wp, labels, alpha=1e-9)
    assert np.array_equal(pred[mask], signs[mask].astype(int))


def test_lgc_two_cliques_match_direct_solve(rng):
    g, truth = clique_graph([5, 5])
    mask = np.zeros(10, bool)
    mask[0] = mask[9] = True
    signs = np.where(truth == 0, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, mask)
    pred, scores = local_global(g.Wp, labels, alpha=0.9)

    Wp = g.Wp.toarray()
    d = Wp.sum(1)
    Dinv = np.diag(1 / np.sqrt(d))
    M = np.eye(10) - 0.9 * Dinv @ Wp @ Dinv
    expected = np.linalg.solve(M, labels.f)
    assert np.allclose(scores, expected, atol=1e-10)
    assert np.array_equal(pred, signs.astype(int))
    # solve residual
    assert np.linalg.norm(M @ scores - labels.f) <= 1e-10


def test_lgc_alpha_validation():
    g, _ = clique_graph([3])
    labels = BinaryLabelData.from_signs(np.zeros(3), np.zeros(3, bool))
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="alpha"):
            local_global(g.Wp, labels, alpha=alpha)


def test_cg_path_matches_dense_oracle():
    # a 2200-node graph: the CG solve at a size where a dense oracle is still cheap
    g, blocks = generate_ssbm(SSBMParams(n=2200, k=2, p_in=0.01, p_out=0.0, seed=3))
    rng = np.random.default_rng(0)
    signs = np.where(blocks == 0, 1.0, -1.0)
    mask = rng.random(2200) < 0.1
    labels = BinaryLabelData.from_signs(np.where(mask, signs, 0.0), mask)

    _, scores = local_global(g.Wp, labels, alpha=0.9)
    Wp = g.Wp.toarray()
    d = Wp.sum(1)
    dinv = np.where(d > 0, 1 / np.sqrt(np.where(d > 0, d, 1)), 0.0)
    M = np.eye(2200) - 0.9 * (dinv[:, None] * Wp * dinv[None, :])
    expected = np.linalg.solve(M, labels.f)
    assert np.allclose(scores, expected, atol=1e-6)


def test_cg_path_reports_linalg_error():
    # the shared CG solver refuses an indefinite system
    n = 10
    M = sp.diags_array(np.r_[-1.0, np.ones(n - 1)], format="csr")
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        _solve_columns(M, np.eye(n)[:, 0])


def test_three_class_scores_match_dense_oracle():
    # one CG solve per class column, checked against an independent dense solve
    g, blocks = generate_ssbm(SSBMParams(n=300, k=3, p_in=0.1, p_out=0.05, seed=5))
    mask = np.random.default_rng(2).random(300) < 0.1
    labels = MulticlassLabelData.from_classes(blocks, mask, 3)
    F = labels.U_hat
    Wp = g.Wp.toarray()
    d = Wp.sum(1)

    _, hf_scores = harmonic_functions(g.Wp, labels)
    unl, lab = np.flatnonzero(~mask), np.flatnonzero(mask)
    expected = F.copy()
    L = np.diag(d) - Wp
    expected[unl] = np.linalg.solve(L[np.ix_(unl, unl)], Wp[np.ix_(unl, lab)] @ F[lab])
    assert np.abs(hf_scores - expected).max() <= 1e-8

    _, lgc_scores = local_global(g.Wp, labels)
    M = np.eye(300) - 0.99 * Wp / np.sqrt(np.outer(d, d))
    assert np.abs(lgc_scores - np.linalg.solve(M, F)).max() <= 1e-8


def test_baselines_reject_objects_that_are_not_label_objects():
    g, truth = clique_graph([3, 3])
    mask = np.array([True, False, False, True, False, False])
    binary = BinaryLabelData.from_signs(np.where(truth == 0, 1.0, -1.0), mask)
    # look-alikes with the same attributes are refused too, not just raw arrays
    look_alike = SimpleNamespace(target=binary.f, mask=mask, n=6, readout=binary.readout)
    for bad in (binary.f, ssbm_label_data(truth), look_alike):
        for baseline in (harmonic_functions, local_global):
            with pytest.raises(TypeError, match="BinaryLabelData or MulticlassLabelData"):
                baseline(g.Wp, bad)
