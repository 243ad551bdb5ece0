"""An independent reference for the run rows of ``run_experiment``.

Every row of a sweep is re-derived here from the formulas: the largest
component of each connectivity mode (``scipy.sparse.csgraph``), the dense
operator written out entrywise, its eigenpairs from ``np.linalg.eigh``,
the label restriction and evaluation mask, and the Ginzburg-Landau step
written in node space, as the Galerkin projection onto the eigenvectors
of the convexity-splitting step of the energy.  The multiclass scheme
uses its own sort-based simplex projection and a well gradient that
loops over the L1 distances to the simplex vertices.  The baselines are
dense solves.  From the package only the code under test, the label
sampler, the seed derivation, the SSBM generator and the dense size cap
are used, so a change to the sweep's plumbing (components, label
restriction, seeds, truncation, evaluation mask, accuracy) shows up as a
differing row.
One binary case has a signed component above ``DENSE_CAP``, so its sweep
takes the Lanczos path while the reference still solves densely.

gl-sponge is left out: its basis is B-orthonormal, on which the
coefficient-space and node-space forms of the step disagree.
"""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from signedgl import LabelData, SSBMParams, generate_ssbm, sample_labeled_nodes
from signedgl.harness import ExperimentSpec, _derived_seed, run_experiment
from signedgl.spectral import DENSE_CAP

ALPHA = 0.99  # the LGC mixing parameter, passed to the sweep explicitly
NORM_FLOOR = 1e-30


def largest_component(adj):
    """Sorted node indices of the largest component; ties go to the component
    holding the smallest node index."""
    _, comp = connected_components(adj, directed=False)
    sizes = np.bincount(comp)
    first = next(i for i in range(comp.size) if sizes[comp[i]] == sizes.max())
    return np.flatnonzero(comp == comp[first])


def inv_sqrt(d):
    out = np.zeros_like(d)
    out[d > 0] = 1.0 / np.sqrt(d[d > 0])
    return out


def normalized(W, d):
    """D^{-1/2} W D^{-1/2}, with zero rows and columns at zero degree."""
    s = inv_sqrt(d)
    return s[:, None] * W * s[None, :]


def dense_operator(method, Wp, Wn):
    """The operator of a GL method on its component's dense adjacencies."""
    eye = np.eye(Wp.shape[0])
    lsym_pos = eye - normalized(Wp, Wp.sum(axis=1))
    qsym_neg = eye + normalized(Wn, Wn.sum(axis=1))
    if method == "gl-plus":
        return lsym_pos
    if method == "gl-minus":
        return qsym_neg
    if method == "gl-sn":
        return eye - normalized(Wp - Wn, (Wp + Wn).sum(axis=1))
    assert method == "gl-am"
    return lsym_pos + qsym_neg


COMPONENT = {"gl-plus": "positive", "gl-minus": "negative", "gl-sn": "signed",
             "gl-am": "signed", "hf": "positive", "lgc": "positive"}


def project_simplex(V):
    """Row-wise Euclidean projection onto the probability simplex, by sorting."""
    s = -np.sort(-V, axis=1)
    cs = np.cumsum(s, axis=1)
    j = np.arange(1, V.shape[1] + 1)
    positive = s - (cs - 1.0) / j > 0
    # the last positive gap, or the last column if none is positive
    rho = V.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    rho[~positive.any(axis=1)] = V.shape[1] - 1
    theta = (cs[np.arange(V.shape[0]), rho] - 1.0) / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def well_gradient(U):
    """d/dU of sum_i prod_l ||u_i - e_l||_1^2 / 4, with the interior signs of
    the L1 distances: d||u - e_l||_1 / du_k = 1 - 2 [k == l]."""
    n, K = U.shape
    dist = [np.abs(U - np.eye(K)[l]).sum(axis=1) for l in range(K)]
    grad = np.zeros((n, K))
    for l in range(K):
        rest = np.ones(n)
        for m in range(K):
            if m != l:
                rest = rest * dist[m] ** 2 / 4.0
        for k in range(K):
            grad[:, k] += (1.0 - 2.0 * (k == l)) / 2.0 * dist[l] * rest
    return grad


def gl_reference(L, phis, target, train, cfg, init_seed):
    """Run the GL scheme in node space; returns (scores, iterations).

    Each step solves, on the span of ``phis``,
        (1 + c tau) u_new + eps tau L u_new [+ tau Omega u_new]
            = (1 + c tau) u - tau/eps W'(u) + tau Omega (f [- u]),
    with the fidelity term implicit for a vector target (c = 3/eps) and
    explicit for a one-hot matrix target (c = 3/eps + omega0, the well
    halved, rows projected onto the simplex)."""
    eps, w0, tau = cfg["epsilon"], cfg["omega0"], cfg["tau"]
    omega = np.where(train, w0, 0.0)
    binary = target.ndim == 1
    c = 3.0 / eps + (0.0 if binary else w0)
    implicit = (1.0 + c * tau) * np.eye(L.shape[0]) + eps * tau * L
    if binary:
        minv = np.linalg.inv(phis.T @ (implicit + tau * np.diag(omega)) @ phis)
        u = phis @ (phis.T @ target)
    else:
        minv = np.linalg.inv(phis.T @ implicit @ phis)
        u = project_simplex(np.random.default_rng(init_seed).random(target.shape))
        u[train] = target[train]
    for it in range(1, cfg["max_iter"] + 1):
        if binary:
            rhs = (1.0 + c * tau) * u - tau / eps * (u**3 - u) + tau * omega * target
            u_new = phis @ (minv @ (phis.T @ rhs))
        else:
            rhs = ((1.0 + c * tau) * u - tau / (2.0 * eps) * well_gradient(u)
                   + tau * omega[:, None] * (target - u))
            u_new = project_simplex(phis @ (minv @ (phis.T @ rhs)))
        change = np.linalg.norm(u_new - u) / max(np.linalg.norm(u_new), NORM_FLOOR)
        u = u_new
        if change < cfg["tol"]:
            break
    return u, it


def baseline_reference(method, Wp, target, train):
    """Dense harmonic-function or local-global scores on the positive component."""
    if method == "hf":
        scores = np.array(target, dtype=float)
        unl, lab = np.flatnonzero(~train), np.flatnonzero(train)
        L = np.diag(Wp.sum(axis=1)) - Wp
        scores[unl] = np.linalg.solve(L[np.ix_(unl, unl)], Wp[np.ix_(unl, lab)] @ target[lab])
        return scores
    assert method == "lgc"
    return np.linalg.solve(np.eye(Wp.shape[0]) - ALPHA * normalized(Wp, Wp.sum(axis=1)), target)


def reference_rows(g, y, num_classes, spec):
    """{(method, fraction, N_e, omega0, epsilon, run): (accuracy, iterations)}."""
    Wp, Wn = g.Wp.toarray(), g.Wn.toarray()
    adjacency = {"positive": Wp, "negative": Wn, "signed": Wp + Wn}
    rows = {}
    for method in spec.methods:
        keep = largest_component(adjacency[COMPONENT[method]])
        cWp, cWn, cy = Wp[np.ix_(keep, keep)], Wn[np.ix_(keep, keep)], y[keep]
        n = keep.size
        if method in ("hf", "lgc"):
            cells = [(None, None, None, None)]
        else:
            L = dense_operator(method, cWp, cWn)
            _, V = np.linalg.eigh(L)
            cells = [(ne, w0, eps, V[:, :min(ne, n)])
                     for ne in spec.n_eigs for w0 in spec.omega0 for eps in spec.epsilon]
        comp_labels = LabelData(y=cy, class_names=tuple(range(num_classes)))
        for fraction in spec.fractions:
            mask_seed = _derived_seed(spec.base_seed, method, "mask", fraction)
            init_seed = _derived_seed(spec.base_seed, method, "init", fraction)
            for run in range(spec.runs):
                train = sample_labeled_nodes(comp_labels, fraction, mask_seed + run)
                evaluate = (cy >= 0) & ~train
                if num_classes == 2:
                    truth = np.where(cy >= 0, 1 - 2 * cy, 0)
                    target = np.where(train, truth, 0).astype(float)
                else:
                    truth = cy
                    target = np.zeros((n, num_classes))
                    target[train, cy[train]] = 1.0
                for ne, w0, eps, phis in cells:
                    if phis is None:
                        scores, iters = baseline_reference(method, cWp, target, train), None
                    else:
                        cfg = dict(epsilon=eps, omega0=w0, tau=spec.tau,
                                   max_iter=spec.max_iter, tol=spec.tol)
                        scores, iters = gl_reference(L, phis, target, train, cfg,
                                                     init_seed + run)
                    if num_classes == 2:
                        pred = np.where(scores >= 0, 1, -1)
                    else:
                        pred = np.argmax(scores, axis=1)
                    acc = float(np.mean(pred[evaluate] == truth[evaluate]))
                    rows[(method, fraction, ne, w0, eps, run)] = (acc, iters)
    return rows


def sweep_rows(g, y, num_classes, spec):
    labels = LabelData(y=y, class_names=tuple(f"c{i}" for i in range(num_classes)))
    res = run_experiment(g, labels, spec)
    assert all(r.error == "" for r in res.runs), [r.error for r in res.runs if r.error]
    return {(r.method, r.fraction, r.n_eigs, r.omega0, r.epsilon, r.run):
            (r.accuracy, r.iterations) for r in res.runs}


# binary: 96 GL rows and 12 baseline rows; multiclass: 24 GL rows and 8 baseline rows
# (its larger fractions keep the multiclass iterations, 4,011 in all, within budget);
# binary-lanczos: 8 GL rows whose bases the sweep solves by Lanczos
@pytest.mark.parametrize("n, p, num_classes, unknown_every, methods, fractions, epsilon, runs", [
    pytest.param(240, 0.05, 2, 7, ["gl-plus", "gl-minus", "gl-sn", "gl-am", "hf", "lgc"],
                 [0.05, 0.1], [0.1, 0.3], 3, id="binary"),
    pytest.param(240, 0.05, 3, 9, ["gl-plus", "gl-sn", "gl-am", "hf", "lgc"],
                 [0.1, 0.2], [0.1], 2, id="multiclass"),
    pytest.param(2100, 0.005, 2, 7, ["gl-sn", "gl-am"], [0.05], [0.1], 2, id="binary-lanczos"),
])
def test_run_rows_equal_the_reference(n, p, num_classes, unknown_every, methods, fractions,
                                      epsilon, runs):
    # every 7th (9th) node has no ground truth, and the positive component drops
    # 1 (3) of the 240 nodes, so the label restriction and the evaluation mask matter
    g, blocks = generate_ssbm(SSBMParams(n=n, k=num_classes, p_in=p, p_out=p,
                                         eta=0.1, seed=11))
    if n > DENSE_CAP:  # the signed component, too, so the sweep takes the Lanczos path
        assert largest_component((g.Wp + g.Wn).toarray()).size > DENSE_CAP
    y = np.where(np.arange(g.n) % unknown_every == 0, -1, blocks).astype(np.int64)
    spec = ExperimentSpec(methods=methods, fractions=fractions, n_eigs=[10, 20],
                          epsilon=epsilon, runs=runs, base_seed=3, alpha=ALPHA)
    expected = reference_rows(g, y, num_classes, spec)
    got = sweep_rows(g, y, num_classes, spec)
    assert got.keys() == expected.keys()
    differ = {key: (got[key], expected[key]) for key in got if got[key] != expected[key]}
    assert not differ, differ


def test_seed_derivation_is_pinned():
    # the reference above takes its seeds from _derived_seed, so this pins what
    # that function returns: sha256 of the parts' repr, whatever numbers the spec got
    mask, init = 5573616854730780336, 14163783978352842592
    assert _derived_seed(0, "gl-sn", "mask", 0.05) == mask
    assert _derived_seed(0, "gl-sn", "init", 0.05) == init
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[np.float64(0.05)], base_seed=np.int64(0))
    assert [_derived_seed(spec.base_seed, "gl-sn", stream, spec.fractions[0])
            for stream in ("mask", "init")] == [mask, init]
