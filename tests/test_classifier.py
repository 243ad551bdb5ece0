import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import signedgl.classifier as classifier
from signedgl import (
    BinaryLabelData,
    DivergenceError,
    GLConfig,
    LabelData,
    MulticlassLabelData,
    SSBMParams,
    energy,
    energy_gradient,
    full_dense_eigs,
    generate_ssbm,
    gl_binary,
    gl_multiclass,
    multiclass_energy,
    signed_ratio_laplacian,
    simplex_project,
    sponge_operator,
    unsigned_laplacian,
)
from signedgl.classifier import (
    multiclass_potential,
    multiclass_potential_gradient,
    project_rows_onto_simplex,
    training_labels,
)
from signedgl.laplacians import (
    OperatorKind,
    OperatorSpec,
    arithmetic_mean_laplacian,
    balance_ratio_laplacian,
)
from signedgl.spectral import Eigenbasis

from conftest import balanced_four_cycle, clique_graph, random_signed_graph


# ----------------------------------------------------------------- config


def test_config_defaults_and_convexity():
    cfg = GLConfig()
    assert cfg.c == 3.0 / 0.1 + 1000.0
    assert cfg.c_well == 3.0 / 0.1
    with pytest.raises(ValueError):
        GLConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        GLConfig(tau=-1.0)
    # max_iter takes the positive-integer check of ExperimentSpec's runs and n_eigs
    for bad in (0, 2.5, True, "5"):
        with pytest.raises(ValueError, match="^max_iter must be a positive integer, got "):
            GLConfig(max_iter=bad)
    assert type(GLConfig(max_iter=np.int64(5)).max_iter) is int
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        GLConfig(tol=-1.0)
    GLConfig(tol=0.0)  # zero tolerance runs to max_iter, allowed
    # NaN fails no sign check, and tol=inf would stop after one step as converged
    for name in ("epsilon", "omega0", "tau", "tol"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be .* and finite, got "):
                GLConfig(**{name: bad})


def test_binary_label_data_validation():
    with pytest.raises(ValueError, match="-1, 0 or"):
        BinaryLabelData(f=np.array([0.5]))
    d = BinaryLabelData.from_signs([1, -1, 1], [True, False, False])
    assert np.array_equal(d.f, [1, 0, 0])
    assert np.array_equal(d.mask, [True, False, False])
    assert d.n == 3
    assert np.array_equal(d.weights(10.0), [10, 0, 0])
    # a node is labeled exactly where f is nonzero
    assert np.array_equal(BinaryLabelData(f=np.array([1.0, 0.0, -1.0])).mask, [True, False, True])


@pytest.mark.parametrize("sign", [0.0, 0.5, 2.0, np.nan])
def test_from_signs_refuses_a_training_node_without_a_sign(sign):
    # a training node with sign 0 would vanish from the derived mask
    with pytest.raises(ValueError, match="sign -1 or \\+1"):
        BinaryLabelData.from_signs([1.0, sign], [True, True])
    # off the training mask the sign is not read
    assert np.array_equal(BinaryLabelData.from_signs([1.0, sign], [True, False]).f, [1, 0])


def test_multiclass_label_data_validation():
    U = np.zeros((3, 3))
    U[0, 1] = 1.0
    d = MulticlassLabelData(U_hat=U)
    assert d.num_classes == 3
    assert d.n == 3
    assert np.array_equal(d.mask, [True, False, False])
    assert np.array_equal(d.weights(10.0), [[10], [0], [0]])  # broadcasts over the classes
    with pytest.raises(ValueError, match="basis vector"):
        MulticlassLabelData(U_hat=U * 0.5)
    bad = U.copy()
    bad[0, 0] = 1.0
    with pytest.raises(ValueError, match="zero or a standard basis vector"):
        MulticlassLabelData(U_hat=bad)
    with pytest.raises(ValueError, match="K >= 2"):
        MulticlassLabelData(U_hat=np.ones((3, 1)))


@pytest.mark.parametrize("cls", [-1, 2])
def test_from_classes_refuses_a_training_node_outside_the_classes(cls):
    # class -1 (unknown) indexed the last column: it became class K - 1
    with pytest.raises(ValueError, match="class in \\[0, 2\\)"):
        MulticlassLabelData.from_classes([cls, 0], [True, True], 2)
    # off the training mask the class is not read
    d = MulticlassLabelData.from_classes([cls, 0], [False, True], 2)
    assert np.array_equal(d.U_hat, [[0, 0], [1, 0]])
    assert np.array_equal(d.mask, [False, True])


def test_training_labels_code_class_0_as_plus_one():
    # class 0, the first class a label file names, is +1; an unknown node is 0
    labels = LabelData(y=np.array([0, 1, 0, -1]), class_names=("yes", "no"))
    data, truth = training_labels(labels, [True, True, False, False])
    assert np.array_equal(truth, [1, -1, 1, 0]) and truth.dtype == np.int64
    assert isinstance(data, BinaryLabelData)
    assert np.array_equal(data.f, [1, -1, 0, 0])
    assert np.array_equal(data.readout(data.f), [1, -1, 1, 1])
    three = LabelData(y=np.array([2, 0, 1, -1]), class_names=("a", "b", "c"))
    data, truth = training_labels(three, [True, False, True, False])
    assert isinstance(data, MulticlassLabelData) and truth is three.y
    assert np.array_equal(data.U_hat, [[0, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0]])


# ----------------------------------------------------------------- energy


def energy_oracle(S, u, f, omega, eps):
    """Independent plain-loop evaluation of the binary functional."""
    total = 0.5 * eps * float(u @ (S @ u))
    for i in range(len(u)):
        total += (u[i] ** 2 - 1.0) ** 2 / (4.0 * eps)
        total += 0.5 * omega[i] * (f[i] - u[i]) ** 2
    return total


def test_energy_zero_on_balanced_ground_state():
    g = balanced_four_cycle()
    basis = full_dense_eigs(signed_ratio_laplacian(g))
    u = np.array([1.0, 1.0, -1.0, -1.0])
    labels = BinaryLabelData.from_signs(u, np.array([True, False, False, True]))
    assert energy(basis, u, labels, GLConfig()) <= 1e-12


def test_energy_unlabeled_zero_vector():
    g = balanced_four_cycle()
    basis = full_dense_eigs(signed_ratio_laplacian(g))
    labels = BinaryLabelData.from_signs(np.zeros(4), np.zeros(4, bool))
    cfg = GLConfig(epsilon=0.1)
    assert np.isclose(energy(basis, np.zeros(4), labels, cfg), 4 / (4 * 0.1))


def test_energy_matches_summation_oracle(rng):
    g = random_signed_graph(rng, 10, weighted=True)
    op = signed_ratio_laplacian(g, normalized=True)
    S, basis = op.dense(), full_dense_eigs(op)
    signs = np.where(rng.random(10) < 0.5, 1.0, -1.0)
    mask = rng.random(10) < 0.4
    labels = BinaryLabelData.from_signs(signs, mask)
    cfg = GLConfig(epsilon=0.3, omega0=25.0)
    for _ in range(10):
        u = rng.uniform(-2, 2, 10)
        expected = energy_oracle(S, u, labels.f, labels.weights(25.0), 0.3)
        assert abs(energy(basis, u, labels, cfg) - expected) <= 1e-12 * max(1.0, expected)


def test_energy_rejects_non_psd_operator():
    g = balanced_four_cycle()
    labels = BinaryLabelData.from_signs(np.zeros(4), np.zeros(4, bool))
    with pytest.raises(ValueError, match="not positive semi-definite"):
        energy(full_dense_eigs(balance_ratio_laplacian(g)), np.zeros(4), labels, GLConfig())


def test_energy_gradient_finite_differences(rng):
    g = random_signed_graph(rng, 15, weighted=True)
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True))
    signs = np.where(rng.random(15) < 0.5, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, rng.random(15) < 0.3)
    cfg = GLConfig()
    h = 1e-6
    for _ in range(5):
        u = rng.uniform(-1.5, 1.5, 15)
        grad = energy_gradient(basis, u, labels, cfg)
        fd = np.empty(15)
        for i in range(15):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[i] = (energy(basis, up, labels, cfg) - energy(basis, um, labels, cfg)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


# ---------------------------------------------------------------- gl_binary


def brute_force_binary_minimizer(S, f, omega, eps):
    """Exhaustive minimization of the functional over u in {-1,+1}^n."""
    n = S.shape[0]
    best, best_e = None, np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        u = np.array(signs)
        e = energy_oracle(S, u, f, omega, eps)
        if e < best_e:
            best, best_e = u, e
    return best


def test_binary_two_cliques_matches_brute_force():
    g, truth = clique_graph([5, 5])
    op = unsigned_laplacian(g.Wp, normalized=True)
    basis = full_dense_eigs(op)  # N_e = 10
    mask = np.zeros(10, bool)
    mask[0] = mask[5] = True
    signs = np.where(truth == 0, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, mask)
    cfg = GLConfig(epsilon=0.1, omega0=1000.0)
    _, pred, diag = gl_binary(basis, labels, cfg)
    oracle = brute_force_binary_minimizer(
        op.dense(), labels.f, labels.weights(1000.0), 0.1
    )
    assert np.array_equal(oracle, signs)  # ground state is the clique partition
    assert np.array_equal(pred, signs.astype(int))
    assert diag.converged


def test_binary_all_labeled_reproduces_labels(rng):
    g = random_signed_graph(rng, 20, weighted=True)
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True))
    signs = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, np.ones(20, bool))
    _, pred, _ = gl_binary(basis, labels, GLConfig())
    assert np.array_equal(pred, signs.astype(int))


def test_binary_single_isolated_node():
    g = clique_graph([1])[0]
    basis = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True))
    labels = BinaryLabelData.from_signs([1.0], [True])
    u, pred, diag = gl_binary(basis, labels, GLConfig())
    assert pred[0] == 1
    assert u[0] > 0
    assert diag.converged


def test_binary_rejects_non_psd_basis():
    g = balanced_four_cycle()
    basis = full_dense_eigs(balance_ratio_laplacian(g))
    labels = BinaryLabelData.from_signs(np.zeros(4), np.zeros(4, bool))
    with pytest.raises(ValueError, match="not positive semi-definite"):
        gl_binary(basis, labels, GLConfig())


def test_binary_divergence_reports_iteration():
    g = clique_graph([3])[0]
    basis = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True))
    labels = BinaryLabelData.from_signs([1.0, 0.0, 0.0], [True, False, False])
    # epsilon small enough that c overflows to inf: the step matrix is not finite
    cfg = GLConfig(epsilon=1e-308, omega0=0.0, max_iter=10)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as err:
            gl_binary(basis, labels, cfg)
    assert err.value.iteration == 0


def test_binary_refuses_an_indefinite_step_matrix():
    g = clique_graph([3])[0]
    sn = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True))
    cfg = GLConfig(omega0=0.0)
    # lambda_1 = -500 puts 1 + c tau + eps tau lambda_1 = -1 on the diagonal of M, and lies
    # within the PSD check's tolerance of lambda_k = 1e9, so only the step matrix refuses it
    basis = Eigenbasis(np.array([-500.0, 1e9, 1e9]), sn.phis, OperatorSpec(OperatorKind.SN))
    labels = BinaryLabelData.from_signs([1.0, 0.0, 0.0], [True, False, False])
    with pytest.raises(ValueError, match="step matrix is not positive definite"):
        gl_binary(basis, labels, cfg)


def test_binary_truncation_consistency_with_node_space_scheme(rng):
    g = random_signed_graph(rng, 12, weighted=True)
    op = signed_ratio_laplacian(g, normalized=True)
    basis = full_dense_eigs(op)
    S = op.dense()
    signs = np.where(rng.random(12) < 0.5, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, rng.random(12) < 0.3)
    cfg_proto = GLConfig()
    eps, c, tau = cfg_proto.epsilon, cfg_proto.c_well, cfg_proto.tau
    omega = labels.weights(cfg_proto.omega0)

    # node-space oracle: solve ((1 + c*tau) I + eps*tau*S + tau*Omega) u+ = rhs directly
    M = (1 + c * tau) * np.eye(12) + eps * tau * S + tau * np.diag(omega)
    u_ref = labels.f.copy()
    for steps in range(1, 8):
        rhs = (
            (1 + c * tau) * u_ref
            - (tau / eps) * (u_ref**3 - u_ref)
            + tau * omega * labels.f
        )
        u_ref = np.linalg.solve(M, rhs)
        cfg = GLConfig(max_iter=steps, tol=0.0)
        u, _, _ = gl_binary(basis, labels, cfg)
        assert np.linalg.norm(u - u_ref) <= 1e-8


def test_binary_energy_monotone_quick(rng):
    g = random_signed_graph(rng, 30, weighted=True)
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True))
    signs = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    labels = BinaryLabelData.from_signs(signs, rng.random(30) < 0.2)
    _, _, diag = gl_binary(
        basis, labels, GLConfig(max_iter=200, tol=0.0), track_energy=True
    )
    assert np.max(np.diff(diag.energy_history)) <= 1e-12


def gl_binary_pow_oracle(basis, labels, cfg):
    """The binary GL loop with the cube written as u**3 and a linear solve per step."""
    eps, c, tau = cfg.epsilon, cfg.c_well, cfg.tau
    phis, lambdas = basis.phis, basis.lambdas
    omega = labels.weights(cfg.omega0)
    f = labels.f
    M = (1.0 + c * tau) * np.eye(basis.k) + np.diag(eps * tau * lambdas) + tau * (
        phis.T @ (omega[:, None] * phis))
    drive = tau * (phis.T @ (omega * f))
    a = phis.T @ f
    u = phis @ a
    iterations = 0
    for it in range(cfg.max_iter):
        b = phis.T @ (u**3 - u)
        a = np.linalg.solve(M, (1.0 + c * tau) * a - (tau / eps) * b + drive)
        u_new = phis @ a
        change = np.linalg.norm(u_new - u) / max(np.linalg.norm(u_new), 1e-30)
        u = u_new
        iterations = it + 1
        if change < cfg.tol:
            break
    return u, np.where(u >= 0, 1, -1), iterations


def test_binary_matches_pow_cube_loop():
    g, blocks = generate_ssbm(SSBMParams(n=300, k=2, p_in=0.06, p_out=0.06, eta=0.2, seed=5))
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True)).truncate(20)
    signs = np.where(blocks == 0, 1.0, -1.0)
    for seed in range(3):
        mask = np.random.default_rng(seed).random(g.n) < 0.1
        labels = BinaryLabelData.from_signs(signs, mask)
        cfg = GLConfig()
        u, pred, diag = gl_binary(basis, labels, cfg)
        oracle_u, oracle_pred, oracle_iters = gl_binary_pow_oracle(basis, labels, cfg)
        assert diag.iterations == oracle_iters
        assert 1 < diag.iterations < cfg.max_iter
        assert np.array_equal(pred, oracle_pred)
        assert np.allclose(u, oracle_u, rtol=0, atol=1e-12)


def test_binary_converged_iterate_is_stationary_over_the_span():
    # at a fixed point of any splitting of the energy, its gradient over the span vanishes:
    # eps lambdas a + Phi^T W'(u) / eps - Phi^T Omega (f - u) = 0 with a = Phi^T u
    g, blocks = generate_ssbm(SSBMParams(n=300, k=2, p_in=0.06, p_out=0.06, eta=0.2, seed=5))
    signs = np.where(blocks == 0, 1.0, -1.0)
    cfg = GLConfig(max_iter=20000, tol=1e-10)
    for op in (signed_ratio_laplacian(g, normalized=True), arithmetic_mean_laplacian(g)):
        basis = full_dense_eigs(op).truncate(20)
        phis = basis.phis
        for seed in range(3):
            labels = BinaryLabelData.from_signs(
                signs, np.random.default_rng(seed).random(g.n) < 0.1)
            u, _, diag = gl_binary(basis, labels, cfg)
            assert diag.converged
            terms = (cfg.epsilon * basis.lambdas * (phis.T @ u),
                     phis.T @ (u**3 - u) / cfg.epsilon,
                     -(phis.T @ (labels.weights(cfg.omega0) * (labels.f - u))))
            largest = max(np.linalg.norm(t) for t in terms)
            assert np.linalg.norm(sum(terms)) <= 1e-7 * largest


def test_binary_label_fidelity(rng):
    g = random_signed_graph(rng, 40, weighted=True)
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True))
    signs = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    mask = rng.random(40) < 0.3
    mask[0] = True
    labels = BinaryLabelData.from_signs(signs, mask)
    _, pred, _ = gl_binary(basis, labels, GLConfig())
    agree = np.mean(pred[mask] == signs[mask].astype(int))
    assert agree >= 0.99


# ------------------------------------------- frozen reference loop of each scheme


def reference_gl_binary(basis, labels, cfg):
    """The binary GL loop with the implicit fidelity term, written out on its own."""
    eps, c, tau = cfg.epsilon, cfg.c_well, cfg.tau
    phis, lambdas = basis.phis, basis.lambdas
    omega = np.where(labels.mask, cfg.omega0, 0.0)
    f = labels.f
    phis_l = phis[labels.mask]
    M = (tau * cfg.omega0) * (phis_l.T @ phis_l)
    M[np.diag_indices_from(M)] += 1.0 + c * tau + eps * tau * lambdas
    if not np.all(np.isfinite(M)):
        raise DivergenceError(0)
    minv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), np.eye(len(lambdas)))
    drive = (tau * cfg.omega0) * (phis_l.T @ f[labels.mask])

    def state_energy(a, u):
        potential = float(np.sum((u**2 - 1.0) ** 2))
        fidelity = float(np.sum(omega * (f - u) ** 2))
        return (0.5 * eps * float(a @ (lambdas * a)) + potential / (4.0 * eps)
                + 0.5 * fidelity)

    a = phis.T @ f
    u = phis @ a
    history = [state_energy(a, u)]
    iterations, final_change, converged = 0, np.inf, False
    for it in range(cfg.max_iter):
        b = phis.T @ (u * u * u - u)
        a_new = minv @ ((1.0 + c * tau) * a - (tau / eps) * b + drive)
        u_new = phis @ a_new
        if not np.all(np.isfinite(u_new)):
            raise DivergenceError(it)
        change = np.linalg.norm(u_new - u) / max(np.linalg.norm(u_new), 1e-30)
        a, u = a_new, u_new
        iterations, final_change = it + 1, float(change)
        history.append(state_energy(a, u))
        if change < cfg.tol:
            converged = True
            break
    return (u, np.where(u >= 0, 1, -1).astype(np.int64), iterations, final_change, converged,
            history)


def reference_gl_multiclass(basis, labels, cfg, init_seed):
    """The multiclass GL loop with the explicit fidelity term, written out on its own."""
    n, K = labels.n, labels.num_classes
    eps, c, tau = cfg.epsilon, cfg.c, cfg.tau
    phis, lambdas = basis.phis, basis.lambdas
    omega = np.where(labels.mask, cfg.omega0, 0.0)
    U_hat = labels.U_hat
    denom = (1.0 + c * tau + eps * tau * lambdas)[:, None]

    def state_energy(U):
        quad = float(np.tensordot(U, phis @ (lambdas * (phis.T @ U).T).T))
        fidelity = float(np.sum(omega[:, None] * (U_hat - U) ** 2))
        return (0.5 * eps * quad + multiclass_potential(U) / (2.0 * eps)
                + 0.5 * fidelity)

    U = project_rows_onto_simplex(np.random.default_rng(init_seed).random((n, K)))
    U[labels.mask] = U_hat[labels.mask]
    history = [state_energy(U)]
    iterations, final_change, converged = 0, np.inf, False
    for it in range(cfg.max_iter):
        C = phis.T @ U
        TU = multiclass_potential_gradient(U)
        fid = phis.T @ (omega[:, None] * (U_hat - U))
        C_new = ((1.0 + c * tau) * C - (tau / (2.0 * eps)) * (phis.T @ TU) + tau * fid) / denom
        U_new = phis @ C_new
        if not np.all(np.isfinite(U_new)):
            raise DivergenceError(it)
        U_new = project_rows_onto_simplex(U_new)
        change = np.linalg.norm(U_new - U) / max(np.linalg.norm(U_new), 1e-30)
        U = U_new
        iterations, final_change = it + 1, float(change)
        history.append(state_energy(U))
        if change < cfg.tol:
            converged = True
            break
    return (U, np.argmax(U, axis=1).astype(np.int64), iterations, final_change, converged,
            history)


def reference_bases(g):
    """Truncated SN, AM and SPONGE eigenbases of one graph (SPONGE's is B-orthonormal)."""
    ops = (signed_ratio_laplacian(g, normalized=True), arithmetic_mean_laplacian(g),
           sponge_operator(g))
    return [full_dense_eigs(op).truncate(12) for op in ops]


def assert_same_run(new, ref, tracked=True):
    """new = (x, prediction, diagnostics) is ref's run; an untracked run keeps no
    energy history but ends on ref's last energy."""
    x, pred, diag = new
    ref_x, ref_pred, iterations, final_change, converged, history = ref
    assert np.array_equal(x, ref_x)
    assert np.array_equal(pred, ref_pred)
    assert diag.iterations == iterations
    assert diag.final_change == final_change
    assert diag.converged == converged
    assert diag.energy_history == (history if tracked else [])
    assert diag.final_energy == history[-1]


def test_gl_binary_matches_frozen_loop():
    g, blocks = generate_ssbm(SSBMParams(n=160, k=2, p_in=0.08, p_out=0.08, eta=0.15, seed=8))
    signs = np.where(blocks == 0, 1.0, -1.0)
    for basis in reference_bases(g):
        for seed in range(2):
            mask = np.random.default_rng(seed).random(g.n) < 0.1
            labels = BinaryLabelData.from_signs(signs, mask)
            for cfg in (GLConfig(), GLConfig(epsilon=0.3, omega0=50.0, max_iter=40, tol=0.0)):
                ref = reference_gl_binary(basis, labels, cfg)
                assert_same_run(gl_binary(basis, labels, cfg, track_energy=True), ref)
                # the sweep's path: no energy after each step
                assert_same_run(gl_binary(basis, labels, cfg), ref, tracked=False)


def test_gl_multiclass_matches_frozen_loop():
    g, blocks = generate_ssbm(SSBMParams(n=150, k=3, p_in=0.1, p_out=0.1, eta=0.15, seed=2))
    for basis in reference_bases(g):
        for seed in range(2):
            mask = np.random.default_rng(seed).random(g.n) < 0.1
            labels = MulticlassLabelData.from_classes(blocks, mask, 3)
            for cfg in (GLConfig(), GLConfig(epsilon=0.3, omega0=50.0, max_iter=40, tol=0.0)):
                ref = reference_gl_multiclass(basis, labels, cfg, seed)
                new = gl_multiclass(basis, labels, cfg, init_seed=seed, track_energy=True)
                assert_same_run(new, ref)
                new = gl_multiclass(basis, labels, cfg, init_seed=seed)
                assert_same_run(new, ref, tracked=False)


def test_gl_reports_the_frozen_divergence_iteration():
    g, blocks = generate_ssbm(SSBMParams(n=60, k=3, p_in=0.2, p_out=0.2, eta=0.1, seed=1))
    sn = full_dense_eigs(signed_ratio_laplacian(g, normalized=True)).truncate(6)
    cfg = GLConfig()
    # eigenvalues that leave the binary scheme's diagonal 1 + c tau + eps tau lambda at
    # 1e-2 in five columns: the iterate blows up over a few steps; lambda_6 is large
    # enough that the PSD check's tolerance admits the negative ones
    lambdas = np.full(6, (1e-2 - 1.0 - cfg.c_well * cfg.tau) / (cfg.epsilon * cfg.tau))
    lambdas[-1] = 1e9
    unstable = Eigenbasis(lambdas, sn.phis, OperatorSpec(OperatorKind.SN))
    mask = np.zeros(g.n, bool)
    mask[:6] = True
    binary = BinaryLabelData.from_signs(np.where(blocks == 0, 1.0, -1.0), mask)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as new:
            gl_binary(unstable, binary, cfg)
        with pytest.raises(DivergenceError) as ref:
            reference_gl_binary(unstable, binary, cfg)
    assert new.value.iteration == ref.value.iteration > 0
    # c overflows to inf, so the first multiclass step is already NaN
    huge = GLConfig(epsilon=1e-308, omega0=0.0)
    multi = MulticlassLabelData.from_classes(blocks, mask, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as new:
            gl_multiclass(sn, multi, huge, init_seed=0)
        with pytest.raises(DivergenceError) as ref:
            reference_gl_multiclass(sn, multi, huge, 0)
    assert new.value.iteration == ref.value.iteration == 0


# --------------------------- frozen np.sort projection and prefix/suffix gradient


def reference_projection(V):
    """project_rows_onto_simplex as it stood before the sorting network."""
    V = np.asarray(V, dtype=float)
    n, K = V.shape
    s = np.sort(V, axis=1)[:, ::-1]
    cs = np.cumsum(s, axis=1)
    gaps = s - (cs - 1.0) / np.arange(1, K + 1)
    rho = K - 1 - np.argmax(gaps[:, ::-1] > 0, axis=1)
    theta = (cs[np.arange(n), rho] - 1.0) / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def reference_potential_gradient(U):
    """multiclass_potential_gradient as it stood before the in-place products."""
    U = np.asarray(U, dtype=float)
    gap = np.subtract(1.0, U.T, order="C")
    q = gap * gap
    K = q.shape[0]
    prefix = np.ones_like(q)
    suffix = np.ones_like(q)
    for l in range(1, K):
        prefix[l] = prefix[l - 1] * q[l - 1]
        suffix[K - 1 - l] = suffix[K - l] * q[K - l]
    base = gap * (prefix * suffix)
    return np.ascontiguousarray((base.sum(axis=0) - 2.0 * base).T)


def kernel_inputs(K, scale=1e300):
    """Named n x K inputs: random, tie-heavy, vertex, on-simplex, signed-zero and
    huge rows (``scale``; from 2**53 up the 1 vanishes beside the largest entry)."""
    rng = np.random.default_rng(K)
    halves = np.round(rng.normal(0.3, 1.0, (3000, K)) * 2.0) / 2.0
    halves[:1500, -1] = halves[:1500, 0]  # duplicated columns
    return {
        "random": rng.normal(0.3, 2.0, (3000, K)),
        "tie-heavy": halves,
        "vertex": np.tile(np.eye(K), (5, 1)),
        "on-simplex": reference_projection(rng.random((3000, K))),
        "signed zero": rng.choice([0.0, -0.0, 0.5, 1.0, -1.0], (3000, K)),
        "huge": rng.normal(0.0, scale, (3000, K)),
    }


def assert_same_bits(new, ref, case):
    assert new.shape == ref.shape and new.flags.c_contiguous, case
    assert np.array_equal(new.view(np.int64), ref.view(np.int64)), case


def test_projection_matches_frozen_sort_projection():
    # the sorting network up to the crossover, np.sort for the two widths above it
    for K in range(1, classifier._SORTING_NETWORK_MAX_K + 3):
        for name, V in kernel_inputs(K).items():
            assert_same_bits(project_rows_onto_simplex(V), reference_projection(V), (K, name))
    s = -np.sort(-kernel_inputs(3)["huge"], axis=1)
    gaps = s - (np.cumsum(s, axis=1) - 1.0) / np.arange(1, 4)
    assert (gaps <= 0).all(axis=1).any()  # rows whose theta is the last column's


def test_potential_gradient_matches_frozen_prefix_suffix_products():
    for K in range(1, classifier._SORTING_NETWORK_MAX_K + 3):
        # 1e20: the largest products stay finite at every K tested
        for name, U in kernel_inputs(K, scale=1e20).items():
            assert_same_bits(multiclass_potential_gradient(U), reference_potential_gradient(U),
                             (K, name))


def test_gl_multiclass_matches_frozen_kernels(monkeypatch):
    cases = []
    for k in (3, classifier._SORTING_NETWORK_MAX_K + 1):
        g, blocks = generate_ssbm(SSBMParams(n=150, k=k, p_in=0.1, p_out=0.1, eta=0.15,
                                             seed=k))
        mask = np.random.default_rng(k).random(g.n) < 0.1
        labels = MulticlassLabelData.from_classes(blocks, mask, k)
        for basis in reference_bases(g):  # SN, AM and SPONGE
            for cfg in (GLConfig(), GLConfig(epsilon=0.3, omega0=50.0, max_iter=40, tol=0.0)):
                cases.append((basis, labels, cfg))
    new = [gl_multiclass(*case, init_seed=1, track_energy=True) for case in cases]
    monkeypatch.setattr(classifier, "project_rows_onto_simplex", reference_projection)
    monkeypatch.setattr(classifier, "multiclass_potential_gradient",
                        reference_potential_gradient)
    for case, run in zip(cases, new):
        x, pred, diag = gl_multiclass(*case, init_seed=1, track_energy=True)
        assert_same_run(run, (x, pred, diag.iterations, diag.final_change, diag.converged,
                              diag.energy_history))


def test_label_objects_own_target_and_readout():
    b = BinaryLabelData.from_signs([1, -1, 1], [True, True, False])
    assert b.target is b.f and b.n == 3
    assert np.array_equal(b.readout(np.array([0.0, -1e-300, 2.0])), [1, -1, 1])
    m = MulticlassLabelData.from_classes([2, 0, 1], [True, False, True], 3)
    assert m.target is m.U_hat and m.n == 3
    ties = np.array([[0.4, 0.4, 0.2], [0.0, 0.5, 0.5], [1.0, 1.0, 1.0]])
    assert np.array_equal(m.readout(ties), [0, 1, 0])
    for pred in (b.readout(np.zeros(3)), m.readout(ties)):
        assert pred.dtype == np.int64


# ------------------------------------------------------------ gl_multiclass


def test_multiclass_three_cliques():
    g, truth = clique_graph([5, 5, 5])
    basis = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True)).truncate(3)
    mask = np.zeros(15, bool)
    mask[[0, 5, 10]] = True
    labels = MulticlassLabelData.from_classes(truth, mask, 3)
    _, pred, diag = gl_multiclass(basis, labels, GLConfig(), init_seed=0)
    assert np.array_equal(pred, truth)
    assert diag.converged


def test_multiclass_all_labeled(rng):
    g = random_signed_graph(rng, 18, weighted=True)
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True))
    classes = rng.integers(0, 3, 18)
    labels = MulticlassLabelData.from_classes(classes, np.ones(18, bool), 3)
    _, pred, _ = gl_multiclass(basis, labels, GLConfig(), init_seed=1)
    assert np.array_equal(pred, classes)


def test_multiclass_matches_binary_on_two_cliques():
    g, truth = clique_graph([5, 5])
    op = unsigned_laplacian(g.Wp, normalized=True)
    mask = np.zeros(10, bool)
    mask[0] = mask[5] = True
    signs = np.where(truth == 0, 1.0, -1.0)
    blabels = BinaryLabelData.from_signs(signs, mask)
    _, bin_pred, _ = gl_binary(full_dense_eigs(op), blabels, GLConfig())
    mlabels = MulticlassLabelData.from_classes(truth, mask, 2)
    basis = full_dense_eigs(op).truncate(2)
    _, multi_pred, _ = gl_multiclass(basis, mlabels, GLConfig(), init_seed=0)
    multi_signs = np.where(multi_pred == 0, 1, -1)
    assert np.mean(multi_signs == bin_pred) >= 0.99


def test_multiclass_rows_stay_on_simplex():
    g, truth = clique_graph([4, 4])
    basis = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True)).truncate(2)
    mask = np.zeros(8, bool)
    mask[[0, 4]] = True
    labels = MulticlassLabelData.from_classes(truth, mask, 2)
    U, _, _ = gl_multiclass(basis, labels, GLConfig(), init_seed=3)
    assert U.min() >= -1e-12
    assert np.abs(U.sum(axis=1) - 1.0).max() <= 1e-12


def test_multiclass_class_permutation_equivariance(rng, monkeypatch):
    g, truth = clique_graph([4, 4, 4])
    basis = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True)).truncate(3)
    mask = np.zeros(12, bool)
    mask[[0, 4, 8]] = True
    labels = MulticlassLabelData.from_classes(truth, mask, 3)
    init = rng.random((12, 3))
    perm = np.array([2, 0, 1])
    # the two runs draw init and its column permutation as their starting noise
    draws = iter([init, init[:, perm]])
    monkeypatch.setattr(classifier.np.random, "default_rng",
                        lambda seed: SimpleNamespace(random=lambda shape: next(draws)))
    _, pred, _ = gl_multiclass(basis, labels, GLConfig())
    # new column j carries old class perm[j], for both the targets and the init
    permuted = MulticlassLabelData(U_hat=labels.U_hat[:, perm])
    assert np.array_equal(permuted.mask, mask)
    _, pred_p, _ = gl_multiclass(basis, permuted, GLConfig())
    assert np.array_equal(pred, perm[pred_p])


def test_multiclass_seed_reproducible():
    g, truth = clique_graph([4, 4])
    basis = full_dense_eigs(unsigned_laplacian(g.Wp, normalized=True)).truncate(2)
    mask = np.zeros(8, bool)
    mask[[0, 4]] = True
    labels = MulticlassLabelData.from_classes(truth, mask, 2)
    U1, _, _ = gl_multiclass(basis, labels, GLConfig(), init_seed=11)
    U2, _, _ = gl_multiclass(basis, labels, GLConfig(), init_seed=11)
    assert np.array_equal(U1, U2)


def test_multiclass_energy_of_a_full_basis_is_the_dense_form(rng):
    g = random_signed_graph(rng, 10, weighted=True)
    op = signed_ratio_laplacian(g, normalized=True)
    basis = full_dense_eigs(op)
    U = project_rows_onto_simplex(rng.random((10, 3)))
    labels = MulticlassLabelData.from_classes(
        rng.integers(0, 3, 10), np.ones(10, bool), 3
    )
    cfg = GLConfig()
    # with a full basis the span-projected trace form is exact: <U, S U>
    fidelity = float(np.sum(labels.weights(cfg.omega0) * (labels.U_hat - U) ** 2))
    dense = (0.5 * cfg.epsilon * float(np.tensordot(U, op.dense() @ U))
             + multiclass_potential(U) / (2.0 * cfg.epsilon) + 0.5 * fidelity)
    assert np.isclose(multiclass_energy(basis, U, labels, cfg), dense)


@pytest.mark.parametrize(
    "entry", ["gl_binary", "gl_multiclass", "energy", "energy_gradient", "multiclass_energy"])
def test_every_entry_point_checks_its_basis(entry):
    g = balanced_four_cycle()
    mask = np.array([True, False, False, True])
    binary = BinaryLabelData.from_signs([1.0, 1.0, -1.0, -1.0], mask)
    multi = MulticlassLabelData.from_classes([0, 0, 1, 1], mask, 2)
    cfg = GLConfig(max_iter=5)
    u = np.array([1.0, 0.5, -0.5, -1.0])
    U = project_rows_onto_simplex(np.random.default_rng(0).random((4, 2)))
    call = {
        "gl_binary": lambda basis: gl_binary(basis, binary, cfg),
        "gl_multiclass": lambda basis: gl_multiclass(basis, multi, cfg, init_seed=0),
        "energy": lambda basis: energy(basis, u, binary, cfg),
        "energy_gradient": lambda basis: energy_gradient(basis, u, binary, cfg),
        "multiclass_energy": lambda basis: multiclass_energy(basis, U, multi, cfg),
    }[entry]
    # the full BR basis and a truncated BN basis keep their negative lambda_1
    for indefinite in (full_dense_eigs(balance_ratio_laplacian(g)),
                       full_dense_eigs(balance_ratio_laplacian(g, normalized=True)).truncate(2)):
        assert indefinite.lambdas[0] < -0.1
        with pytest.raises(ValueError, match="not positive semi-definite"):
            call(indefinite)
    five_nodes = full_dense_eigs(unsigned_laplacian(clique_graph([5])[0].Wp, normalized=True))
    with pytest.raises(ValueError, match="labels cover 4 nodes, the eigenbasis 5"):
        call(five_nodes)
    # the eigenbasis of the SPONGE generalized pair is accepted, but not with one
    # eigenvalue for its four eigenvectors
    sponge = full_dense_eigs(sponge_operator(g))
    with pytest.raises(ValueError, match=r"eigenvalues of shape \(1,\) for 4 eigenvectors"):
        call(Eigenbasis(sponge.lambdas[:1], sponge.phis, sponge.source))
    call(sponge)


# ----------------------------------------------------- potential derivative


def test_potential_gradient_at_vertex_is_zero():
    T = multiclass_potential_gradient(np.array([[1.0, 0.0]]))
    assert np.array_equal(T, [[0.0, 0.0]])


def test_potential_gradient_at_barycenter():
    T = multiclass_potential_gradient(np.array([[0.5, 0.5]]))
    assert np.isclose(T[0, 0], T[0, 1])
    assert np.isclose(T[0, 0], 0.0)  # direct evaluation: the terms cancel


def potential_oracle(U):
    """Independent plain-loop evaluation of the product well."""
    total = 0.0
    for row in U:
        K = len(row)
        p = 1.0
        for l in range(K):
            d = sum(abs(row[m] - (1.0 if m == l else 0.0)) for m in range(K))
            p *= 0.25 * d * d
        total += p
    return total


def l1_vertex_distances(U):
    """dist[i, l] = ||u_i - e_l||_1, by the n x K x K broadcast."""
    K = U.shape[1]
    return np.abs(U[:, None, :] - np.eye(K)[None, :, :]).sum(axis=2)


def l1_potential(U):
    """The well from explicit L1 distances; valid off the simplex too."""
    return float(np.prod(0.25 * l1_vertex_distances(U) ** 2, axis=1).sum())


def l1_potential_gradient(U):
    """The well gradient from explicit L1 distances and np.delete products."""
    K = U.shape[1]
    dist = l1_vertex_distances(U)
    q = 0.25 * dist**2
    prod_excl = np.empty_like(q)
    for l in range(K):
        prod_excl[:, l] = np.prod(np.delete(q, l, axis=1), axis=1)
    base = 0.5 * dist * prod_excl
    return base.sum(axis=1, keepdims=True) - 2.0 * base


def two_cumsum_projection(V):
    """Row-wise simplex projection that computes the cumulative sums twice."""
    n, K = V.shape
    s = np.sort(V, axis=1)[:, ::-1]
    gaps = s - (np.cumsum(s, axis=1) - 1.0) / np.arange(1, K + 1)
    rho = K - 1 - np.argmax(gaps[:, ::-1] > 0, axis=1)
    theta = (np.cumsum(s, axis=1)[np.arange(n), rho] - 1.0) / (rho + 1)
    return np.maximum(V - theta[:, None], 0.0)


def simplex_rows(rng, n, K):
    """Projected random rows, with vertices and rows holding zero entries."""
    U = project_rows_onto_simplex(rng.normal(0.3, 0.5, (n, K)))
    U[:K] = np.eye(K)
    U[K] = 0.0
    U[K, :2] = 0.5
    assert (U == 0).any(axis=1).sum() > K
    return U


def test_closed_form_well_matches_l1_formula(rng):
    for K in range(2, 7):
        U = simplex_rows(rng, 40, K)
        T = multiclass_potential_gradient(U)
        assert np.allclose(T, l1_potential_gradient(U), rtol=0, atol=1e-14)
        assert np.array_equal(T[:K], np.zeros((K, K)))  # zero at every vertex
        assert np.isclose(multiclass_potential(U), l1_potential(U), rtol=1e-14, atol=0)
        assert np.isclose(multiclass_potential(U), potential_oracle(U), rtol=1e-14, atol=0)
        assert multiclass_potential(U[:K]) == 0.0


def test_projection_matches_two_cumsum_form(rng):
    for K in range(1, 7):
        V = rng.normal(0.3, 2.0, (200, K))
        assert np.array_equal(project_rows_onto_simplex(V), two_cumsum_projection(V))


def test_gl_multiclass_matches_l1_kernels(monkeypatch):
    g, blocks = generate_ssbm(SSBMParams(n=240, k=3, p_in=0.08, p_out=0.08, eta=0.15, seed=4))
    basis = full_dense_eigs(signed_ratio_laplacian(g, normalized=True)).truncate(15)
    mask = np.random.default_rng(0).random(g.n) < 0.1
    labels = MulticlassLabelData.from_classes(blocks, mask, 3)
    new = [gl_multiclass(basis, labels, GLConfig(), init_seed=s) for s in range(3)]
    monkeypatch.setattr(classifier, "multiclass_potential_gradient", l1_potential_gradient)
    monkeypatch.setattr(classifier, "multiclass_potential", l1_potential)
    monkeypatch.setattr(classifier, "project_rows_onto_simplex", two_cumsum_projection)
    old = [gl_multiclass(basis, labels, GLConfig(), init_seed=s) for s in range(3)]
    for (_, pred, diag), (_, old_pred, old_diag) in zip(new, old):
        assert 1 < diag.iterations < GLConfig().max_iter
        assert diag.iterations == old_diag.iterations
        assert np.array_equal(pred, old_pred)
        assert np.isclose(diag.final_energy, old_diag.final_energy, rtol=1e-12)


def test_potential_gradient_finite_differences(rng):
    h = 1e-6
    for _ in range(8):
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
        assert np.linalg.norm(fd - T) <= 1e-5 * max(np.linalg.norm(T), 1e-12)


def test_potential_matches_oracle(rng):
    U = project_rows_onto_simplex(rng.random((6, 4)))
    assert np.isclose(multiclass_potential(U), potential_oracle(U), atol=1e-14)


# --------------------------------------------------------- simplex projection


def test_simplex_project_examples():
    assert np.allclose(simplex_project([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(simplex_project([2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(simplex_project([0.6, 0.6]), [0.5, 0.5])
    assert np.allclose(simplex_project([5.0]), [1.0])


def qp_projection_oracle(v):
    """Brute-force projection: try every support set, keep the feasible best."""
    K = len(v)
    best, best_d = None, np.inf
    for bits in range(1, 2**K):
        support = [i for i in range(K) if bits >> i & 1]
        theta = (sum(v[i] for i in support) - 1.0) / len(support)
        x = np.zeros(K)
        feasible = True
        for i in support:
            x[i] = v[i] - theta
            if x[i] < -1e-12:
                feasible = False
                break
        if not feasible:
            continue
        d = float(np.sum((x - v) ** 2))
        if d < best_d:
            best, best_d = x, d
    return best


def test_simplex_projection_against_qp_oracle(rng):
    for _ in range(100):
        K = int(rng.integers(1, 7))
        v = rng.normal(0, 2, K)
        x = simplex_project(v)
        assert np.allclose(x, qp_projection_oracle(v), atol=1e-8)
        assert x.min() >= -1e-12
        assert abs(x.sum() - 1.0) <= 1e-12


def test_project_rows_vectorized_matches_single(rng):
    V = rng.normal(0, 3, (40, 5))
    P = project_rows_onto_simplex(V)
    for i in range(40):
        assert np.allclose(P[i], simplex_project(V[i]), atol=1e-12)
