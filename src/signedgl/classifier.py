"""Diffuse-interface node classification via the Ginzburg-Landau functional.

Both classifiers minimize

    E(x) = eps/2 <x, S x> + W(x)/eps + sum_i omega_i/2 ||target_i - x_i||^2

over the span of an eigenbasis of S by convexity splitting: the
quadratic part is treated implicitly and the well force explicitly.
Each scheme runs its own loop, whose docstring gives its step.
``gl_binary`` (Bertozzi & Flenner, "Diffuse interface models on graphs
for classification of high dimensional data", 2012) uses the double well
sum_i (u_i^2 - 1)^2 / 4 on a vector u and treats the fidelity force
implicitly too, so its constant c = 3/eps only covers the well.
``gl_multiclass`` (Garcia-Cardona et al., "Multiclass data segmentation
using diffuse interface methods on graphs", 2014) uses half the L1
simplex-vertex well on an n x K iterate whose rows are projected back
onto the Gibbs simplex after every step; its fidelity force stays
explicit, so its constant c = 3/eps + omega0 covers omega0 as well.
Up to _SORTING_NETWORK_MAX_K classes the projection sorts each row by a
network of elementwise max/min instead of np.sort; the sorted values are
the same, so the projected rows are bit for bit those of the np.sort
projection.  A label object holds only its target (f or U_hat), whose
nonzero entries (rows) are the labeled nodes; from it the object derives
the mask and the fidelity weights, and it owns the readout (sign or row
argmax).

Every entry point takes an Eigenbasis, which ``_check_basis`` checks by
its numbers: S must be positive semi-definite (otherwise E is unbounded
below), so a basis with a negative eigenvalue beyond solver accuracy is
refused.  A full basis (``smallest_eigs(op, op.n)``) gives the exact energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graph import _positive_int
from .spectral import _RESIDUAL_TOL, Eigenbasis

__all__ = [
    "GLConfig",
    "TrainingLabels",
    "BinaryLabelData",
    "MulticlassLabelData",
    "GLDiagnostics",
    "DivergenceError",
    "training_labels",
    "energy",
    "energy_gradient",
    "multiclass_energy",
    "multiclass_potential",
    "multiclass_potential_gradient",
    "gl_binary",
    "gl_multiclass",
    "simplex_project",
    "project_rows_onto_simplex",
]

_NORM_FLOOR = 1e-30
# widest row that project_rows_onto_simplex sorts by a network, not np.sort
_SORTING_NETWORK_MAX_K = 5


class DivergenceError(RuntimeError):
    """Non-finite iterate encountered; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"iterate became non-finite at iteration {iteration}")
        self.iteration = iteration


@dataclass
class GLConfig:
    """Parameters of the Ginzburg-Landau scheme."""

    epsilon: float = 0.1
    omega0: float = 1000.0
    tau: float = 0.1
    max_iter: int = 2000
    tol: float = 1e-6

    def __post_init__(self):
        # chained comparisons, so that NaN fails them as inf does
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.omega0 < np.inf:
            raise ValueError(f"omega0 must be nonnegative and finite, got {self.omega0}")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        self.max_iter = _positive_int(self.max_iter, "max_iter")
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")

    @property
    def c_well(self) -> float:
        """3/epsilon, the splitting constant of the binary scheme, which treats
        only the double well explicitly: above 2/epsilon, the well's largest
        curvature on |u| <= 1 over epsilon."""
        return 3.0 / self.epsilon

    @property
    def c(self) -> float:
        """c_well + omega0, the splitting constant of the multiclass scheme,
        which treats the fidelity force explicitly too and so must also cover
        omega0."""
        return self.c_well + self.omega0


class TrainingLabels:
    """Base of the label objects: the ``target`` the fidelity term pulls the
    labeled nodes toward, which names them by its nonzero entries (rows), and
    a ``readout`` from scores shaped like the target to predicted labels."""

    @property
    def mask(self) -> np.ndarray:
        """The labeled nodes: the nonzero entries of f, the nonzero rows of U_hat."""
        target = self.target
        return target != 0 if target.ndim == 1 else target.any(axis=1)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def weights(self, omega0: float) -> np.ndarray:
        """omega0 on labeled nodes, 0 elsewhere; a column for an n x K target."""
        mask = self.mask if self.target.ndim == 1 else self.mask[:, None]
        return np.where(mask, float(omega0), 0.0)


@dataclass(frozen=True)
class BinaryLabelData(TrainingLabels):
    """Per-node labels f in {-1, 0, +1}; f is 0 exactly on unlabeled nodes."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if not np.isin(f, (-1.0, 0.0, 1.0)).all():
            raise ValueError("binary labels must be -1, 0 or +1")
        object.__setattr__(self, "f", f)

    @classmethod
    def from_signs(cls, signs, train_mask) -> "BinaryLabelData":
        signs = np.asarray(signs, dtype=float)
        train_mask = np.asarray(train_mask, dtype=bool)
        if not np.isin(signs[train_mask], (-1.0, 1.0)).all():
            raise ValueError("every training node needs the sign -1 or +1")
        return cls(f=np.where(train_mask, signs, 0.0))

    target = property(lambda self: self.f)

    @staticmethod
    def readout(scores) -> np.ndarray:
        """sign(scores) as int64, with sign(0) = +1."""
        return np.where(scores >= 0, 1, -1).astype(np.int64)


@dataclass(frozen=True)
class MulticlassLabelData(TrainingLabels):
    """One-hot rows for labeled nodes, zero rows elsewhere."""

    U_hat: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U_hat, dtype=float)
        if U.ndim != 2 or U.shape[1] < 2:
            raise ValueError("U_hat must be n x K with K >= 2")
        if not (np.isin(U, (0.0, 1.0)).all() and (U.sum(axis=1) <= 1.0).all()):
            raise ValueError("every row of U_hat must be zero or a standard basis vector")
        object.__setattr__(self, "U_hat", U)

    @classmethod
    def from_classes(cls, classes, train_mask, num_classes: int) -> "MulticlassLabelData":
        classes = np.asarray(classes, dtype=int)
        idx = np.flatnonzero(np.asarray(train_mask, dtype=bool))
        if not ((classes[idx] >= 0) & (classes[idx] < num_classes)).all():
            raise ValueError(f"every training node needs a class in [0, {num_classes})")
        U = np.zeros((classes.shape[0], num_classes))
        U[idx, classes[idx]] = 1.0
        return cls(U_hat=U)

    @property
    def num_classes(self) -> int:
        return self.U_hat.shape[1]

    target = property(lambda self: self.U_hat)

    @staticmethod
    def readout(scores) -> np.ndarray:
        """Row argmax as int64, ties to the lowest class index."""
        return np.argmax(scores, axis=1).astype(np.int64)


def training_labels(labels, train_mask):
    """(label object, truth in its readout's codes) for a training mask over a
    data.LabelData: BinaryLabelData (class 0 -> +1, 1 -> -1) for two classes,
    MulticlassLabelData for more."""
    if labels.num_classes == 2:
        truth = np.where(labels.known, 1 - 2 * labels.y, 0).astype(np.int64)
        return BinaryLabelData.from_signs(truth, train_mask), truth
    return MulticlassLabelData.from_classes(labels.y, train_mask, labels.num_classes), labels.y


@dataclass
class GLDiagnostics:
    iterations: int
    final_change: float
    final_energy: float
    converged: bool
    energy_history: list = field(default_factory=list)


def _apply_operator(basis: Eigenbasis, x: np.ndarray) -> np.ndarray:
    """S x with S = Phi diag(lambdas) Phi^T; ``x`` is a vector or an n x K matrix."""
    # lambdas scale the rows of the coefficients, for vectors and matrices alike
    return basis.phis @ (basis.lambdas * (basis.phis.T @ x).T).T


def _energy(quad: float, well: float, x, labels: TrainingLabels, cfg: GLConfig) -> float:
    """eps/2 quad + well/eps + the fidelity term, given <x, S x> and W(x)."""
    fidelity = float(np.sum(labels.weights(cfg.omega0) * (labels.target - x) ** 2))
    return 0.5 * cfg.epsilon * quad + well / cfg.epsilon + 0.5 * fidelity


def _double_well(u) -> float:
    return float(np.sum((u**2 - 1.0) ** 2)) / 4.0


def _double_well_gradient(u, out=None) -> np.ndarray:
    """(u * u) * u - u, written into ``out`` when it is given."""
    # u * u * u, not u**3: numpy sends an integer power through pow(),
    # which costs more than the rest of the step together.
    out = np.multiply(u, u, out=out)
    out *= u
    out -= u
    return out


def _check_basis(basis: Eigenbasis, labels: TrainingLabels) -> None:
    """Refuse a basis with an eigenvalue below -_RESIDUAL_TOL max(1, |lambda|),
    the accuracy every solve is checked to, or on another node count."""
    lam = basis.lambdas
    if lam.min() < -_RESIDUAL_TOL * max(1.0, np.abs(lam).max()):
        raise ValueError(
            f"eigenbasis has eigenvalue {lam.min():.3e}: its operator is not positive "
            "semi-definite, so the Ginzburg-Landau energy would be unbounded below"
        )
    if labels.n != basis.n:
        raise ValueError(f"labels cover {labels.n} nodes, the eigenbasis {basis.n}")


def _implicit_fidelity(basis, labels: BinaryLabelData, cfg: GLConfig):
    """(M^-1, tau omega0 Phi_L^T f_L) of the binary step, with

        M = (1 + c tau) I + eps tau Lambda + tau omega0 Phi_L^T Phi_L,

    c = cfg.c_well and Phi_L the labeled rows of Phi; M^-1 comes from a
    Cholesky factor of M.  M is symmetric positive definite whenever
    1 + c tau + eps tau lambda > 0 for every lambda, so for any PSD operator.
    A non-finite M (c overflows for a tiny epsilon) raises DivergenceError
    at iteration 0, since no step can be taken; an indefinite one raises
    ValueError."""
    tau = cfg.tau
    phis_l = basis.phis[labels.mask]
    M = (tau * cfg.omega0) * (phis_l.T @ phis_l)
    M[np.diag_indices_from(M)] += 1.0 + cfg.c_well * tau + cfg.epsilon * tau * basis.lambdas
    if not np.all(np.isfinite(M)):
        raise DivergenceError(0)
    try:
        factor = cho_factor(M, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"the implicit GL step matrix is not positive definite: {exc}") from exc
    minv = cho_solve(factor, np.eye(basis.k), check_finite=False)
    return minv, (tau * cfg.omega0) * (phis_l.T @ labels.f[labels.mask])


def energy(basis: Eigenbasis, u, labels: BinaryLabelData, cfg: GLConfig) -> float:
    """Evaluate the binary Ginzburg-Landau energy at u, with the quadratic form
    of the span-projected part of u (exact for a full basis)."""
    _check_basis(basis, labels)
    u = np.asarray(u, dtype=float)
    return _energy(float(u @ _apply_operator(basis, u)), _double_well(u), u, labels, cfg)


def energy_gradient(basis: Eigenbasis, u, labels: BinaryLabelData, cfg: GLConfig) -> np.ndarray:
    """Analytic gradient of the binary energy: eps*S u + (u^3-u)/eps - omega*(f-u),
    with S the basis's Phi diag(lambdas) Phi^T."""
    _check_basis(basis, labels)
    u = np.asarray(u, dtype=float)
    omega = labels.weights(cfg.omega0)
    return (cfg.epsilon * _apply_operator(basis, u) + _double_well_gradient(u) / cfg.epsilon
            - omega * (labels.f - u))


def gl_binary(
    basis: Eigenbasis,
    labels: BinaryLabelData,
    cfg: GLConfig,
    track_energy: bool = False,
):
    """Binary Ginzburg-Landau classification over an eigenbasis.

    Starts from u = Phi Phi^T f, the span part of f, and runs the
    convexity-splitting step with the double well explicit and the fidelity
    force implicit, in coefficients a = Phi^T u:

        a_new = M^-1 ((1 + c tau) a - (tau/eps) Phi^T W'(u) + tau omega0 Phi_L^T f_L),
        u_new = Phi a_new,

    with c = cfg.c_well = 3/eps and M from ``_implicit_fidelity``, until the
    relative change of u drops below ``cfg.tol`` or ``cfg.max_iter`` is
    reached.

    Returns:
        (u, labels_out, diagnostics) with labels_out = sign(u), sign(0) = +1.
    """
    _check_basis(basis, labels)
    eps, c, tau = cfg.epsilon, cfg.c_well, cfg.tau
    phis, lambdas = basis.phis, basis.lambdas
    minv, drive = _implicit_fidelity(basis, labels, cfg)

    def state_energy(a, u):
        return _energy(float(a @ (lambdas * a)), _double_well(u), u, labels, cfg)

    # each step runs in these n- and k-vectors, swapped between steps
    a = phis.T @ labels.f
    u = phis @ a
    u_new, w = np.empty_like(u), np.empty_like(u)
    s, r = np.empty_like(a), np.empty_like(a)
    keep, pull = 1.0 + c * tau, tau / eps
    diag = GLDiagnostics(0, np.inf, np.nan, False)
    if track_energy:
        diag.energy_history.append(state_energy(a, u))
    for it in range(cfg.max_iter):
        np.dot(phis.T, _double_well_gradient(u, w), out=s)
        # r = ((1 + c tau) a - (tau/eps) Phi^T W'(u)) + drive, in that order
        np.multiply(pull, s, out=s)
        np.multiply(keep, a, out=r)
        np.subtract(r, s, out=r)
        np.add(r, drive, out=r)
        np.dot(minv, r, out=s)
        np.dot(phis, s, out=u_new)
        if not np.isfinite(u_new).all():
            raise DivergenceError(it)
        # sqrt(x . x) is what np.linalg.norm computes for a 1-D float array
        np.subtract(u_new, u, out=w)
        change = math.sqrt(np.dot(w, w)) / max(math.sqrt(np.dot(u_new, u_new)), _NORM_FLOOR)
        a, s = s, a
        u, u_new = u_new, u
        if track_energy:
            diag.energy_history.append(state_energy(a, u))
        if change < cfg.tol:
            diag.converged = True
            break
    diag.iterations, diag.final_change = it + 1, change
    diag.final_energy = state_energy(a, u)
    return u, labels.readout(u), diag


# ---------------------------------------------------------------------------
# Multiclass potential and Gibbs-simplex machinery


def multiclass_potential(U: np.ndarray) -> float:
    """sum_i prod_l ||u_i - e_l||_1^2 / 4, the simplex-vertex well.

    Every row of U must lie on the probability simplex (nonnegative
    entries summing to one).  There ||u_i - e_l||_1 = 2 (1 - U_il), which
    is the form evaluated; off the simplex the result is not the well.
    """
    gap = 1.0 - np.asarray(U, dtype=float)
    return float(np.prod(gap * gap, axis=1).sum())


def multiclass_potential_gradient(U: np.ndarray) -> np.ndarray:
    """Entrywise derivative of the simplex-vertex well at each row of U.

    Row i, class k:
        sum_l (1 - 2*delta_kl)/2 * ||u_i - e_l||_1 * prod_{m != l} ||u_i - e_m||_1^2 / 4
    with the interior sign convention of the L1 distances baked in.

    Every row of U must lie on the probability simplex.  There
    ||u_i - e_l||_1 = 2 (1 - U_il), so the term for l is
    (1 - U_il) prod_{m != l} (1 - U_im)^2, and the product over m != l
    is a prefix times a suffix product over the K columns.
    """
    U = np.asarray(U, dtype=float)
    # class-major (K x n) so each step below is one contiguous vector op
    gap = np.subtract(1.0, U.T, order="C")
    q = gap * gap
    K = q.shape[0]
    # base[l] = gap[l] * (prefix[l] * suffix[l]) with prefix[l] = q[0] ... q[l-1]
    # and suffix[l] = q[K-1] ... q[l+1], each multiplied in that order; the
    # products start at their first factor, not at 1, which changes no bit
    base = np.empty_like(q)
    if K == 1:
        base[0] = gap[0]
    else:
        base[1] = q[0]
        for l in range(2, K):
            np.multiply(base[l - 1], q[l - 1], out=base[l])
        base[K - 1] *= gap[K - 1]
        suffix = q[K - 1].copy()
        for l in range(K - 2, 0, -1):
            base[l] *= suffix
            base[l] *= gap[l]
            suffix *= q[l]
        np.multiply(gap[0], suffix, out=base[0])
    total = base.sum(axis=0)
    base *= 2.0
    # written through the transpose in C order, so the inner loop runs over
    # the n rows rather than over the K classes of one row
    grad = np.empty((U.shape[0], K))
    np.subtract(total, base, out=grad.T, order="C")
    return grad


def project_rows_onto_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the probability simplex.

    Sorts each row in decreasing order, s_1 >= ... >= s_K, takes the
    cumulative sums c_j and the gaps s_j - (c_j - 1)/j, and shifts the
    row by theta = (c_rho - 1)/rho at the last positive gap rho, clipping
    at zero (Condat, "Fast projection onto the simplex and the l1 ball",
    2016).  Once |s_1| >= 2**53 the 1 vanishes and no gap is positive; the
    projection is unchanged by adding a constant to the row, so such a row
    is projected again less s_1, whose first gap is 1.  A row with no
    finite s_1 (NaN or inf) keeps the last column's theta.

    Up to ``_SORTING_NETWORK_MAX_K`` columns (the widest at which it beat
    ``np.sort`` on 2200 rows) an odd-even transposition network of
    elementwise max/min sorts the class-major columns; ``np.sort`` sorts
    wider rows.  Both give the same sorted values up to the signs of
    zeros, which leave every c_j - 1 unchanged.  The sums, gaps and theta
    are formed one column at a time in the order ``np.cumsum`` adds, so
    the output is bit for bit the same either way.
    """
    V = np.asarray(V, dtype=float)
    n, K = V.shape
    if K <= _SORTING_NETWORK_MAX_K:
        s = list(np.array(V.T))
        spare = np.empty(n)
        for r in range(K):
            for i in range(r % 2, K - 1, 2):
                np.maximum(s[i], s[i + 1], out=spare)
                np.minimum(s[i], s[i + 1], out=s[i + 1])
                s[i], spare = spare, s[i]
    else:
        s = np.sort(V.T, axis=0)[::-1]
    cs = s[0].copy()
    theta = t = cs - 1.0
    # the first gap is positive unless |s_1| swamps the 1
    found = s[0] > theta
    for j in range(1, K):
        cs += s[j]
        t = cs - 1.0
        t /= j + 1
        # s_j > t exactly when the gap s_j - t is positive
        positive = s[j] > t
        np.copyto(theta, t, where=positive)
        found |= positive
    np.copyto(theta, t, where=~found)
    out = np.empty((n, K))
    # through the transpose, as multiclass_potential_gradient writes its result
    np.subtract(V.T, theta, out=out.T, order="C")
    np.maximum(out, 0.0, out=out)
    if not found.all():
        huge = ~found & np.isfinite(s[0])
        out[huge] = project_rows_onto_simplex(V[huge] - s[0][huge, None])
    return out


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a single vector onto {x >= 0, sum x = 1}."""
    v = np.asarray(v, dtype=float).ravel()
    return project_rows_onto_simplex(v[None, :])[0]


def multiclass_energy(basis: Eigenbasis, U, labels: MulticlassLabelData, cfg: GLConfig) -> float:
    """Vector-valued Ginzburg-Landau energy (trace form + well + fidelity), with
    the trace form of the span-projected part of U (exact for a full basis)."""
    _check_basis(basis, labels)
    U = np.asarray(U, dtype=float)
    quad = float(np.tensordot(U, _apply_operator(basis, U)))
    return _energy(quad, multiclass_potential(U) / 2.0, U, labels, cfg)


def gl_multiclass(
    basis: Eigenbasis,
    labels: MulticlassLabelData,
    cfg: GLConfig,
    init_seed: int | None = None,
    track_energy: bool = False,
):
    """Multiclass Ginzburg-Landau classification over an eigenbasis.

    The iterate starts from uniform (0,1) noise projected onto the Gibbs
    simplex with labeled rows overwritten by their one-hot targets.  Every
    step is the convexity-splitting step with the simplex-vertex well and
    the fidelity force explicit, a divide by the diagonal of the implicit
    part in eigenvector coordinates, and a projection of each row back
    onto the simplex:

        U_new = P_simplex(Phi [((1 + c tau) Phi^T U - (tau/(2 eps)) Phi^T T(U)
                                + tau Phi^T Omega (U_hat - U)) / (1 + c tau + eps tau Lambda)]),

    with c = cfg.c = 3/eps + omega0 and T the well gradient, until the
    relative change of U drops below ``cfg.tol`` or ``cfg.max_iter`` is
    reached.

    Returns:
        (U, labels_out, diagnostics) with labels_out the row argmax
        (ties to the lowest class index).
    """
    _check_basis(basis, labels)
    eps, c, tau, phis = cfg.epsilon, cfg.c, cfg.tau, basis.phis
    omega, target = labels.weights(cfg.omega0), labels.target
    denom = (1.0 + c * tau + eps * tau * basis.lambdas)[:, None]
    U0 = np.random.default_rng(init_seed).random((labels.n, labels.num_classes))
    U = project_rows_onto_simplex(U0)
    U[labels.mask] = labels.U_hat[labels.mask]
    diag = GLDiagnostics(0, np.inf, np.nan, False)
    if track_energy:
        diag.energy_history.append(multiclass_energy(basis, U, labels, cfg))
    for it in range(cfg.max_iter):
        well = phis.T @ multiclass_potential_gradient(U)
        fidelity = phis.T @ (omega * (target - U))
        C = ((1.0 + c * tau) * (phis.T @ U) - (tau / (2.0 * eps)) * well + tau * fidelity) / denom
        U_new = phis @ C
        if not np.all(np.isfinite(U_new)):
            raise DivergenceError(it)
        U_new = project_rows_onto_simplex(U_new)
        change = np.linalg.norm(U_new - U) / max(np.linalg.norm(U_new), _NORM_FLOOR)
        U = U_new
        diag.iterations, diag.final_change = it + 1, float(change)
        if track_energy:
            diag.energy_history.append(multiclass_energy(basis, U, labels, cfg))
        if change < cfg.tol:
            diag.converged = True
            break
    diag.final_energy = multiclass_energy(basis, U, labels, cfg)
    return U, labels.readout(U), diag
