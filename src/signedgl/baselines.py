"""Unsigned-graph transductive baselines on the positive subgraph.

Both take a ``SignedGraph`` (anything else raises TypeError), read its
checked W = Wp and its degree vector D = g.dp, and refuse labels over
another node count.  Harmonic-function label propagation solves the
Dirichlet problem on the unlabeled block of D - W; local-global
consistency solves (I - alpha * D^{-1/2} W D^{-1/2}) u = f.  Every system,
whatever its size, goes to the conjugate-gradient solver of ``spectral`` at
the package's one CG tolerance, ``spectral._CG_RTOL`` (1e-10, shared with
the shift-invert inner solves); a singular or badly conditioned one raises
np.linalg.LinAlgError.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .classifier import TrainingLabels
from .graph import SignedGraph
from .laplacians import _degree_scaled
from .spectral import _CG_RTOL, _cg_solve

__all__ = ["harmonic_functions", "local_global"]

LGC_ALPHA = 0.99  # default mixing parameter of local_global


def _solve_columns(A, B):
    """Solve A X = B column by column; B may be a vector or a matrix."""
    rhs = B if B.ndim == 2 else B[:, None]
    X = np.column_stack([_cg_solve(A, b, _CG_RTOL) for b in np.ascontiguousarray(rhs.T)])
    resid = np.linalg.norm(A @ X - rhs)
    scale = max(np.linalg.norm(rhs), 1.0)
    if not np.isfinite(resid) or resid > 1e-8 * scale:
        raise np.linalg.LinAlgError(
            f"linear solve residual {resid:.3e} too large; system is singular "
            "or badly conditioned"
        )
    return X if B.ndim == 2 else X[:, 0]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _require_labels(labels, g) -> None:
    if not isinstance(g, SignedGraph):
        raise TypeError(f"g must be a SignedGraph, got {type(g).__name__}")
    if not isinstance(labels, TrainingLabels):
        raise TypeError("labels must be BinaryLabelData or MulticlassLabelData")
    if labels.n != g.n:
        raise ValueError(f"labels cover {labels.n} nodes, the graph {g.n}")


def harmonic_functions(g, labels):
    """Harmonic extension of the labeled values over the positive graph g.Wp.

    Solves L_uu u_u = W_ul f_l, with L_uu = diag(d_u) - W_uu for W = g.Wp
    and its degrees d = g.dp; labeled nodes keep their given values.  L_uu is
    singular exactly when an unlabeled node's connected component of W holds
    no labeled node; that raises a LinAlgError.

    Returns:
        (labels_out, scores): the label object's readout of the harmonic
        values, and the values.
    """
    _require_labels(labels, g)
    W = g.Wp
    if not labels.mask.any():
        raise ValueError("harmonic functions need at least one labeled node")
    values = labels.target
    lab = np.flatnonzero(labels.mask)
    unl = np.flatnonzero(~labels.mask)
    scores = np.array(values, dtype=float)
    if unl.size:
        _, comp = connected_components(W, directed=False)
        orphans = unl[~np.isin(comp[unl], comp[lab])]
        if orphans.size:
            raise np.linalg.LinAlgError(f"linear system is singular: {orphans.size} unlabeled "
                                        f"nodes (first {orphans[0]}) have no labeled node in reach")
        L_uu = sp.diags_array(g.dp[unl], format="csr") - W[unl, :][:, unl]
        scores[unl] = _solve_columns(L_uu, W[unl, :][:, lab] @ values[lab])
    return labels.readout(scores), scores


def local_global(g, labels, alpha: float = LGC_ALPHA):
    """Local-global label propagation over g.Wp: (I - alpha * Wsym)^{-1} f.

    ``alpha`` must lie in (0, 1), which keeps the system nonsingular.

    Returns:
        (labels_out, scores).
    """
    _check_alpha(alpha)
    _require_labels(labels, g)
    Wsym = _degree_scaled(g.Wp, g.dp)
    M = sp.csr_array(sp.eye_array(g.n, format="csr") - alpha * Wsym)
    scores = _solve_columns(M, labels.target)
    return labels.readout(scores), scores
