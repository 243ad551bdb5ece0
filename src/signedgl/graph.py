"""Signed-graph data model.

A signed graph is stored as a pair of sparse symmetric nonnegative
adjacency matrices over a shared node set: ``Wp`` holds the positive
interactions and ``Wn`` the negative ones.  Entries of both matrices are
strictly positive weights (the sign lives in which matrix an edge sits
in), the diagonals are zero, and a pair of nodes may carry both a
positive and a negative edge at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "SignedGraph",
    "DegreeVectors",
    "split_signs",
    "degrees",
    "largest_connected_component",
]

_LCC_MODES = ("positive", "negative", "signed")


def _as_csr(W) -> sp.csr_array:
    if sp.issparse(W):
        A = sp.csr_array(W)
    else:
        A = sp.csr_array(np.asarray(W, dtype=float))
    A = A.astype(float)
    A.eliminate_zeros()
    A.sort_indices()
    return A


def _first_asymmetric_pair(W: sp.csr_array):
    """Return the lexicographically smallest (i, j) with W[i,j] != W[j,i], or None."""
    diff = sp.csr_array(W - W.T)
    diff.eliminate_zeros()
    if diff.nnz == 0:
        return None
    coo = diff.tocoo()
    order = np.lexsort((coo.col, coo.row))[0]
    return int(coo.row[order]), int(coo.col[order])


def _drop_diagonal(W: sp.csr_array, what: str) -> sp.csr_array:
    nloops = int(np.count_nonzero(W.diagonal()))
    if nloops == 0:
        return W
    warnings.warn(f"dropped {nloops} self-loop entries from {what}", stacklevel=3)
    coo = W.tocoo()
    off = coo.row != coo.col
    return sp.csr_array(
        (coo.data[off], (coo.row[off], coo.col[off])), shape=W.shape
    )


class SignedGraph:
    """Immutable pair (Wp, Wn) of symmetric nonnegative adjacency matrices.

    Args:
        Wp: positive adjacency, sparse or dense, symmetric, nonnegative,
            zero diagonal.
        Wn: negative adjacency, same constraints and shape as ``Wp``.
        node_ids: optional external identifier per node, distinct after
            ``str``; defaults to the stringified index.

    The same node pair may appear in both matrices.  Instances are meant
    to be immutable after construction and safe to share across threads.
    """

    __slots__ = ("n", "Wp", "Wn", "node_ids")

    def __init__(self, Wp, Wn, node_ids=None):
        Wp = _as_csr(Wp)
        Wn = _as_csr(Wn)
        if Wp.shape != Wn.shape:
            raise ValueError(f"shape mismatch: Wp {Wp.shape} vs Wn {Wn.shape}")
        if Wp.shape[0] != Wp.shape[1]:
            raise ValueError(f"adjacency matrices must be square, got {Wp.shape}")
        for name, W in (("Wp", Wp), ("Wn", Wn)):
            bad = _first_asymmetric_pair(W)
            if bad is not None:
                raise ValueError(f"{name} is not symmetric at pair {bad}")
            if W.nnz and float(W.data.min()) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
            if np.count_nonzero(W.diagonal()):
                raise ValueError(f"{name} must have a zero diagonal")
        n = Wp.shape[0]
        if node_ids is None:
            node_ids = tuple(str(i) for i in range(n))
        else:
            node_ids = tuple(str(v) for v in node_ids)
            if len(node_ids) != n:
                raise ValueError(f"expected {n} node ids, got {len(node_ids)}")
            seen = set()
            for v in node_ids:
                if v in seen:
                    raise ValueError(f"node id {v!r} is repeated")
                seen.add(v)
        self.n = n
        self.Wp = Wp
        self.Wn = Wn
        self.node_ids = node_ids

    def signed_adjacency(self) -> sp.csr_array:
        """W = Wp - Wn, the merged signed adjacency matrix."""
        return sp.csr_array(self.Wp - self.Wn)

    def absolute_adjacency(self) -> sp.csr_array:
        """Wp + Wn, connectivity regardless of sign."""
        return sp.csr_array(self.Wp + self.Wn)

    @property
    def num_positive_edges(self) -> int:
        return self.Wp.nnz // 2

    @property
    def num_negative_edges(self) -> int:
        return self.Wn.nnz // 2

    def __repr__(self):
        return (
            f"SignedGraph(n={self.n}, positive_edges={self.num_positive_edges}, "
            f"negative_edges={self.num_negative_edges})"
        )


@dataclass(frozen=True)
class DegreeVectors:
    """Positive, negative and absolute degree vectors of a signed graph."""

    dp: np.ndarray
    dn: np.ndarray
    dbar: np.ndarray


def split_signs(W) -> SignedGraph:
    """Split a signed adjacency matrix into its positive/negative parts.

    Entrywise, Wp = max(0, W) and Wn = -min(0, W).  The input must be
    symmetric; self-loops are dropped with a counted warning.

    Raises:
        ValueError: if ``W`` is not symmetric (the message carries the
            first violating index pair).
    """
    A = _as_csr(W)
    bad = _first_asymmetric_pair(A)
    if bad is not None:
        raise ValueError(f"input matrix is not symmetric at pair {bad}")
    A = _drop_diagonal(A, "input matrix")
    Wp = sp.csr_array(A.maximum(0))
    Wn = sp.csr_array((-A).maximum(0))
    return SignedGraph(Wp, Wn)


def degrees(g: SignedGraph) -> DegreeVectors:
    """Row sums of Wp and Wn, and their sum dbar."""
    dp = np.asarray(g.Wp.sum(axis=1)).ravel()
    dn = np.asarray(g.Wn.sum(axis=1)).ravel()
    return DegreeVectors(dp=dp, dn=dn, dbar=dp + dn)


def largest_connected_component(g: SignedGraph, mode: str = "signed"):
    """Extract the largest connected component of a signed graph.

    Args:
        g: input graph.
        mode: 'positive' (connectivity through Wp only), 'negative'
            (Wn only) or 'signed' (Wp + Wn).

    Returns:
        (subgraph, old_to_new) where ``old_to_new`` maps original node
        indices to component indices (-1 for dropped nodes).  Ties on
        component size are broken toward the component containing the
        smallest original index.
    """
    if mode not in _LCC_MODES:
        raise ValueError(f"mode must be one of {_LCC_MODES}, got {mode!r}")
    if g.n == 0:
        raise ValueError("cannot extract a component from an empty graph")
    if mode == "positive":
        adj = g.Wp
    elif mode == "negative":
        adj = g.Wn
    else:
        adj = g.absolute_adjacency()
    _, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    best = labels[np.flatnonzero(sizes[labels] == sizes.max())[0]]
    keep = np.flatnonzero(labels == best)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[keep] = np.arange(keep.size)
    sub = SignedGraph(
        g.Wp[keep, :][:, keep],
        g.Wn[keep, :][:, keep],
        node_ids=[g.node_ids[i] for i in keep],
    )
    return sub, old_to_new
