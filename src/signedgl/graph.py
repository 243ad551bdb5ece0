"""Signed-graph data model.

A signed graph is stored as a pair of sparse symmetric nonnegative
adjacency matrices over a shared node set: ``Wp`` holds the positive
interactions and ``Wn`` the negative ones.  Entries of both matrices are
strictly positive weights (the sign lives in which matrix an edge sits
in), the diagonals are zero, and a pair of nodes may carry both a
positive and a negative edge at once.  Weights and degrees are finite; a
graph sums its degree vectors ``dp``, ``dn`` and ``dbar`` once, read-only,
and operators and baselines read them from it.
``_signed_graph`` is the one assembly of a graph from (src, dst, signed
weight) records: the loader, the generator and ``split_signs`` use it.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "SignedGraph",
    "split_signs",
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


def _positive_int(value, name: str, least: int = 1) -> int:
    """``value`` as a plain int; refuses a bool, a non-integer type (a float,
    a string) and anything below ``least`` (1, or 0 for a seed)."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _first_pair(A: sp.csr_array, hit: np.ndarray):
    """The smallest (i, j) among the stored entries of A (CSR, sorted
    indices) that ``hit`` marks, or None."""
    k = np.flatnonzero(hit)
    if not k.size:
        return None
    return int(np.searchsorted(A.indptr, k[0], side="right")) - 1, int(A.indices[k[0]])


def _check_weights(name: str, W: sp.csr_array) -> None:
    """Refuse a non-finite entry of W, then one with W[i,j] != W[j,i],
    naming the smallest such pair (i, j)."""
    bad = _first_pair(W, ~np.isfinite(W.data))
    if bad is not None:
        raise ValueError(f"{name} has a non-finite weight at pair {bad}")
    diff = sp.csr_array(W - W.T)
    diff.sort_indices()
    bad = _first_pair(diff, diff.data != 0)
    if bad is not None:
        raise ValueError(f"{name} is not symmetric at pair {bad}")


class SignedGraph:
    """Immutable pair (Wp, Wn) of symmetric nonnegative adjacency matrices.

    Args:
        Wp: positive adjacency, sparse or dense, symmetric, nonnegative and
            finite, zero diagonal; each node's degree in Wp + Wn is finite.
        Wn: negative adjacency, same constraints and shape as ``Wp``.
        node_ids: optional external identifier per node, distinct after
            ``str``; defaults to the stringified index.

    The same node pair may appear in both matrices.  ``dp`` and ``dn`` are
    the row sums of Wp and Wn, and ``dbar`` = dp + dn; all three are
    read-only.  Instances are meant to be immutable after construction and
    safe to share across threads.
    """

    __slots__ = ("n", "Wp", "Wn", "node_ids", "dp", "dn", "dbar")

    def __init__(self, Wp, Wn, node_ids=None):
        Wp = _as_csr(Wp)
        Wn = _as_csr(Wn)
        if Wp.shape != Wn.shape:
            raise ValueError(f"shape mismatch: Wp {Wp.shape} vs Wn {Wn.shape}")
        if Wp.shape[0] != Wp.shape[1]:
            raise ValueError(f"adjacency matrices must be square, got {Wp.shape}")
        for name, W in (("Wp", Wp), ("Wn", Wn)):
            _check_weights(name, W)
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
        with np.errstate(over="ignore"):  # an overflow is refused below, by node
            dp, dn = (np.asarray(W.sum(axis=1)).ravel() for W in (Wp, Wn))
            dbar = dp + dn
        bad = np.flatnonzero(~np.isfinite(dbar))
        if bad.size:
            raise ValueError(f"the degree of node {node_ids[bad[0]]!r} is not finite")
        for d in (dp, dn, dbar):
            d.flags.writeable = False
        self.n = n
        self.Wp = Wp
        self.Wn = Wn
        self.node_ids = node_ids
        self.dp, self.dn, self.dbar = dp, dn, dbar

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


def split_signs(W) -> SignedGraph:
    """Split a signed adjacency matrix into its positive/negative parts.

    Entrywise, Wp = max(0, W) and Wn = -min(0, W).  The input must be
    symmetric; self-loops are dropped with a counted warning.

    Raises:
        ValueError: if ``W`` has a non-finite entry or is not symmetric (the
            message carries the first violating index pair).
    """
    A = _as_csr(W)
    _check_weights("input matrix", A)
    nloops = int(np.count_nonzero(A.diagonal()))
    if nloops:
        warnings.warn(f"dropped {nloops} self-loop entries from input matrix", stacklevel=2)
    upper = sp.triu(A, k=1, format="coo")
    return _signed_graph(A.shape[0], upper.row, upper.col, upper.data)


def _signed_graph(n, src, dst, weights, node_ids=None) -> SignedGraph:
    """The one assembly of a graph from (src, dst, signed weight) records.

    A positive record goes to Wp, a negative one to Wn by magnitude, and the
    upper triangle is mirrored.  The records of one node pair are summed per
    sign in record order: bincount adds in input order, starting from 0.0.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    pair = np.minimum(src, dst) * n + np.maximum(src, dst)
    halves = []
    for signed in (weights, -weights):
        keep = signed > 0
        keys, slot = np.unique(pair[keep], return_inverse=True)
        w = np.bincount(slot, weights=signed[keep], minlength=keys.size)
        upper = sp.coo_array((w, np.divmod(keys, n)), shape=(n, n))
        halves.append(upper + upper.T)
    return SignedGraph(*halves, node_ids=node_ids)


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
