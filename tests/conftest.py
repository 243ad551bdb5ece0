import numpy as np
import pytest
import scipy.sparse as sp

from signedgl import SignedGraph


def random_signed_graph(rng, n, density=0.2, neg_share=0.3, weighted=False):
    """Random symmetric signed graph; used as shared test input, not as oracle."""
    upper = np.triu(rng.random((n, n)) < density, 1)
    signs = np.where(rng.random((n, n)) < neg_share, -1.0, 1.0)
    weights = rng.uniform(0.5, 2.0, (n, n)) if weighted else np.ones((n, n))
    W = upper * signs * weights
    W = W + W.T
    Wp = np.where(W > 0, W, 0.0)
    Wn = np.where(W < 0, -W, 0.0)
    return SignedGraph(Wp, Wn)


def positive_only(W):
    """The graph (W, 0).  Its SR operator is the Laplacian D - W of the plain
    adjacency W, and its L_plus_sym the normalized Laplacian."""
    W = sp.csr_array(W)
    return SignedGraph(W, sp.csr_array(W.shape))


def negative_only(W):
    """The graph (0, W).  Its SR operator is the signless Laplacian D + W of the
    plain adjacency W, and its Q_minus_sym the normalized signless Laplacian."""
    W = sp.csr_array(W)
    return SignedGraph(sp.csr_array(W.shape), W)


def clique_graph(sizes):
    """Disjoint positive cliques; returns (graph, block index per node)."""
    n = sum(sizes)
    Wp = np.zeros((n, n))
    truth = np.empty(n, dtype=np.int64)
    start = 0
    for b, s in enumerate(sizes):
        block = range(start, start + s)
        for i in block:
            truth[i] = b
            for j in block:
                if i != j:
                    Wp[i, j] = 1.0
        start += s
    return SignedGraph(Wp, np.zeros((n, n))), truth


def balanced_four_cycle():
    """Groups {0,1} and {2,3}: positive inside, negative across (2-balanced)."""
    n = 4
    Wp = np.zeros((n, n))
    Wn = np.zeros((n, n))
    Wp[0, 1] = Wp[1, 0] = 1.0
    Wp[2, 3] = Wp[3, 2] = 1.0
    for i in (0, 1):
        for j in (2, 3):
            Wn[i, j] = Wn[j, i] = 1.0
    return SignedGraph(Wp, Wn)


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
