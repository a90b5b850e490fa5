"""Brownian-distance-covariance representation of a feature map.

A (d, m) feature map is summarized by a (d, d) matrix: take the
non-squared Euclidean distances between channel rows over the m observed
positions, then double-center. Channels act as variables, positions as
observations. The centered matrix is symmetric with zero row sums, is
invariant to adding a constant to every channel, and vanishes exactly
when all channels are pairwise identical.

An episode's (Q, N) scores are the negated squared Frobenius distances
from each query matrix to each class prototype, the element-wise mean of
that class's support matrices. Each computation has one implementation,
a graph builder: training differentiates through it, and the array
functions `bdc_matrix`, `class_prototypes` and `episode_classify` run
the same builder forward only on a whole batch. The BDC matrix is one
graph op, `bdc`, whose forward and closed-form VJP live in `core.graph`.
Squared distances are taken from the Gram matrix alone, so a channel's
distance to itself is exactly zero, and they are float64 whatever the
feature dtype, which promotes everything downstream of them to float64.

Square roots of computed squared distances are guarded as
sqrt(max(x, 1e-12)), which keeps gradients finite at coincident channels
at the cost of a ~1e-6 floor on tiny distances.
"""

from __future__ import annotations

import numpy as np

from .core import Graph, Var, forward_eval

def prototypes_graph(support_bdc: Var, n_way: int, k_shot: int, d: int) -> Var:
    """(N*K, d, d) class-major support matrices -> (N, d, d) class means."""
    return support_bdc.reshape((n_way, k_shot, d, d)).mean(axis=1)


def scores_graph(query_bdc: Var, protos: Var, n_way: int, d: int) -> Var:
    """(Q, d, d) queries against (N, d, d) prototypes -> raw (Q, N) scores,
    the negated squared Frobenius distances."""
    diff = query_bdc.reshape((-1, 1, d * d)) - protos.reshape((1, n_way, d * d))
    return -(diff * diff).sum(axis=2)


def _forward(out: Var) -> np.ndarray:
    forward_eval(out.graph)
    return out.value


def bdc_matrix(fmaps: np.ndarray) -> np.ndarray:
    """(B, d, m) feature maps -> (B, d, d) matrices, forward-only."""
    x = np.asarray(fmaps)
    if x.ndim != 3:
        raise ValueError(f"expected (B, d, m) feature maps, got shape {x.shape}")
    g = Graph(forward_only=True)
    return _forward(g.constant(x).bdc())


def class_prototypes(support: np.ndarray, n_way: int) -> np.ndarray:
    """(N*K, d, d) class-major support matrices -> (N, d, d) element-wise class means."""
    s = np.asarray(support)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or n_way < 1 or s.shape[0] == 0 or s.shape[0] % n_way:
        raise ValueError(f"support matrices of shape {s.shape} do not split into {n_way} equal classes of (d, d)")
    g = Graph(forward_only=True)
    return _forward(prototypes_graph(g.constant(s), n_way, s.shape[0] // n_way, s.shape[1]))


def episode_classify(queries: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Raw (Q, N) scores of (Q, d, d) query matrices against (N, d, d) prototypes."""
    q, p = np.asarray(queries), np.asarray(prototypes)
    if q.ndim != 3 or q.shape[1:] != p.shape[1:] or q.shape[1] != q.shape[2] or 0 in (q.shape[0], p.shape[0]):
        raise ValueError(f"expected (Q, d, d) queries and (N, d, d) prototypes, got {q.shape} and {p.shape}")
    g = Graph(forward_only=True)
    return _forward(scores_graph(g.constant(q), g.constant(p), p.shape[0], p.shape[1]))
