"""Optimizers, learning-rate schedules, and the AUC-margin loss.

Two schedules give the LR of an epoch: a half-cosine from `base_lr`
towards zero, and a step schedule that divides `base_lr` by 10 at each
decay epoch. SGD steps the contrastive, episodic and cross-entropy loops.

The AUC-margin surrogate (Yuan et al., ICCV 2021) is a min-max objective
over K one-vs-rest score rows at once: squared deviations of each row's
positive scores from a center a_k and its negative scores from b_k, plus
a dual variable alpha_k enforcing the margin between the two class means.
It is minimized over (scores, a, b) and maximized over alpha, with alpha
projected to stay nonnegative. `aucm_slots` gives the three (K,) slots,
and `pesg_step` performs that saddle-point update, with weight decay on
the model parameters only.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Graph, Var

STEP_DECAY_FACTOR = 10.0  # a step schedule divides the LR by this at each decay epoch


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def step_lr(base_lr: float, epoch: int, decay_epochs: tuple[int, ...]) -> float:
    passed = sum(1 for d in decay_epochs if epoch >= d)
    return base_lr / STEP_DECAY_FACTOR**passed


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0) -> None:
    """In-place SGD with decoupled-style L2: w -= lr * (g + wd * w)."""
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {w.shape} for {name!r}")
        w -= (lr * (g + weight_decay * w)).astype(w.dtype, copy=False)


# ---------------------------------------------------------------------------
# AUC-margin loss


def aucm_loss_graph(
    g: Graph,
    scores: Var,
    positive: np.ndarray,
    a: Var,
    b: Var,
    alpha: Var,
    margin: float,
    p_hat: np.ndarray,
) -> Var:
    """Summed AUC-margin loss of K one-vs-rest score rows, as one graph.

    `scores` is a (K, n) node whose row k scores the batch for class k,
    `positive` the (K, n) bool mask of its positives, a, b and alpha (K,)
    parameter nodes, and `p_hat` the (K,) positive rates of the training
    split, not of the batch. Each class's batch sums run along its row and
    are divided by max(count, 1), so a class with no positives or no
    negatives in the batch adds exact zeros for them. Gradients flow into
    whatever produced the scores; an empty batch is an error.
    """
    positive = np.asarray(positive)
    if positive.dtype != bool or positive.ndim != 2 or positive.shape[1] == 0:
        raise ValueError(f"expected a nonempty (K, n) bool mask, got {positive.dtype} of shape {positive.shape}")
    k = positive.shape[0]
    p = np.asarray(p_hat, dtype=np.float64)
    if p.shape != (k,):
        raise ValueError(f"expected {k} positive rates, got shape {p.shape}")

    loss = g.constant(2.0 * margin * p * (1.0 - p)) * alpha - g.constant(p * (1.0 - p)) * (alpha * alpha)
    # (mask, center, weight of its deviations, sign of its mean's pull on alpha)
    for mask, center, weight, sign in ((positive, a, 1.0 - p, -2.0), (~positive, b, p, 2.0)):
        m = g.constant(mask.astype(np.float64))
        count = g.constant(np.maximum(mask.sum(axis=1), 1))
        mean = (scores * m).sum(axis=1) / count
        dev = (scores - center.reshape((k, 1))) * m
        loss = loss + g.constant(weight) * (dev * dev).sum(axis=1) / count
        loss = loss + g.constant(sign * weight) * alpha * mean
    return loss.sum()


# ---------------------------------------------------------------------------
# PESG

AUCM_CENTERS = ("aucm_a", "aucm_b")  # descent, no decay
AUCM_DUAL = "aucm_alpha"  # ascent + projection to >= 0


def aucm_slots(k: int) -> dict[str, np.ndarray]:
    """Zeroed (K,) centers and duals of `aucm_loss_graph`, under the names
    `pesg_step` updates as such."""
    return {name: np.zeros(k) for name in (*AUCM_CENTERS, AUCM_DUAL)}


def pesg_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One PESG update, in place.

    The `aucm_slots` centers descend plainly and the dual ascends and is
    projected back to >= 0; every other entry is a model parameter and
    descends with weight decay. Non-finite gradients abort.
    """
    for name, gval in grads.items():
        if not np.all(np.isfinite(gval)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
    for name, w in params.items():
        g = grads[name]
        if name == AUCM_DUAL:
            w += (lr * g).astype(w.dtype, copy=False)
            np.maximum(w, 0.0, out=w)
        elif name in AUCM_CENTERS:
            w -= (lr * g).astype(w.dtype, copy=False)
        else:
            w -= (lr * (g + weight_decay * w)).astype(w.dtype, copy=False)
