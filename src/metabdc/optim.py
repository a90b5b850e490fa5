"""Optimizers, learning-rate schedules, and the AUC-margin loss.

The AUC-margin surrogate is a min-max objective: squared deviations of
positive scores from a center a and negative scores from b, plus a dual
variable alpha enforcing the margin between class means. It is minimized
over (scores, a, b) and maximized over alpha, with alpha projected to
stay nonnegative. `pesg_step` performs that saddle-point update, with
weight decay on the model parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Graph, Var


def lr_from_batch(batch_size: int) -> float:
    """Linear batch-size scaling anchored at 0.3 for batches of 256."""
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    return 0.3 * batch_size / 256.0


STEP_DECAY_FACTOR = 10.0  # a step schedule divides the LR by this at each decay epoch


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str  # "cosine" or "step"
    base_lr: float
    total_epochs: int
    decay_epochs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("cosine", "step"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.base_lr <= 0:
            raise ValueError("base LR must be positive")
        if self.total_epochs <= 0:
            raise ValueError("total epochs must be positive")
        if any(d >= self.total_epochs or d < 0 for d in self.decay_epochs):
            raise ValueError("decay epochs must lie inside [0, total)")


def schedule_lr(config: ScheduleConfig, epoch: int) -> float:
    if not 0 <= epoch < config.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.total_epochs})")
    if config.kind == "cosine":
        return config.base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / config.total_epochs))
    passed = sum(1 for d in config.decay_epochs if epoch >= d)
    return config.base_lr / STEP_DECAY_FACTOR**passed


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
    labels: np.ndarray,
    a: Var,
    b: Var,
    alpha: Var,
    margin: float,
    p_hat: float,
) -> Var:
    """In-graph AUC-margin loss over a score vector node.

    Gradients flow into whatever produced the scores; a, b, alpha are
    scalar parameter nodes (shape (1,)). p_hat is the positive rate of the
    training split, not of the batch. A single-class batch contributes
    only its class-conditional terms; an empty batch is an error.
    """
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if not np.all(pos | neg):
        raise ValueError("labels must be 0 or 1")
    if n_pos + n_neg == 0:
        raise ValueError("empty batch")

    loss = 2.0 * margin * p_hat * (1.0 - p_hat) * alpha.sum() - p_hat * (1.0 - p_hat) * (alpha * alpha).sum()
    if n_pos:
        mask = g.constant(pos.astype(np.float64))
        mean_pos = (scores * mask).sum() / n_pos
        dev = (scores - a.sum()) * mask
        loss = loss + (1.0 - p_hat) * (dev * dev).sum() / n_pos - 2.0 * (1.0 - p_hat) * alpha.sum() * mean_pos
    if n_neg:
        mask = g.constant(neg.astype(np.float64))
        mean_neg = (scores * mask).sum() / n_neg
        dev = (scores - b.sum()) * mask
        loss = loss + p_hat * (dev * dev).sum() / n_neg + 2.0 * p_hat * alpha.sum() * mean_neg
    return loss


# ---------------------------------------------------------------------------
# PESG


@dataclass(frozen=True)
class PesgState:
    """Which `pesg_step` keys are centers and which are duals; every other
    key is a model parameter."""

    center_names: tuple[str, ...]  # a/b style scalars: descent, no decay
    dual_names: tuple[str, ...]  # alpha style scalars: ascent + projection to >= 0


def pesg_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: PesgState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One PESG update, in place.

    Model entries descend with weight decay, center entries (a, b) descend
    plainly, dual entries (alpha) ascend and are projected back to >= 0.
    Non-finite gradients abort.
    """
    for name, gval in grads.items():
        if not np.all(np.isfinite(gval)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
    for name, w in params.items():
        g = grads[name]
        if name in state.dual_names:
            w += (lr * g).astype(w.dtype, copy=False)
            np.maximum(w, 0.0, out=w)
        elif name in state.center_names:
            w -= (lr * g).astype(w.dtype, copy=False)
        else:
            w -= (lr * (g + weight_decay * w)).astype(w.dtype, copy=False)
