"""AUROC evaluation: binary, one-vs-rest multiclass, episode aggregation."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


def ovr_pair_counts(scores: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Per column k of (n, K) scores: 2 * (positive-negative pairs ranked
    right) + (tied pairs), as int64. `positive` is the (n, K) mask of each
    column's positives; every other row is a negative of that column.

    With scores sorted per column, a row in the tie run [i, j] has i scores
    below it and j + 1 at or below it. Summing i + j + 1 over the positives
    gives the wanted count plus n_pos**2: every positive-positive pair
    counts twice, and each positive once against itself.
    """
    order = np.argsort(scores, axis=0, kind="mergesort")
    ranked = np.take_along_axis(scores, order, axis=0)
    n = ranked.shape[0]
    rows = np.arange(n)[:, None]
    starts = np.ones(ranked.shape, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ends = np.ones(ranked.shape, dtype=bool)
    ends[:-1] = starts[1:]
    below = np.maximum.accumulate(np.where(starts, rows, 0), axis=0)
    at_or_below = np.minimum.accumulate(np.where(ends, rows + 1, n)[::-1], axis=0)[::-1]
    pos = np.take_along_axis(positive, order, axis=0)
    n_pos = pos.sum(axis=0)
    return np.where(pos, below + at_or_below, 0).sum(axis=0) - n_pos * n_pos


def auroc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC: P(s+ > s-) + 0.5 P(s+ = s-), from pair counts."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be matching vectors")
    pos = labels == 1
    neg = labels == 0
    if not np.all(pos | neg):
        raise ValueError("labels must be 0 or 1")
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes present")
    return float(ovr_pair_counts(scores[:, None], pos[:, None])[0] / (2 * n_pos * n_neg))


def auroc_multiclass_ovr(scores: np.ndarray, labels: np.ndarray, pair_totals: list[int] | None = None) -> float:
    """Unweighted mean of per-class one-vs-rest AUROC.

    Column k of `scores` ranks class k against the rest. Classes absent
    from `labels` are skipped and reported via logging. With `pair_totals`,
    also appends the `ovr_pair_counts` of the present classes summed, an
    exact integer that orders score sets with equal per-class pair numbers
    as their AUROC does, ties included.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise ValueError(f"need (n, K) scores aligned with n labels, got {scores.shape} and {labels.shape}")
    k = scores.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}) for {k} score columns, got {labels.min()} to {labels.max()}")
    present = sorted(set(int(l) for l in labels))
    if len(present) < 2:
        raise ValueError("multiclass AUROC needs at least 2 classes present")
    skipped = [k for k in range(scores.shape[1]) if k not in present]
    if skipped:
        log.warning("auroc_multiclass_ovr: classes %s absent from labels, skipped", skipped)
    positive = labels[:, None] == np.array(present)
    n_pos = positive.sum(axis=0)
    counts = ovr_pair_counts(scores[:, present], positive)
    if pair_totals is not None:
        pair_totals.append(int(counts.sum()))
    return float(np.mean(counts / (2 * n_pos * (len(labels) - n_pos))))


@dataclass(frozen=True)
class AggregateResult:
    mean: float
    std: float


def aggregate_episode_metrics(per_repeat: list[list[float]]) -> AggregateResult:
    """Mean over episodes within each repeat, then mean and std across repeats.

    Std is the population std (ddof=0) so one repeat aggregates to std 0.
    """
    if not per_repeat or any(len(r) == 0 for r in per_repeat):
        raise ValueError("need at least one episode in every repeat")
    repeat_means = tuple(float(np.mean(r)) for r in per_repeat)
    return AggregateResult(mean=float(np.mean(repeat_means)), std=float(np.std(repeat_means)))
