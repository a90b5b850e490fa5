"""Labeled-phase training loops.

Three loops share the conv backbone:

  * episodic meta fine-tuning: N-way K-shot episodes scored through the
    BDC prototype head, cross-entropy over the temperature-scaled negated
    squared distances, stepped by SGD,
  * fully supervised training: one-vs-rest AUC-margin objective with
    independent per-class centers and duals, optimized by the
    saddle-point stepper,
  * plain cross-entropy supervised training on fine labels, used to
    build the labeled proxy initialization.

Each loop converts its `ImageSet` training split to NCHW once per run and
indexes it at each step; none augments its inputs. Meta-fine-tuning keeps
the epoch whose validation episodes give the largest summed integer pair
count, not the largest float mean of per-episode AUROCs, so tied epochs
tie exactly; supervised fine-tuning keeps the epoch with the best
whole-split validation AUROC. Both score a fixed validation set after
each epoch, and the earliest best epoch wins ties.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bdc import bdc_matrix, class_prototypes, episode_classify, prototypes_graph, scores_graph
from .core import Graph, SeededRng, backward, forward_eval
from .data import Episode, EpisodeSpec, ImageSet, minibatches, sample_episode
from .encoder import EncoderConfig, bind_params, classify_head, conv_stack, encode, init_classifier, to_nchw
from .metrics import auroc_multiclass_ovr
from .optim import aucm_loss_graph, aucm_slots, cosine_lr, pesg_step, sgd_step, step_lr

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FinetuneConfig:
    lr: float = 1e-2
    weight_decay: float = 1e-4
    epochs: int = 4
    decay_epochs: tuple[int, ...] = (3,)
    episodes_per_epoch: int = 90
    val_episodes: int = 60
    temperature: float = 1.0
    aucm_margin: float = 1.0  # fully supervised
    batch_size: int = 32  # fully supervised minibatches

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.temperature <= 0 or self.aucm_margin <= 0:
            raise ValueError("lr, temperature, and margin must be positive")
        if self.epochs <= 0 or self.episodes_per_epoch <= 0 or self.val_episodes <= 0:
            raise ValueError("epochs and episode counts must be positive")
        if self.batch_size < 2:
            raise ValueError("supervised batch size must be at least 2")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay: must be nonnegative, got {self.weight_decay}")
        if any(not 0 <= d < self.epochs for d in self.decay_epochs):
            raise ValueError(f"decay_epochs: {self.decay_epochs} must lie inside [0, {self.epochs})")


@dataclass
class FinetuneResult:
    params: dict[str, np.ndarray]
    best_epoch: int
    val_history: list[float]


# ---------------------------------------------------------------------------
# forward-only episode evaluation


def episode_scores(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    split: ImageSet,
    episode: Episode,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (Q, N) scores plus query label indices in class-list order.

    Support and query rows of `split` are encoded in one batch and summarized
    in one BDC call; prototypes and scores run the training graph's builders
    forward. Episodes are class-major, so query block i has label i.
    """
    n_sup = len(episode.support)
    rows = np.concatenate([episode.support, episode.query])
    mats = bdc_matrix(encode(split.pixels[rows], enc_cfg, params))
    protos = class_prototypes(mats[:n_sup], episode.n_way)
    scores = episode_classify(mats[n_sup:], protos)
    return scores, np.repeat(np.arange(episode.n_way), episode.q_query)


def evaluate_episode(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    split: ImageSet,
    episode: Episode,
    pair_totals: list[int] | None = None,
) -> float:
    """Episode AUROC; `pair_totals` as in `auroc_multiclass_ovr`."""
    scores, labels = episode_scores(params, enc_cfg, split, episode)
    return auroc_multiclass_ovr(scores, labels, pair_totals)


def evaluate_episodes(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    split: ImageSet,
    episodes: list[Episode],
    pair_totals: list[int] | None = None,
) -> list[float]:
    return [evaluate_episode(params, enc_cfg, split, ep, pair_totals) for ep in episodes]


def sample_episode_block(split: ImageSet, spec: EpisodeSpec, count: int, rng: SeededRng) -> list[Episode]:
    return [sample_episode(split, spec, rng.child(i)) for i in range(count)]


# ---------------------------------------------------------------------------
# episodic meta fine-tuning


def _episode_loss_graph(
    g: Graph, refs: dict, enc_cfg: EncoderConfig, episode_shape: tuple[int, int, int], temperature: float
):
    """Cross-entropy of any (n_way, k_shot, q_query) episode, fed as NCHW
    inputs "sup" and "qry", over its scores divided by `temperature`. The
    sampler is class-major, so query labels are always
    repeat(arange(n_way), q_query) and one graph serves every episode."""
    n_way, k_shot, q_query = episode_shape
    image = (1, enc_cfg.size, enc_cfg.size)
    sup = g.input("sup", (n_way * k_shot, *image))
    qry = g.input("qry", (n_way * q_query, *image))
    d = enc_cfg.feature_dim
    bdc_s = conv_stack(g, sup, refs, enc_cfg).bdc()
    bdc_q = conv_stack(g, qry, refs, enc_cfg).bdc()
    scores = scores_graph(bdc_q, prototypes_graph(bdc_s, n_way, k_shot, d), n_way, d)
    return _cross_entropy(g, scores * (1.0 / temperature), np.repeat(np.arange(n_way), q_query), n_way)


def _cross_entropy(g: Graph, z, labels: np.ndarray, n_classes: int):
    """Mean cross-entropy of the (n, n_classes) score rows `z` against
    integer `labels`."""
    onehot = g.constant(np.eye(n_classes)[labels])
    return (z.logsumexp(axis=1) - (z * onehot).sum(axis=1)).mean()


def meta_finetune(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    train: ImageSet,
    val: ImageSet,
    train_spec: EpisodeSpec,
    val_spec: EpisodeSpec,
    config: FinetuneConfig,
    rng: SeededRng,
) -> FinetuneResult:
    """Episodic fine-tuning of the conv backbone from a pretrained start.

    Only conv parameters move; projection weights ride along untouched.
    The episode loss graph is built once and replayed every step: SGD
    updates the parameter arrays it references in place. The
    validation episode set is sampled once up front, so every epoch's
    episodes hold the same pairs and epochs are compared by their summed
    integer pair counts; exact ties go to the earliest epoch. Input params
    are not mutated.
    """
    params = {k: v.copy() for k, v in params.items()}
    trainable = {k: v for k, v in params.items() if k.startswith("conv")}
    dtype = params["conv0_w"].dtype

    train_nchw = to_nchw(train.pixels, enc_cfg).astype(dtype)
    val_episodes = sample_episode_block(val, val_spec, config.val_episodes, rng.child(2_000_000))

    g = Graph()
    episode_shape = (train_spec.n_way, train_spec.k_shot, train_spec.q_query)
    loss = _episode_loss_graph(g, bind_params(g, trainable), enc_cfg, episode_shape, config.temperature)

    best_params = {k: v.copy() for k, v in params.items()}
    best_total = -1
    best_epoch = -1
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = step_lr(config.lr, epoch, config.decay_epochs)
        epoch_rng = rng.child(1_000_000 + epoch)
        for e_idx in range(config.episodes_per_epoch):
            episode = sample_episode(train, train_spec, epoch_rng.child(e_idx))
            forward_eval(g, {"sup": train_nchw[episode.support], "qry": train_nchw[episode.query]})
            if not np.isfinite(float(loss.value)):
                raise FloatingPointError(f"non-finite episode loss at epoch {epoch}, episode {e_idx}")
            grads = backward(g, loss)
            sgd_step(trainable, grads, lr=lr, weight_decay=config.weight_decay)
        totals: list[int] = []
        score = float(np.mean(evaluate_episodes(params, enc_cfg, val, val_episodes, totals)))
        history.append(score)
        log.debug("meta epoch %d: lr %.4g val auroc %.4f", epoch, lr, score)
        if sum(totals) > best_total:
            best_total = sum(totals)
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
    return FinetuneResult(best_params, best_epoch, history)


# ---------------------------------------------------------------------------
# supervised loops


def classifier_scores(params: dict[str, np.ndarray], enc_cfg: EncoderConfig, split: ImageSet) -> np.ndarray:
    """(n, n_classes) raw scores for every row of a split."""
    g = Graph(forward_only=True)
    scores = classify_head(g, g.constant(encode(split.pixels, enc_cfg, params)), bind_params(g, params))
    forward_eval(g)
    return scores.value


def _class_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=n_classes)
    if counts.min() == 0:
        raise ValueError(f"class {int(counts.argmin())} absent from the training labels")
    return counts


def supervised_pretrain_ce(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    split: ImageSet,
    n_classes: int,
    epochs: int,
    batch_size: int,
    lr: float,
    weight_decay: float,
    rng: SeededRng,
) -> dict[str, np.ndarray]:
    """Cross-entropy training of conv backbone + a throwaway linear head
    on the fine labels of `split`.

    Returns the params dict with trained conv weights; the head is
    dropped because only the backbone is carried downstream.
    """
    if batch_size < 2 or epochs <= 0:
        raise ValueError("need a positive epoch count and batches of at least 2")
    params = {k: v.copy() for k, v in params.items()}
    labels = split.fine
    _class_counts(labels, n_classes)
    dtype = params["conv0_w"].dtype
    cls = init_classifier(enc_cfg, n_classes, rng.child(1), dtype=dtype)
    step_params = {k: v for k, v in params.items() if k.startswith("conv")}
    step_params.update(cls)
    all_nchw = to_nchw(split.pixels, enc_cfg).astype(dtype)
    for epoch in range(epochs):
        cur_lr = cosine_lr(lr, epoch, epochs)
        for _start, idx in minibatches(len(split), batch_size, rng.child(10_000 + epoch)):
            g = Graph()
            refs = bind_params(g, step_params)
            x = g.input("x", (idx.size,) + all_nchw.shape[1:])
            loss = _cross_entropy(g, classify_head(g, conv_stack(g, x, refs, enc_cfg), refs), labels[idx], n_classes)
            forward_eval(g, {"x": all_nchw[idx]})
            if not np.isfinite(float(loss.value)):
                raise FloatingPointError(f"non-finite proxy loss at epoch {epoch}")
            grads = backward(g, loss)
            sgd_step(step_params, grads, lr=cur_lr, weight_decay=weight_decay)
    return params


def supervised_finetune(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    train: ImageSet,
    val: ImageSet,
    label_space: str,
    n_classes: int,
    config: FinetuneConfig,
    rng: SeededRng,
) -> FinetuneResult:
    """Whole-split training with the one-vs-rest AUC-margin objective.

    Class k's one-vs-rest split scores column k of the head, with its own
    entries of the (a, b, alpha) slots; positive rates are estimated once
    from the training labels. Selection is by whole-split validation AUROC
    per epoch. Returned params include the scoring head.
    """
    params = {k: v.copy() for k, v in params.items()}
    labels = train.labels(label_space)
    counts = _class_counts(labels, n_classes)
    p_hat = counts / counts.sum()
    dtype = params["conv0_w"].dtype
    params.update(init_classifier(enc_cfg, n_classes, rng.child(1), dtype=dtype))

    step_params = {k: v for k, v in params.items() if k.startswith(("conv", "cls"))}
    step_params.update(aucm_slots(n_classes))

    all_nchw = to_nchw(train.pixels, enc_cfg).astype(dtype)

    best_params = {k: v.copy() for k, v in params.items()}
    best_score = -np.inf
    best_epoch = -1
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = step_lr(config.lr, epoch, config.decay_epochs)
        for _start, idx in minibatches(len(train), config.batch_size, rng.child(10_000 + epoch)):
            g = Graph()
            refs = bind_params(g, step_params)
            x = g.input("x", (idx.size,) + all_nchw.shape[1:])
            z = classify_head(g, conv_stack(g, x, refs, enc_cfg), refs)
            positive = labels[idx] == np.arange(n_classes)[:, None]
            total = aucm_loss_graph(
                g, z.swap_last2(), positive, refs["aucm_a"], refs["aucm_b"], refs["aucm_alpha"],
                config.aucm_margin, p_hat,
            )
            forward_eval(g, {"x": all_nchw[idx]})
            if not np.isfinite(float(total.value)):
                raise FloatingPointError(f"non-finite supervised loss at epoch {epoch}")
            grads = backward(g, total)
            pesg_step(step_params, grads, lr, config.weight_decay)
        score = auroc_multiclass_ovr(classifier_scores(params, enc_cfg, val), val.labels(label_space))
        history.append(score)
        log.debug("supervised epoch %d: lr %.4g val auroc %.4f", epoch, lr, score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
    return FinetuneResult(best_params, best_epoch, history)
