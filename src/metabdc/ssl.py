"""Contrastive pretraining with iterative partition-based invariance.

The unlabeled set is repeatedly split into two subsets by a partition:
a 1-D boolean mask over the set, True for the first subset and False for
the second. Each subset contributes a contrastive loss over two augmented
views plus an invariance penalty: the squared derivative of that
subset's per-sample mean loss with respect to a dummy scalar theta
multiplying the similarities, evaluated at theta = 1. Training
minimizes, summed over all retained partitions and subsets, the subset
size times (mean loss + lambda1 * penalty), i.e. summed loss + lambda1 *
(summed derivative)^2 / size; the partition search maximizes the
per-subset mean loss + lambda2 * penalty over candidate partitions with
the encoder frozen. Both use the per-sample mean because the summed
derivative grows with the subset size, so a squared sum outweighs the
loss on large subsets and rewards a constant embedding, whose
derivative is zero. The penalty asks for one scale that is optimal in
every subset at once, so a batch that lands wholly in one subset (the
trivial partition always does) adds its loss alone: one environment
has no invariance to enforce, and penalizing it pulls the projections
toward that same constant. Plain SimCLR is the degenerate run: only the
trivial all-in-one partition, lambda1 = 0, and no searches.

The theta-derivative has a closed form in the pairwise similarities,

    dL/dtheta = sum_i (E_{p_i}[s] - s_pos_i) / tau,

with p_i sample i's denominator terms exp(s / tau) normalized to sum to
one, so the penalty is an ordinary first-order expression and never
needs second-order autodiff.

Both sides build these terms with one builder. `_contrastive_maps` turns
the two views into two (n, n) maps and the positive similarities, and
`_subset_sums` reads any subset's summed loss and derivative off them with
two matvecs at that subset's membership weights. Training builds the maps
on the differentiable batch embeddings and weighs each subset 0/1; the
search evaluates them once on the frozen embeddings and ascends over soft
weights. A training graph depends on a batch only through its size and
its subset pattern (each subset empty, the whole batch, or a split), so
`update_representation` builds one graph per pattern and replays it, the
0/1 weights fed as named inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .core import Graph, SeededRng, Var, backward, forward_eval
from .data import minibatches
from .encoder import EncoderConfig, bind_params, conv_stack, project_head, to_nchw
from .imageops import resize_bilinear, sample_bilinear, unit_grid  # noqa: F401 - perfbench traces resize_bilinear here
from .optim import cosine_lr, sgd_step

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# augmentation


@dataclass(frozen=True)
class AugmentConfig:
    crop_scale: tuple[float, float] = (0.6, 1.0)  # area fraction of the square crop
    gain: tuple[float, float] = (0.8, 1.2)
    bias: tuple[float, float] = (-0.1, 0.1)
    # acquisition nuisances: the texture's angle on the grid and a smooth
    # intensity ramp (bias field); views that differ by them teach invariance
    rotation: float = 1.2  # largest turn either way, radians
    ramp: float = 1.5  # largest slope of a linear intensity ramp, per half image width

    def __post_init__(self) -> None:
        lo, hi = self.crop_scale
        if not 0.0 < lo <= hi:
            raise ValueError(f"bad crop scale range {self.crop_scale}")
        if hi > 1.0:
            raise ValueError("crop larger than the image is not supported")
        if self.rotation < 0 or self.ramp < 0:
            raise ValueError("rotation and ramp ranges must be nonnegative")


# images augment_views samples at once; bounds its float64 temporaries
_AUGMENT_BLOCK = 32


def augment_views(images: np.ndarray, config: AugmentConfig, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Two stochastic views of a (B, H, W) single-channel batch, each of its
    shape: a random square crop, turned by a random rotation and resized to
    the full frame in one `imageops.sample_bilinear` call, then intensity
    gain and bias and a randomly turned linear ramp over `imageops.unit_grid`.

    Deterministic given (config, rng); the identity config returns exact
    copies of the input in both views. Each view draws every per-image
    parameter first, then samples `_AUGMENT_BLOCK` images at a time, so a
    whole-set call holds only one block's float64 temporaries.
    """
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[0] == 0:
        raise ValueError(f"expected a nonempty (B, H, W) batch, got shape {images.shape}")
    b, h, w = images.shape
    gen = rng.generator()
    rows = (np.arange(h) - (h - 1) / 2.0)[None, :, None]  # output grid about its center
    cols = (np.arange(w) - (w - 1) / 2.0)[None, None, :]
    yy, xx = unit_grid(h, w)
    n = min(h, w)
    views = []
    for _view in range(2):
        side = np.clip(np.round(np.sqrt(gen.uniform(*config.crop_scale, size=b)) * n), 1, n).astype(np.int64)
        top = gen.integers(0, h - side + 1)[:, None, None]
        left = gen.integers(0, w - side + 1)[:, None, None]
        side = side[:, None, None]
        angle = gen.uniform(-config.rotation, config.rotation, size=b)[:, None, None]
        gain = gen.uniform(*config.gain, size=b)[:, None, None]
        bias = gen.uniform(*config.bias, size=b)[:, None, None]
        if config.ramp > 0:
            amp = gen.uniform(0.0, config.ramp, size=b)[:, None, None]
            turn = gen.uniform(0.0, 2.0 * np.pi, size=b)[:, None, None]
            turn_cos, turn_sin = np.cos(turn), np.sin(turn)
        cos, sin = np.cos(angle), np.sin(angle)
        view = np.empty((b, h, w), dtype=images.dtype)
        for lo in range(0, b, _AUGMENT_BLOCK):
            blk = slice(lo, lo + _AUGMENT_BLOCK)
            src_r = (cos[blk] * rows - sin[blk] * cols + h / 2.0) * (side[blk] / h) - 0.5 + top[blk]
            src_c = (sin[blk] * rows + cos[blk] * cols + w / 2.0) * (side[blk] / w) - 0.5 + left[blk]
            out = sample_bilinear(images[blk], src_r, src_c) * gain[blk] + bias[blk]
            if config.ramp > 0:
                out = out + amp[blk] * (turn_cos[blk] * xx + turn_sin[blk] * yy)
            view[blk] = out
        views.append(view)
    return views[0], views[1]


# ---------------------------------------------------------------------------
# partitions


def _tau_floor(terms: int) -> float:
    """The smallest tau at which a contrastive denominator of `terms` terms
    stays finite. The maps hold exp(s / tau) unshifted, in float64 (tau
    enters the graph as a float64 constant), and s <= 1 for unit-norm
    embeddings, so the sum is at most terms * exp(1 / tau)."""
    return 1.0 / (np.log(np.finfo(np.float64).max) - np.log(terms))


@dataclass(frozen=True)
class IpIrmConfig:
    lambda1: float = 0.2
    lambda2: float = 0.5
    tau: float = 0.5
    outer_iterations: int = 3
    partition_steps: int = 40
    partition_restarts: int = 2
    partition_lr: float = 0.1  # Adam step on the partition logits
    tolerance: float = 1e-3
    epochs_per_iter: int = 6
    batch_size: int = 32
    weight_decay: float = 1e-4
    base_lr: float = 1e-3  # start of the cosine schedule
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self) -> None:
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        if self.partition_steps <= 0 or self.partition_restarts <= 0:
            raise ValueError("partition search budget must be positive")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be at least 2 for a contrastive term, got {self.batch_size}")
        # a training batch's denominators sum up to 2 * batch_size terms
        tau_floor = _tau_floor(2 * self.batch_size)
        if self.tau < tau_floor:
            raise ValueError(
                f"tau {self.tau!r} is below {tau_floor!r}, where 2 * batch_size * exp(1 / tau) "
                "overflows float64"
            )
        if self.epochs_per_iter < 1:
            raise ValueError(f"epochs_per_iter must be at least 1, got {self.epochs_per_iter}")
        if self.outer_iterations < 0:
            raise ValueError(f"outer_iterations must be nonnegative, got {self.outer_iterations}")
        if self.partition_lr <= 0:
            raise ValueError(f"partition_lr must be positive, got {self.partition_lr}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay: must be nonnegative, got {self.weight_decay}")


def _contrastive_maps(za: Var, zb: Var, tau: float) -> tuple[Var, Var, Var]:
    """Graph nodes (M_den, M_num, s_pos) for n samples' two views at theta = 1.

    Sample i's denominator runs over view A except itself plus all of view
    B, each term weighted by the membership of its source sample k. Grouped
    by k, its weighted sum of exp(s / tau) is (M_den @ w)_i with the (n, n)
    map M_den[i, k] = exp(S_aa[i, k] / tau) [k != i] + exp(S_ab[i, k] / tau),
    and its weighted sum of exp(s / tau) * s is (M_num @ w)_i, built the same
    way; s_pos[i] = S_ab[i, i] is the positive similarity. The exponentials
    are not shifted: for unit-norm embeddings they stay below exp(1 / tau).

    The diagonal is dropped and picked by the `zero_diagonal` and `diagonal`
    ops, so no (n, n) mask enters the graph. They give the bytes of the
    identity-mask products they replace, in value and gradient, and sit at
    their node positions, so gradients add up in the same order.
    """
    s_aa = za @ za.swap_last2()
    s_ab = za @ zb.swap_last2()
    exp_aa = (s_aa / tau).exp().zero_diagonal()  # a sample is not its own negative
    exp_ab = (s_ab / tau).exp()
    m_den = exp_aa + exp_ab
    m_num = exp_aa * s_aa + exp_ab * s_ab
    s_pos = s_ab.diagonal()
    return m_den, m_num, s_pos


def _subset_sums(maps: tuple[Var, Var, Var], w: Var, n: int, tau: float) -> tuple[Var, Var, Var]:
    """Membership-weighted sums over the n samples at weights w: (sum of w,
    summed contrastive loss, summed theta-derivative). At 0/1 weights they
    are the subset's size, loss and derivative; the maps are shared by all
    subsets, so each costs two matvecs."""
    m_den, m_num, pos = maps
    w_col = w.reshape((n, 1))
    den = (m_den @ w_col).reshape((n,))
    per_sample = den.log() - pos / tau
    mass = w.sum()
    loss = (w * per_sample).sum()
    expected = (m_num @ w_col).reshape((n,)) / den
    grad_theta = (w * (expected - pos)).sum() * (1.0 / tau)
    return mass, loss, grad_theta


# ---------------------------------------------------------------------------
# representation update (Eq.-style objective over the partition set)


@dataclass
class TraceRow:
    step: int
    partition_count: int
    loss: float
    penalty: float
    lr: float


def _embed_batch_graph(g: Graph, images_nchw: np.ndarray, params: dict[str, np.ndarray], enc_cfg: EncoderConfig) -> Var:
    refs = bind_params(g, params)
    x = g.input("images", images_nchw.shape)
    return project_head(g, conv_stack(g, x, refs, enc_cfg), refs, enc_cfg)


def _objective_graph(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    nchw: np.ndarray,
    pattern: tuple[str, ...],
    tau: float,
    lambda1: float,
) -> tuple[Graph, Var | None, list[Var], list[Var]]:
    """The training objective's graph for one batch shape and subset
    pattern: (graph, total, loss nodes, penalty nodes).

    `pattern` holds, per partition and subset in order, "empty" (skipped),
    "whole" (the subset is the batch: loss only) or "split"; the membership
    weights of pattern entry i are the input named f"w{i}".
    """
    bsz = nchw.shape[0] // 2
    g = Graph()
    z = _embed_batch_graph(g, nchw, params, enc_cfg)
    za = z.gather(np.arange(bsz))
    zb = z.gather(np.arange(bsz, 2 * bsz))
    maps = _contrastive_maps(za, zb, tau)
    total = None
    loss_nodes: list[Var] = []
    pen_nodes: list[Var] = []
    for i, kind in enumerate(pattern):
        if kind == "empty":
            continue
        mass, loss_node, grad_theta = _subset_sums(maps, g.input(f"w{i}", (bsz,)), bsz, tau)
        loss_nodes.append(loss_node)
        if kind == "whole":
            # one environment on this batch: no invariance to enforce
            total = loss_node if total is None else total + loss_node
            continue
        pen_node = grad_theta * grad_theta / mass
        term = loss_node + lambda1 * pen_node
        total = term if total is None else total + term
        pen_nodes.append(pen_node)
    return g, total, loss_nodes, pen_nodes


def update_representation(
    params: dict[str, np.ndarray],
    enc_cfg: EncoderConfig,
    partitions: list[np.ndarray],
    batch_stream,
    config: IpIrmConfig,
    lr: float,
    lambda1: float,
    step_offset: int = 0,
) -> list[TraceRow]:
    """One optimizer step per batch on sum over partitions and subsets of
    loss + lambda1 * penalty, the penalty being the squared summed
    theta-derivative over the subset size; a subset holding the whole
    batch adds its loss only. Empty subset terms are skipped and logged.

    One graph is built per (batch shape, subset pattern) and replayed for
    every batch with that key, fed the batch's images and membership
    weights; `sgd_step` updates in place the parameter arrays it references.

    Each partition is a 1-D bool mask over the pretraining set: a batch's
    first subset is where `mask[sample_indices]` is True, its second where
    it is False. `batch_stream` yields (sample_indices, view_a, view_b)
    with views as (B, S, S) image batches. Mutates `params`; returns
    trace rows.
    """
    for i, mask in enumerate(partitions):
        # an int 0/1 mask would index the same, but ~ would make it -1/-2 weights
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.ndim == 1):
            got = f"{mask.dtype} array of shape {mask.shape}" if isinstance(mask, np.ndarray) else type(mask).__name__
            raise ValueError(f"partitions[{i}] must be a 1-D bool mask, got {got}")
    trace: list[TraceRow] = []
    graphs: dict[tuple, tuple] = {}
    step = step_offset
    for indices, view_a, view_b in batch_stream:
        nchw = np.concatenate([to_nchw(view_a, enc_cfg), to_nchw(view_b, enc_cfg)]).astype(params["conv0_w"].dtype)
        feeds = {"images": nchw}
        pattern = []
        for p_idx, mask in enumerate(partitions):
            in_first = mask[indices]
            for k, member in enumerate((in_first, ~in_first)):
                weights = member.astype(np.float64)
                if not weights.any():
                    log.debug("step %d: partition %d subset %d empty on this batch, skipped", step, p_idx, k)
                    pattern.append("empty")
                    continue
                feeds[f"w{len(pattern)}"] = weights
                pattern.append("whole" if weights.all() else "split")
        key = (nchw.shape, tuple(pattern))
        if key not in graphs:
            graphs[key] = _objective_graph(params, enc_cfg, nchw, key[1], config.tau, lambda1)
        g, total, loss_val_nodes, pen_val_nodes = graphs[key]
        if total is None:
            raise ValueError("every partition degenerate on this batch; nothing to optimize")

        forward_eval(g, feeds)
        loss_sum = float(sum(n.value for n in loss_val_nodes))
        pen_sum = float(sum(n.value for n in pen_val_nodes))
        obj = float(total.value)
        if not np.isfinite(obj):
            raise FloatingPointError(
                f"non-finite pretraining objective at step {step}: loss={loss_sum}, penalty={pen_sum}"
            )
        grads = backward(g, total)
        sgd_step(params, grads, lr=lr, weight_decay=config.weight_decay)
        trace.append(TraceRow(step, len(partitions), loss_sum, pen_sum, lr))
        step += 1
    return trace


# ---------------------------------------------------------------------------
# partition search


def _partition_maps(za: np.ndarray, zb: np.ndarray, tau: float) -> tuple[np.ndarray, ...]:
    """The contrastive maps (M_den, M_num, s_pos) of fixed embeddings,
    evaluated once, in float64, on a forward-only graph. Non-finite
    embeddings are an error, and so is a tau at which the maps' 2n-term
    denominators could overflow: the config's floor covers only a batch."""
    za, zb = np.asarray(za, dtype=np.float64), np.asarray(zb, dtype=np.float64)
    for name, z in (("za", za), ("zb", zb)):
        if not np.isfinite(z).all():
            raise ValueError(f"{name} has non-finite entries")
    n = za.shape[0]
    tau_floor = _tau_floor(2 * n)
    if tau < tau_floor:
        raise ValueError(
            f"tau {tau!r} is below {tau_floor!r}, where 2 * n * exp(1 / tau) overflows float64 "
            f"for the partition search's n = {n} samples"
        )
    g = Graph(forward_only=True)
    maps = _contrastive_maps(g.constant(za), g.constant(zb), tau)
    forward_eval(g)
    return tuple(m.value for m in maps)


def _partition_objective_graph(
    g: Graph, w1: Var, maps: tuple[np.ndarray, ...], lambda2: float, tau: float
) -> Var:
    """Graph node for the partition objective at membership weights w1 (first
    subset) and 1 - w1 (second): per subset, the membership-weighted mean
    contrastive loss + lambda2 * (weighted mean theta-derivative)^2. At 0/1
    weights it is the hard objective of that partition; a weight vector
    with all its mass in one subset leaves the other's mean undefined.

    The embeddings are fixed, so `maps` are `_partition_maps`, built once
    per search and shared by its relaxation and every hard objective; they
    enter this graph as constants.
    """
    n = maps[0].shape[0]
    maps = tuple(g.constant(m) for m in maps)
    obj = None
    for w in (w1, 1.0 - w1):
        mass, loss, grad_theta = _subset_sums(maps, w, n, tau)
        loss = loss / mass
        grad_theta = grad_theta / mass
        term = loss + lambda2 * grad_theta * grad_theta
        obj = term if obj is None else obj + term
    return obj


def _hard_objective(maps: tuple[np.ndarray, ...], in_first: np.ndarray, lambda2: float, tau: float) -> float:
    """The partition objective at the 0/1 weights of mask `in_first`."""
    g = Graph(forward_only=True)
    obj = _partition_objective_graph(g, g.constant(in_first.astype(np.float64)), maps, lambda2, tau)
    forward_eval(g)
    return float(obj.value)


def eval_partition_objective(
    za: np.ndarray, zb: np.ndarray, in_first: np.ndarray, lambda2: float, tau: float
) -> float:
    """Hard objective of a candidate partition: sum over both subsets of the
    per-sample mean contrastive loss + lambda2 * (mean theta-derivative)^2,
    the relaxation of find_partition_embeddings at hard 0/1 weights.
    Degenerate partitions are invalid. Builds the maps of (za, zb) for
    this one call; the search builds them once and scores its candidates
    through the same objective builder.
    """
    in_first = np.asarray(in_first, dtype=bool)
    n = np.shape(za)[0]
    if in_first.shape != (n,):
        raise ValueError(f"mask of shape {in_first.shape} does not cover {n} samples")
    if in_first.all() or not in_first.any():
        raise ValueError("degenerate partition: one subset is empty")
    return _hard_objective(_partition_maps(za, zb, tau), in_first, lambda2, tau)


_ADAM_B1, _ADAM_B2 = 0.9, 0.999


def find_partition_embeddings(
    za: np.ndarray, zb: np.ndarray, config: IpIrmConfig, rng: SeededRng
) -> np.ndarray:
    """Search for the partition maximizing the subset objective; returns it
    as a bool mask over the n samples, True for the first subset.

    Per-sample logits are optimized by gradient ascent on a soft relaxation
    with the embeddings fixed, hardened by thresholding (ties to the first
    subset); the best hardened candidate across restarts wins by the exact
    hard objective, which is the relaxation at 0/1 weights. The relaxation
    uses membership-weighted per-subset means: the summed form grows with
    subset size, so its unconstrained maximum is the degenerate all-in-one
    corner, while the mean form keeps the ascent inside the valid region.
    Each logit's gradient through a mean scales like 1/n, so the ascent
    is Adam (per-coordinate step about `partition_lr` whatever n is).
    A candidate that hardens into one subset has its least-committed sample
    moved across, so both subsets of the result are nonempty; if no
    candidate scores above -inf, the search errors.
    """
    n = np.shape(za)[0]
    if n < 2:
        raise ValueError("partition search needs at least 2 samples")

    maps = _partition_maps(za, zb, config.tau)
    logits_val = np.zeros(n)
    g = Graph()
    logits = g.parameter("logits", logits_val)
    obj = _partition_objective_graph(g, logits.sigmoid(), maps, config.lambda2, config.tau)
    best_obj = -np.inf
    best_mask: np.ndarray | None = None
    for restart in range(config.partition_restarts):
        gen = rng.child(restart).generator()
        logits_val[:] = gen.normal(size=n) * 0.5
        first = np.zeros(n)
        second = np.zeros(n)
        for t in range(1, config.partition_steps + 1):
            forward_eval(g)
            grad = backward(g, obj)["logits"]
            first = _ADAM_B1 * first + (1.0 - _ADAM_B1) * grad
            second = _ADAM_B2 * second + (1.0 - _ADAM_B2) * grad * grad
            m_hat = first / (1.0 - _ADAM_B1**t)
            v_hat = second / (1.0 - _ADAM_B2**t)
            logits_val += config.partition_lr * m_hat / (np.sqrt(v_hat) + 1e-12)
            # sigmoid saturates far earlier; keeps every weight, so each
            # subset's mass and weighted denominators, above 0
            np.clip(logits_val, -30.0, 30.0, out=logits_val)
        in_first = 1.0 / (1.0 + np.exp(-logits_val)) >= 0.5
        if in_first.all() or (~in_first).all():
            # salvage instead of discarding: move the least-committed sample
            # across so tie-like instances still yield a valid partition
            flip = int(np.argmin(np.abs(logits_val)))
            in_first[flip] = not in_first[flip]
            log.debug("partition restart %d hardened degenerate; flipped sample %d", restart, flip)
        hard_obj = _hard_objective(maps, in_first, config.lambda2, config.tau)
        if hard_obj > best_obj:
            best_obj = hard_obj
            best_mask = in_first
    if best_mask is None:
        raise ValueError("all candidate partitions degenerate")
    return best_mask


# ---------------------------------------------------------------------------
# pretraining driver


def _embed_dataset(images: np.ndarray, params: dict[str, np.ndarray], enc_cfg: EncoderConfig) -> np.ndarray:
    nchw = to_nchw(images, enc_cfg).astype(params["conv0_w"].dtype)
    g = Graph(forward_only=True)
    z = _embed_batch_graph(g, nchw, params, enc_cfg)
    forward_eval(g, {"images": nchw})
    return z.value


PRETRAIN_MODES = ("simclr", "ipirm")


def pretrain(
    mode: str,
    images: np.ndarray,
    config: IpIrmConfig,
    enc_cfg: EncoderConfig,
    rng: SeededRng,
    init: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], list[np.ndarray], list[TraceRow]]:
    """Full pretraining: a training phase, then (search + train) rounds.

    simclr mode forces lambda1 = 0 and zero search rounds, which is exactly
    the ipirm path restricted to the trivial partition (every image in the
    first subset). Training starts from a copy of `init`, in its dtype.
    Returns the trained params, the grown partition set as bool masks over
    `images`, and the per-step trace.
    """
    if mode not in PRETRAIN_MODES:
        raise ValueError(f"unknown pretrain mode {mode!r}")
    images = np.asarray(images)
    n = images.shape[0]
    if n < 2:
        raise ValueError(f"pretraining needs at least 2 images for a contrastive term, got {n}")

    lambda1 = 0.0 if mode == "simclr" else config.lambda1
    n_outer = 0 if mode == "simclr" else config.outer_iterations
    total_epochs = (n_outer + 1) * config.epochs_per_iter

    params = {k: v.copy() for k, v in init.items()}
    partitions = [np.ones(n, dtype=bool)]
    trace: list[TraceRow] = []
    epoch = 0
    step = 0

    def batches(epoch_idx: int):
        for b_start, idx in minibatches(n, config.batch_size, rng.child(10_000 + epoch_idx)):
            va, vb = augment_views(
                images[idx], config.augment, rng.child(20_000 + epoch_idx).child(b_start)
            )
            yield idx, va, vb

    def train_phase() -> float:
        nonlocal epoch, step
        phase_obj = 0.0
        phase_steps = 0
        for _ in range(config.epochs_per_iter):
            lr = cosine_lr(config.base_lr, epoch, total_epochs)
            rows = update_representation(
                params, enc_cfg, partitions, batches(epoch), config, lr, lambda1, step_offset=step
            )
            trace.extend(rows)
            step += len(rows)
            phase_obj += sum(r.loss + lambda1 * r.penalty for r in rows)
            phase_steps += len(rows)
            epoch += 1
        return phase_obj / max(1, phase_steps)

    prev_obj = train_phase()
    for outer in range(n_outer):
        va, vb = augment_views(images, config.augment, rng.child(30_000 + outer))
        za = _embed_dataset(va, params, enc_cfg)
        zb = _embed_dataset(vb, params, enc_cfg)
        partition = find_partition_embeddings(za, zb, config, rng.child(40_000 + outer))
        partitions.append(partition)
        cur_obj = train_phase()
        rel_change = abs(cur_obj - prev_obj) / max(1.0, abs(prev_obj))
        if rel_change < config.tolerance:
            log.info("pretrain converged after %d searches (relative change %.2e)", outer + 1, rel_change)
            break
        prev_obj = cur_obj
    return params, partitions, trace


def write_trace_csv(path: str, trace: list[TraceRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("iter,partition_count,loss,penalty,lr\n")
        for row in trace:
            f.write(f"{row.step},{row.partition_count},{row.loss:.10g},{row.penalty:.10g},{row.lr:.10g}\n")
