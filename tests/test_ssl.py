"""Contrastive loss, invariance penalty, partition machinery, pretraining."""

import functools
import itertools
import logging
import warnings

import numpy as np
import pytest

from metabdc.config import ExperimentConfig
from metabdc.core import Graph, SeededRng, backward, forward_eval
from metabdc.encoder import EncoderConfig, init_params
from metabdc.experiment import prepare_splits
from metabdc.optim import lr_from_batch
from metabdc import ssl as ssl_module
from metabdc.ssl import (
    AugmentConfig,
    IDENTITY_AUGMENT,
    IpIrmConfig,
    _contrastive_maps,
    _embed_dataset,
    _hard_objective,
    _partition_maps,
    _partition_objective_graph,
    _subset_sums,
    augment_views,
    eval_partition_objective,
    find_partition_embeddings,
    pretrain,
    update_representation,
    write_trace_csv,
)
from fresh_interpreter import traced_numbers
from gradcheck import grad_check
from oracles import (
    augment_views_oracle,
    complex_theta_grad,
    contrastive_maps_eye_graph,
    contrastive_oracle,
    subset_terms,
    unit_rows,
    weighted_partition_objective,
)

TINY = EncoderConfig(size=8, stages=((3, 3, 2), (4, 3, 2)), proj_hidden=5, proj_dim=4)


@functools.lru_cache(maxsize=1)
def study_train_images() -> np.ndarray:
    """The 256 pretraining images of the default (directional-study) config."""
    return prepare_splits(ExperimentConfig(), "same").train.pixels


def embedding_spread(z: np.ndarray) -> float:
    """Root mean squared distance of unit rows from their mean: 0 when every
    row is the same vector, about 1 when the rows are spread over the sphere."""
    return float(np.sqrt(np.mean(np.sum((z - z.mean(axis=0)) ** 2, axis=1))))


def random_views(seed, n=6, p=4):
    gen = np.random.default_rng(seed)
    return unit_rows(gen, n, p), unit_rows(gen, n, p)


def flat_views(n):
    """Every row the same unit vector: all similarities equal."""
    v = np.zeros((n, 4))
    v[:, 0] = 1.0
    return v, v.copy()


# ---------------------------------------------------------------------------
# augmentation


def test_augment_identity_returns_exact_copies():
    imgs = np.random.default_rng(0).normal(size=(3, 8, 8))
    va, vb = augment_views(imgs, IDENTITY_AUGMENT, SeededRng(1))
    np.testing.assert_array_equal(va, imgs)
    np.testing.assert_array_equal(vb, imgs)
    assert va is not imgs


def test_augment_deterministic_given_rng():
    imgs = np.random.default_rng(2).normal(size=(4, 16, 16))
    cfg = AugmentConfig()
    a1, b1 = augment_views(imgs, cfg, SeededRng(7))
    a2, b2 = augment_views(imgs, cfg, SeededRng(7))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    a3, _ = augment_views(imgs, cfg, SeededRng(8))
    assert not np.array_equal(a1, a3)


def test_augment_views_differ_and_keep_shape():
    imgs = np.random.default_rng(3).normal(size=(5, 32, 32))
    va, vb = augment_views(imgs, AugmentConfig(crop_scale=(0.6, 1.0)), SeededRng(9))
    assert va.shape == imgs.shape and vb.shape == imgs.shape
    assert not np.array_equal(va, vb)


def test_augment_ramp_adds_a_bounded_plane():
    imgs = np.random.default_rng(4).normal(size=(6, 16, 16))
    cfg = AugmentConfig(crop_scale=(1.0, 1.0), gain=(1.0, 1.0), bias=(0.0, 0.0), rotation=0.0, ramp=1.5)
    va, vb = augment_views(imgs, cfg, SeededRng(10))
    ax = np.linspace(-1.0, 1.0, 16)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    design = np.stack([xx.ravel(), yy.ravel()], axis=1)
    for view in (va, vb):
        for diff in (view - imgs):
            coef, *_ = np.linalg.lstsq(design, diff.ravel(), rcond=None)
            np.testing.assert_allclose(design @ coef, diff.ravel(), atol=1e-9)
            assert 0.0 < np.hypot(*coef) <= 1.5


@pytest.mark.parametrize(
    "config, shape, seeds",
    [
        (AugmentConfig(), (4, 16, 16), 50),
        (AugmentConfig(), (3, 12, 20), 50),
        (AugmentConfig(crop_scale=(1.0, 1.0)), (4, 16, 16), 50),  # turned full frames clip at the last index
        (AugmentConfig(crop_scale=(1.0, 1.0)), (3, 20, 12), 50),
        (AugmentConfig(), (33, 16, 16), 50),  # one image past a 32-image block
        (AugmentConfig(), (256, 16, 16), 5),  # a whole study pretraining set
    ],
    ids=["default", "wide", "full-frame-turned", "tall-full-frame-turned", "one-past-a-block", "whole-set"],
)
def test_augment_views_keep_the_bytes_of_the_fancy_index_sample(config, shape, seeds):
    """Both views are byte-equal to the three-array fancy-index bilinear
    sample, which draws and samples the whole batch at once, on square and
    non-square float32 images and on batches of one, two and eight
    32-image blocks."""
    for seed in range(seeds):
        imgs = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        got = augment_views(imgs, config, SeededRng(100 + seed))
        want = augment_views_oracle(imgs, config, SeededRng(100 + seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), seed


def test_augment_rejections():
    with pytest.raises(ValueError):
        AugmentConfig(crop_scale=(0.5, 1.2))
    with pytest.raises(ValueError):
        AugmentConfig(crop_scale=(0.0, 0.5))
    with pytest.raises(ValueError):
        AugmentConfig(rotation=-0.1)
    with pytest.raises(ValueError):
        AugmentConfig(ramp=-0.1)
    with pytest.raises(ValueError):
        augment_views(np.zeros((0, 8, 8)), IDENTITY_AUGMENT, SeededRng(0))
    with pytest.raises(ValueError):
        augment_views(np.zeros((2, 8, 8, 3)), IDENTITY_AUGMENT, SeededRng(0))


# ---------------------------------------------------------------------------
# configuration


def test_ipirm_config_validation():
    with pytest.raises(ValueError):
        IpIrmConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        IpIrmConfig(tau=0.0)
    with pytest.raises(ValueError):
        IpIrmConfig(partition_steps=0)
    for field, bad in (
        ("batch_size", 1),
        ("epochs_per_iter", 0),
        ("outer_iterations", -1),
        ("partition_lr", -0.1),
        ("tolerance", -1e-3),
        ("base_lr", 0.0),
    ):
        with pytest.raises(ValueError, match=f"^{field} "):
            IpIrmConfig(**{field: bad})


@pytest.mark.parametrize("batch_size", [6, 32])
def test_tau_floor_keeps_the_contrastive_maps_finite(batch_size):
    """The maps hold exp(s / tau) unshifted in float64 and a denominator sums
    up to 2 * batch_size of them, so the floor is where that sum reaches the
    float64 maximum: a tau just above it trains a split-partition step on
    identical images (every similarity 1), one just below is rejected."""
    floor = 1.0 / (np.log(np.finfo(np.float64).max) - np.log(2 * batch_size))
    with pytest.raises(ValueError, match="^tau "):
        IpIrmConfig(tau=floor * (1 - 1e-9), batch_size=batch_size)
    cfg = IpIrmConfig(tau=floor * (1 + 1e-9), batch_size=batch_size)
    images = np.repeat(np.random.default_rng(5).normal(size=(1, 8, 8)), batch_size, axis=0)
    params = init_params(TINY, SeededRng(3))
    partitions = [np.ones(batch_size, dtype=bool), np.arange(batch_size) % 2 == 0]
    trace = update_representation(
        params, TINY, partitions, [(np.arange(batch_size), images, images)], cfg, lr=0.01, lambda1=0.2
    )
    assert len(trace) == 1 and np.isfinite(trace[0].loss) and np.isfinite(trace[0].penalty)
    assert all(np.isfinite(v).all() for v in params.values())


# ---------------------------------------------------------------------------
# contrastive loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_contrastive_maps_equal_the_identity_mask_form_bit_for_bit(dtype):
    """The diagonal ops give the values of the identity-mask products they
    replace, and the same gradients into both views through a training
    objective, on float32 views as training feeds them and float64 as the
    search does. In float32 the masked products were float64, so the
    gradient into the picked diagonal arrives in float64: forming it in the
    view's dtype would round it."""
    gen = np.random.default_rng(67)
    tau = 0.5
    for n in (2, 5, 32):
        za, zb = (unit_rows(gen, n, 4).astype(dtype) for _ in range(2))
        w = gen.uniform(0.1, 1.0, size=n)
        values, grads = [], []
        for with_masks in (True, False):
            g = Graph()
            a, b = g.parameter("za", za), g.parameter("zb", zb)
            maps = contrastive_maps_eye_graph(g, a, b, n, tau) if with_masks else _contrastive_maps(a, b, tau)
            mass, loss, grad_theta = _subset_sums(maps, g.constant(w), n, tau)
            total = loss + 0.2 * grad_theta * grad_theta / mass
            forward_eval(g)
            values.append([m.value for m in maps])
            grads.append(backward(g, total))
        for old, new in zip(*values):
            assert np.array_equal(new, old), (dtype, n)
        for name in ("za", "zb"):
            assert grads[1][name].dtype == grads[0][name].dtype
            assert np.array_equal(grads[1][name], grads[0][name]), (dtype, n, name)


def test_contrastive_uniform_similarities():
    za, zb = flat_views(5)
    loss, _ = subset_terms(za, zb, np.arange(4), tau=0.5)  # the fifth row is outside the subset
    assert loss == pytest.approx(4 * np.log(2 * 4 - 1), rel=1e-12)


def test_contrastive_matches_direct_oracle():
    for seed in range(8):
        za, zb = random_views(seed, n=6)
        ids = np.array([0, 0, 1, 0, 1, 0])
        for k in (0, 1):
            members = np.flatnonzero(ids == k)
            got, _ = subset_terms(za, zb, members, tau=0.5)
            assert abs(got - contrastive_oracle(za, zb, members, 1.0, 0.5)) <= 1e-10


def test_contrastive_nonnegative():
    for seed in range(5):
        za, zb = random_views(100 + seed, n=7)
        assert subset_terms(za, zb, np.arange(7), tau=0.5)[0] >= 0.0


def test_contrastive_errors():
    """The hard partition objective rejects a subset that is empty or a mask
    that does not cover the batch."""
    za, zb = random_views(1, n=4)
    for mask in (np.ones(4, dtype=bool), np.zeros(4, dtype=bool), np.array([True, False, True])):
        with pytest.raises(ValueError):
            eval_partition_objective(za, zb, mask, lambda2=0.5, tau=0.5)


def test_loss_invariant_under_member_permutation():
    gen = np.random.default_rng(13)
    za, zb = unit_rows(gen, 6, 4), unit_rows(gen, 6, 4)
    base, _ = subset_terms(za, zb, np.arange(6), 0.5)
    perm = gen.permutation(6)
    shuffled, _ = subset_terms(za[perm], zb[perm], np.arange(6), 0.5)
    assert abs(base - shuffled) <= 1e-12


# ---------------------------------------------------------------------------
# invariance penalty


def test_penalty_zero_for_uniform_similarities():
    za, zb = flat_views(4)
    assert subset_terms(za, zb, np.arange(4), tau=0.5)[1] == pytest.approx(0.0, abs=1e-20)


def test_penalty_matches_central_fd_squared():
    h = 1e-5
    for seed in range(20):
        za, zb = random_views(200 + seed, n=6)
        members = np.arange(6)
        _, pen = subset_terms(za, zb, members, tau=0.5)
        lo = contrastive_oracle(za, zb, members, 1.0 - h, 0.5)
        hi = contrastive_oracle(za, zb, members, 1.0 + h, 0.5)
        fd = ((hi - lo) / (2 * h)) ** 2
        assert abs(pen - fd) / max(1.0, abs(fd)) <= 1e-6


def test_penalty_nonnegative_and_zero_iff_flat():
    for seed in range(5):
        za, zb = random_views(17 + seed, n=5)
        assert subset_terms(za, zb, np.arange(5), tau=0.5)[1] > 0.0
    za, zb = flat_views(5)
    assert subset_terms(za, zb, np.arange(5), tau=0.5)[1] == pytest.approx(0.0, abs=1e-20)


def test_penalty_invariant_under_view_swap_with_symmetric_similarities():
    gen = np.random.default_rng(19)
    za = unit_rows(gen, 6, 5)
    u = gen.normal(size=5)
    u /= np.linalg.norm(u)
    reflect = np.eye(5) - 2.0 * np.outer(u, u)  # symmetric orthogonal
    zb = za @ reflect
    _, pen = subset_terms(za, zb, np.arange(6), tau=0.5)
    _, pen_swapped = subset_terms(zb, za, np.arange(6), tau=0.5)
    assert pen_swapped == pytest.approx(pen, rel=1e-12)


def test_theta_grad_matches_complex_step():
    for seed in range(6):
        za, zb = random_views(300 + seed, n=7)
        _, pen = subset_terms(za, zb, np.arange(7), tau=0.5)
        want = complex_theta_grad(za, zb, np.arange(7), 0.5) ** 2
        assert abs(pen - want) <= 1e-10 * max(1.0, want)


# ---------------------------------------------------------------------------
# representation update


def _single_batch_stream(images, seed, n):
    gen = np.random.default_rng(seed)
    va = images + 0.02 * gen.normal(size=images.shape)
    vb = images + 0.02 * gen.normal(size=images.shape)
    return [(np.arange(n), va, vb)]


def test_update_trivial_lambda0_equals_plain_simclr_loss():
    n = 5
    gen = np.random.default_rng(23)
    images = gen.normal(size=(n, 8, 8))
    params = init_params(TINY, SeededRng(31), dtype=np.float64)
    cfg = IpIrmConfig()
    stream = _single_batch_stream(images, 37, n)
    _, va, vb = stream[0]
    za = _embed_dataset(va, params, TINY)
    zb = _embed_dataset(vb, params, TINY)
    expect = contrastive_oracle(za, zb, np.arange(n), 1.0, cfg.tau)

    trace = update_representation(params, TINY, [np.ones(n, dtype=bool)], stream, cfg, lr=0.0, lambda1=0.0)
    assert len(trace) == 1
    assert abs(trace[0].loss - expect) <= 1e-12
    assert trace[0].penalty >= 0.0


def test_update_two_subset_trace_matches_oracle():
    """With a split partition and lambda1 > 0, the trace's loss is the sum of
    every subset's literal loss and its penalty the sum over the split's two
    subsets of the squared complex-step derivative over the subset size."""
    n = 6
    gen = np.random.default_rng(127)
    images = gen.normal(size=(n, 8, 8))
    params = init_params(TINY, SeededRng(131), dtype=np.float64)
    stream = _single_batch_stream(images, 137, n)
    _, va, vb = stream[0]
    za = _embed_dataset(va, params, TINY)
    zb = _embed_dataset(vb, params, TINY)
    mask = np.array([True, False, False, True, True, False])
    cfg = IpIrmConfig()
    split = [np.flatnonzero(mask), np.flatnonzero(~mask)]
    want_loss = sum(contrastive_oracle(za, zb, m, 1.0, cfg.tau) for m in [np.arange(n), *split])
    want_pen = sum(complex_theta_grad(za, zb, m, cfg.tau) ** 2 / m.size for m in split)

    partitions = [np.ones(n, dtype=bool), mask]
    trace = update_representation(params, TINY, partitions, stream, cfg, lr=0.0, lambda1=0.3)
    assert len(trace) == 1 and trace[0].partition_count == 2
    assert abs(trace[0].loss - want_loss) <= 1e-10
    assert want_pen > 0.0
    assert abs(trace[0].penalty - want_pen) <= 1e-10


def test_update_replays_one_graph_per_batch_pattern_with_the_bytes_of_fresh_builds(monkeypatch):
    """A stream whose subset pattern changes from batch to batch (a split
    partition's batch wholly in one subset, wholly in the other, or split;
    one short batch) gives the same params and trace rows, byte for byte,
    as one call per batch, which builds a fresh graph every step. The one
    call builds one graph per (batch size, pattern)."""
    n = 8
    gen = np.random.default_rng(139)
    images = gen.normal(size=(n, 8, 8)).astype(np.float32)
    partitions = [np.ones(n, dtype=bool), np.arange(n) < 4]
    batches = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7], [1, 2, 3, 0], [0, 4, 6]]
    stream = []
    for idx in map(np.array, batches):
        va = images[idx] + 0.05 * gen.normal(size=(idx.size, 8, 8)).astype(np.float32)
        vb = images[idx] + 0.05 * gen.normal(size=(idx.size, 8, 8)).astype(np.float32)
        stream.append((idx, va, vb))
    cfg = IpIrmConfig()
    init = init_params(TINY, SeededRng(149), dtype=np.float32)

    builds = []
    real_build = ssl_module._objective_graph
    monkeypatch.setattr(
        ssl_module, "_objective_graph", lambda *args: builds.append(args[3]) or real_build(*args)
    )
    replayed = {k: v.copy() for k, v in init.items()}
    trace = update_representation(replayed, TINY, partitions, stream, cfg, lr=0.05, lambda1=0.3)
    assert len(builds) == 4 and len(set(builds)) == 3  # the short batch has a split's pattern

    fresh = {k: v.copy() for k, v in init.items()}
    fresh_trace = []
    for step, batch in enumerate(stream):
        fresh_trace += update_representation(fresh, TINY, partitions, [batch], cfg, lr=0.05, lambda1=0.3, step_offset=step)
    assert len(builds) == 4 + len(stream)
    assert trace == fresh_trace and len(trace) == len(stream)
    assert trace[2].penalty > 0.0 and trace[0].penalty == 0.0
    for name in init:
        assert replayed[name].tobytes() == fresh[name].tobytes(), name
        assert not np.array_equal(replayed[name], init[name]), name


def test_update_zero_lr_leaves_params():
    n = 4
    images = np.random.default_rng(41).normal(size=(n, 8, 8))
    params = init_params(TINY, SeededRng(43), dtype=np.float64)
    before = {k: v.copy() for k, v in params.items()}
    update_representation(
        params, TINY, [np.ones(n, dtype=bool)], _single_batch_stream(images, 47, n), IpIrmConfig(), lr=0.0, lambda1=0.2
    )
    for k in params:
        np.testing.assert_array_equal(params[k], before[k])


@pytest.mark.parametrize(
    "bad", [np.arange(4) % 2, np.ones((4, 1), dtype=bool)], ids=["int-zero-one", "two-dimensional-bool"]
)
def test_update_rejects_a_partition_that_is_not_a_1d_bool_mask(bad):
    # an int 0/1 mask indexes like a bool one, but its complement ~ is -1/-2
    n = 4
    images = np.random.default_rng(41).normal(size=(n, 8, 8))
    params = init_params(TINY, SeededRng(43), dtype=np.float64)
    with pytest.raises(ValueError, match=r"^partitions\[1\] "):
        update_representation(
            params, TINY, [np.ones(n, dtype=bool), bad], _single_batch_stream(images, 47, n), IpIrmConfig(), lr=0.0, lambda1=0.2
        )


def test_update_step_decreases_loss_in_most_seeds():
    # wider projection head than TINY: with very few hidden units a sample
    # can have every relu dead at init, parking its projection on the
    # normalization guard where the loss is cliff-like and descent claims
    # do not hold; gradient norms here are ~50, so the step must be small
    wide = EncoderConfig(size=8, stages=((3, 3, 2), (4, 3, 2)), proj_hidden=16, proj_dim=4)
    n = 6
    cfg = IpIrmConfig()
    wins = 0
    for seed in range(20):
        images = np.random.default_rng(1000 + seed).normal(size=(n, 8, 8))
        params = init_params(wide, SeededRng(seed), dtype=np.float64)
        stream = _single_batch_stream(images, 2000 + seed, n)
        before = update_representation(params, wide, [np.ones(n, dtype=bool)], stream, cfg, lr=3e-4, lambda1=0.0)
        after = update_representation(params, wide, [np.ones(n, dtype=bool)], stream, cfg, lr=0.0, lambda1=0.0)
        if after[0].loss < before[0].loss:
            wins += 1
    assert wins >= 18, f"loss decreased in only {wins}/20 seeds"


def test_update_skips_empty_subset_and_logs(caplog):
    n = 4
    images = np.random.default_rng(53).normal(size=(n, 8, 8))
    params = init_params(TINY, SeededRng(59), dtype=np.float64)
    ps = [np.ones(n, dtype=bool)]  # trivial partition: subset 1 is always empty
    with caplog.at_level(logging.DEBUG, logger="metabdc.ssl"):
        trace = update_representation(
            params, TINY, ps, _single_batch_stream(images, 61, n), IpIrmConfig(), lr=0.01, lambda1=0.2
        )
    assert len(trace) == 1
    assert any("skipped" in r.message for r in caplog.records)


def test_update_non_finite_loss_aborts():
    n = 4
    images = np.random.default_rng(67).normal(size=(n, 8, 8))
    params = init_params(TINY, SeededRng(71), dtype=np.float64)
    params["proj_w2"][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        update_representation(
            params, TINY, [np.ones(n, dtype=bool)], _single_batch_stream(images, 73, n), IpIrmConfig(), lr=0.01, lambda1=0.0
        )


# ---------------------------------------------------------------------------
# partition search


def make_cluster_instance(seed, sizes=(4, 4), noise=0.1, antipodal=True):
    """Two embedding clusters separated by a nuisance offset along dim 0."""
    gen = np.random.default_rng(seed)
    n = sum(sizes)
    centers = np.zeros((2, 6))
    centers[0, 0] = 1.0
    centers[1, 0] = -1.0 if antipodal else 0.0
    if not antipodal:
        centers[1, 1] = 1.0
    cids = np.array([0] * sizes[0] + [1] * sizes[1])
    raw = centers[cids] + noise * gen.normal(size=(n, 6))
    za = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rawb = raw + 0.05 * gen.normal(size=(n, 6))
    zb = rawb / np.linalg.norm(rawb, axis=1, keepdims=True)
    return za, zb, cids


def exhaustive_best(za, zb, lambda2, tau):
    n = za.shape[0]
    best, best_mask = -np.inf, None
    for bits in itertools.product([0, 1], repeat=n):
        mask = np.array(bits, dtype=bool)
        if mask.all() or (~mask).all():
            continue
        val = eval_partition_objective(za, zb, mask, lambda2, tau)
        if val > best:
            best, best_mask = val, mask
    return best, best_mask


def test_search_attains_95pct_of_exhaustive():
    cfg = IpIrmConfig()
    for seed in range(3):
        za, zb, _ = make_cluster_instance(seed, sizes=(5, 3) if seed % 2 else (4, 4), noise=0.1 + 0.04 * seed)
        best, _ = exhaustive_best(za, zb, cfg.lambda2, cfg.tau)
        found = find_partition_embeddings(za, zb, cfg, SeededRng(900 + seed))
        got = eval_partition_objective(za, zb, found, cfg.lambda2, cfg.tau)
        assert got >= 0.95 * best, f"seed {seed}: {got} < 0.95 * {best}"


def test_search_recovers_two_nuisance_clusters():
    cfg = IpIrmConfig()
    za, zb, cids = make_cluster_instance(0, sizes=(4, 4), noise=0.1)
    best, best_mask = exhaustive_best(za, zb, cfg.lambda2, cfg.tau)
    # the constructed instance makes the cluster split the exhaustive optimum
    assert (best_mask == (cids == 0)).all() or (best_mask == (cids == 1)).all()
    found = find_partition_embeddings(za, zb, cfg, SeededRng(77))
    assert (found == best_mask).all() or (found == ~best_mask).all()


def test_search_tie_case_returns_valid_partition():
    # n=2: both assignments are singleton subsets with zero loss and penalty
    gen = np.random.default_rng(79)
    za, zb = unit_rows(gen, 2, 4), unit_rows(gen, 2, 4)
    cfg = IpIrmConfig()
    found = find_partition_embeddings(za, zb, cfg, SeededRng(81))
    assert found.dtype == bool and found.shape == (2,) and found.any() and not found.all()
    val = eval_partition_objective(za, zb, found, cfg.lambda2, cfg.tau)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_search_needs_two_samples():
    with pytest.raises(ValueError):
        find_partition_embeddings(np.zeros((1, 4)), np.zeros((1, 4)), IpIrmConfig(), SeededRng(0))


@pytest.mark.parametrize("bad", ["za", "zb"])
@pytest.mark.parametrize("entry", ["search", "objective"])
def test_non_finite_embeddings_are_rejected_naming_the_array(bad, entry):
    gen = np.random.default_rng(89)
    z = {"za": gen.normal(size=(6, 4)), "zb": gen.normal(size=(6, 4))}
    z[bad][2, 1] = np.nan
    with pytest.raises(ValueError, match=f"^{bad} has non-finite entries"):
        if entry == "search":
            find_partition_embeddings(z["za"], z["zb"], IpIrmConfig(), SeededRng(0))
        else:
            eval_partition_objective(z["za"], z["zb"], np.arange(6) < 3, lambda2=0.5, tau=0.5)


def test_partition_search_refuses_a_tau_its_maps_overflow_at():
    """The config's floor covers a batch's 2 * batch_size terms, but the
    search's denominators sum up to 2n. On 256 near-identical unit
    embeddings, a tau just above the batch-32 floor is refused by name
    before any map is built, with no warning; a tau just above the n = 256
    floor scores a finite objective."""
    n = 256
    gen = np.random.default_rng(71)
    z = gen.normal(size=(n, 4)) * 1e-6
    z[:, 0] += 1.0
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    mask = np.arange(n) < n // 2
    floor = {terms: 1.0 / (np.log(np.finfo(np.float64).max) - np.log(terms)) for terms in (64, 2 * n)}
    cfg = IpIrmConfig(tau=floor[64] * 1.0001, batch_size=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^tau .*n = 256 samples"):
            find_partition_embeddings(z, z.copy(), cfg, SeededRng(0))
        with pytest.raises(ValueError, match=r"^tau .*n = 256 samples"):
            eval_partition_objective(z, z.copy(), mask, cfg.lambda2, cfg.tau)
        assert np.isfinite(eval_partition_objective(z, z.copy(), mask, cfg.lambda2, floor[2 * n] * (1 + 1e-9)))


def test_search_deterministic():
    za, zb, _ = make_cluster_instance(5)
    cfg = IpIrmConfig()
    p1 = find_partition_embeddings(za, zb, cfg, SeededRng(83))
    p2 = find_partition_embeddings(za, zb, cfg, SeededRng(83))
    np.testing.assert_array_equal(p1, p2)


def test_search_moves_off_its_start_and_beats_random_partitions_at_training_scale():
    # the 256 study images under the study's initial weights: each logit's
    # gradient through the per-subset means is O(1/n) here, which a fixed-size
    # ascent step does not move past its random start
    exp = ExperimentConfig()
    cfg = exp.ipirm
    images = study_train_images()
    params = init_params(exp.encoder, SeededRng(0).child(1).child(0))
    va, vb = augment_views(images, cfg.augment, SeededRng(1))
    za, zb = _embed_dataset(va, params, exp.encoder), _embed_dataset(vb, params, exp.encoder)
    rng = SeededRng(2)
    found = find_partition_embeddings(za, zb, cfg, rng)
    n = found.size
    for restart in range(cfg.partition_restarts):
        start = rng.child(restart).generator().normal(size=n) >= 0
        moved = float(np.mean(found != start))
        assert 0.1 <= moved <= 0.9, f"restart {restart}: within {min(moved, 1 - moved):.3f} of its start"
    obj = eval_partition_objective(za, zb, found, cfg.lambda2, cfg.tau)
    gen = np.random.default_rng(3)
    beaten = 0
    for _ in range(200):
        mask = np.zeros(n, dtype=bool)
        mask[gen.permutation(n)[: found.sum()]] = True
        beaten += obj > eval_partition_objective(za, zb, mask, cfg.lambda2, cfg.tau)
    assert beaten >= 190, f"search beats only {beaten}/200 random partitions of its size"


def test_partition_objective_matches_independent_oracle():
    """Hard objective vs literal loops + complex-step penalty on n <= 10,
    both taken per sample: subset mean loss + lambda2 * (mean derivative)^2."""
    cfg = IpIrmConfig()
    for seed in range(5):
        gen = np.random.default_rng(400 + seed)
        n = 10
        za, zb = unit_rows(gen, n, 4), unit_rows(gen, n, 4)
        mask = np.zeros(n, dtype=bool)
        mask[gen.permutation(n)[: n // 2 - 1 + seed % 3]] = True
        want = 0.0
        for members in (np.flatnonzero(mask), np.flatnonzero(~mask)):
            want += contrastive_oracle(za, zb, members, 1.0, cfg.tau) / members.size
            want += cfg.lambda2 * (complex_theta_grad(za, zb, members, cfg.tau) / members.size) ** 2
        got = eval_partition_objective(za, zb, mask, cfg.lambda2, cfg.tau)
        assert abs(got - want) <= 1e-9


def test_partition_relaxation_matches_weighted_oracle_at_soft_weights():
    """The search's relaxation at membership weights in (0, 1) vs literal
    loops over the weighted objective, and its logits gradient through the
    sigmoid vs central differences."""
    cfg = IpIrmConfig()
    for seed, n in enumerate((2, 3, 5, 8, 10)):
        gen = np.random.default_rng(700 + seed)
        za, zb = unit_rows(gen, n, 4), unit_rows(gen, n, 4)
        w1 = gen.uniform(0.05, 0.95, size=n)
        maps = _partition_maps(za, zb, cfg.tau)
        g = Graph()
        obj = _partition_objective_graph(g, g.constant(w1), maps, cfg.lambda2, cfg.tau)
        forward_eval(g)
        want = weighted_partition_objective(za, zb, w1, cfg.lambda2, cfg.tau)
        assert abs(float(obj.value) - want) <= 1e-9

        def objective(point):
            g = Graph()
            logits = g.parameter("logits", point["logits"])
            obj = _partition_objective_graph(g, logits.sigmoid(), maps, cfg.lambda2, cfg.tau)
            forward_eval(g)
            return float(obj.value), backward(g, obj)

        assert grad_check(objective, {"logits": gen.normal(size=n)}, eps=1e-6) <= 1e-6


def test_search_builds_its_maps_once_and_scores_with_the_bytes_of_eval_partition_objective(monkeypatch):
    """The search builds its maps once and scores each restart's hardened
    candidate on them; every score equals eval_partition_objective, which
    builds the maps afresh, for the same mask."""
    cfg = IpIrmConfig(partition_restarts=3)
    za, zb = random_views(31, n=24, p=4)
    builds = []
    seen = []

    def count_builds(*args):
        builds.append(args)
        return _partition_maps(*args)

    def spy(maps, in_first, lambda2, tau):
        value = _hard_objective(maps, in_first, lambda2, tau)
        seen.append((in_first.copy(), value))
        return value

    monkeypatch.setattr(ssl_module, "_partition_maps", count_builds)
    monkeypatch.setattr(ssl_module, "_hard_objective", spy)
    find_partition_embeddings(za, zb, cfg, SeededRng(37))
    monkeypatch.undo()
    assert len(builds) == 1
    assert len(seen) == cfg.partition_restarts
    for mask, value in seen:
        assert value == eval_partition_objective(za, zb, mask, cfg.lambda2, cfg.tau)


_WHOLE_SET_PEAKS = """
import gc, tracemalloc
import numpy as np
from metabdc.core import SeededRng
from metabdc.ssl import AugmentConfig, IpIrmConfig, augment_views, find_partition_embeddings
gen = np.random.default_rng(0)
images = gen.normal(size=(256, 16, 16)).astype(np.float32)
za, zb = (z / np.linalg.norm(z, axis=1, keepdims=True) for z in gen.normal(size=(2, 256, 16)))
augment_views(images[:2], AugmentConfig(), SeededRng(1))
tracemalloc.start()
for call in (
    lambda: augment_views(images, AugmentConfig(), SeededRng(1)),
    lambda: find_partition_embeddings(za, zb, IpIrmConfig(), SeededRng(2)),
):
    gc.collect()
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    call()
    print(tracemalloc.get_traced_memory()[1] - entry)
"""


def test_whole_set_passes_keep_their_peak_memory_down():
    """Peak traced bytes above entry, in a fresh interpreter, of one
    augment_views call and one partition search over 256 study-sized
    samples. Before blocked rendering, shared maps and forward-only graphs
    they were about 7.5 MB and 8.5 MB, and 4.2 MB for the search while its
    maps took the diagonal through two (n, n) identity masks; now about
    1.6 MB and 3.2 MB, the map build's own (n, n) temporaries."""
    augment_peak, search_peak = traced_numbers(_WHOLE_SET_PEAKS)
    assert augment_peak < 3_000_000
    assert search_peak < 3_600_000


# ---------------------------------------------------------------------------
# pretraining driver


def _small_cfg(**kw):
    base = dict(
        outer_iterations=0,
        epochs_per_iter=1,
        batch_size=6,
        partition_steps=40,
        partition_restarts=2,
        tolerance=0.0,
        augment=AugmentConfig(crop_scale=(0.8, 1.0)),
    )
    base.update(kw)
    return IpIrmConfig(**base)


def test_pretrain_simclr_equals_ipirm_without_searches():
    images = np.random.default_rng(89).normal(size=(12, 8, 8))
    cfg = _small_cfg(lambda1=0.0)
    init = init_params(TINY, SeededRng(97).child(0))
    p1, parts1, t1 = pretrain("simclr", images, cfg, TINY, SeededRng(97), init)
    p2, parts2, t2 = pretrain("ipirm", images, cfg, TINY, SeededRng(97), init)
    assert len(parts1) == len(parts2) == 1
    assert len(t1) == len(t2) > 0
    for r1, r2 in zip(t1, t2):
        assert r1.loss == r2.loss and r1.penalty == r2.penalty and r1.lr == r2.lr
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_pretrain_two_outer_iterations_grow_three_partitions():
    images = np.random.default_rng(101).normal(size=(12, 8, 8))
    cfg = _small_cfg(outer_iterations=2)
    _, parts, trace = pretrain("ipirm", images, cfg, TINY, SeededRng(103), init_params(TINY, SeededRng(103).child(0)))
    assert len(parts) == 3
    for p in parts:
        assert p.dtype == bool and p.shape == (12,)
    assert parts[0].all()  # the trivial partition: every image in the first subset
    for p in parts[1:]:
        assert p.any() and not p.all()
    # three training phases of one epoch each over 12 images in batches of 6
    assert trace[-1].step == 3 * 2 - 1
    assert trace[-1].partition_count == 3


def test_pretrain_lr_follows_batch_rule_and_schedule():
    images = np.random.default_rng(107).normal(size=(12, 8, 8))
    cfg = _small_cfg(epochs_per_iter=2, base_lr=None)
    _, _, trace = pretrain("simclr", images, cfg, TINY, SeededRng(109), init_params(TINY, SeededRng(109).child(0)))
    base = lr_from_batch(6)
    assert trace[0].lr == pytest.approx(base)
    assert trace[2].lr == pytest.approx(base / 2)  # cosine at epoch 1 of 2


def test_pretrain_rejects_bad_inputs():
    init = init_params(TINY, SeededRng(0))
    with pytest.raises(ValueError, match="unknown pretrain mode"):
        pretrain("moco", np.zeros((4, 8, 8)), _small_cfg(), TINY, SeededRng(0), init)
    for n in (0, 1):  # one image is a dropped 1-row tail in every epoch: nothing would train
        with pytest.raises(ValueError, match=f"got {n}$"):
            pretrain("simclr", np.zeros((n, 8, 8)), _small_cfg(), TINY, SeededRng(0), init)


def test_trace_csv_layout(tmp_path):
    images = np.random.default_rng(113).normal(size=(6, 8, 8))
    _, _, trace = pretrain("simclr", images, _small_cfg(), TINY, SeededRng(127), init_params(TINY, SeededRng(127).child(0)))
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,partition_count,loss,penalty,lr"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 1


def test_ipirm_pretraining_on_study_seed_4_keeps_its_embedding_spread():
    # a penalty on the squared summed theta-derivative collapses this run's
    # projections (spread 0.29), after which no gradient reaches the backbone
    exp = ExperimentConfig()
    images = study_train_images()
    rng = SeededRng(4).child(1)
    init = init_params(exp.encoder, rng.child(0))
    params, _, _ = pretrain("ipirm", images, exp.ipirm, exp.encoder, rng.child(2), init=init)
    spread = embedding_spread(_embed_dataset(images, params, exp.encoder))
    assert spread >= 0.5, f"embedding spread {spread:.3f}: the projection head collapsed"
