"""Synthetic data generation, preprocessing, splits, episode sampling."""

import numpy as np
import pytest

from metabdc.config import ExperimentConfig
from metabdc.core import SeededRng
from metabdc.data import (
    Episode,
    EpisodeSpec,
    HierarchySpec,
    ImageSet,
    SyntheticConfig,
    fov_pixels,
    generate_synthetic,
    preprocess_dataset,
    sample_episode,
    split_dataset,
)
from metabdc.imageops import crop_with_padding, resize_bilinear
from metabdc.experiment import prepare_splits
from metabdc.metrics import auroc_multiclass_ovr
from oracles import sample_episode_oracle


def small_config(**kw):
    base = dict(count_per_fine=8, group_size=2, image_size=16)
    base.update(kw)
    return SyntheticConfig(**base)


def _image_set(pixels, fine, group, domain):
    fine, group, domain = (np.asarray(a, dtype=np.int64) for a in (fine, group, domain))
    return ImageSet(np.asarray(pixels, dtype=np.float32), fine, fine // 4, group, domain)


# ---------------------------------------------------------------------------
# hierarchy


def test_hierarchy_nested_eight_to_two():
    h = HierarchySpec.nested(8, 2)
    assert h.mapping == (0, 0, 0, 0, 1, 1, 1, 1)
    assert h.n_fine == 8 and h.n_coarse == 2
    assert h.coarse_of(3) == 0 and h.coarse_of(4) == 1


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        HierarchySpec((0, 2, 2, 0))  # coarse label 1 missing
    with pytest.raises(ValueError):
        HierarchySpec((0, 1))  # not strictly coarser
    with pytest.raises(ValueError):
        HierarchySpec.nested(8, 3)


def test_generated_images_respect_hierarchy():
    cfg = small_config()
    images = generate_synthetic(cfg)
    assert len(images) == 8 * cfg.count_per_fine
    assert images.pixels.shape == (len(images), 16, 16, 1) and images.pixels.dtype == np.float32
    assert images.coarse.tolist() == [cfg.hierarchy.coarse_of(f) for f in images.fine.tolist()]
    # rows run fine class, then domain tag, then group
    per_domain = cfg.count_per_fine // 2
    assert images.fine.tolist() == [f for f in range(8) for _ in range(cfg.count_per_fine)]
    assert images.domain.tolist() == [d for _ in range(8) for d in (0, 1) for _ in range(per_domain)]
    assert images.group.tolist() == [row // cfg.group_size for row in range(len(images))]


# ---------------------------------------------------------------------------
# generation


def test_zero_nuisance_images_identical_within_class_and_domain():
    cfg = small_config(intensity_bias=0.0, rotation_jitter=0.0, phase_jitter=0.0, noise=0.0)
    images = generate_synthetic(cfg)
    first = {}
    for pixels, fine, domain in zip(images.pixels, images.fine.tolist(), images.domain.tolist()):
        if (fine, domain) in first:
            np.testing.assert_array_equal(pixels, first[fine, domain])
        else:
            first[fine, domain] = pixels
    # distinct fine classes still carry distinct signal
    assert not np.array_equal(first[0, 0], first[1, 0])


def test_default_nuisance_makes_images_differ():
    images = generate_synthetic(small_config())
    same = images.pixels[(images.fine == 0) & (images.domain == 0)]
    assert not np.array_equal(same[0], same[1])


def test_generation_deterministic():
    a = generate_synthetic(small_config(seed=5))
    b = generate_synthetic(small_config(seed=5))
    for field in ("pixels", "fine", "coarse", "group", "domain"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    c = generate_synthetic(small_config(seed=6))
    assert not np.array_equal(a.pixels[0], c.pixels[0])


def test_texture_families_differ():
    g = generate_synthetic(small_config(noise=0.0, texture_family="grating"))
    r = generate_synthetic(small_config(noise=0.0, texture_family="rings"))
    assert not np.array_equal(g.pixels[0], r.pixels[0])


def test_groups_are_single_class_single_domain():
    images = generate_synthetic(small_config())
    seen: dict[int, tuple[int, int]] = {}
    for group, fine, domain in zip(images.group.tolist(), images.fine.tolist(), images.domain.tolist()):
        assert seen.setdefault(group, (fine, domain)) == (fine, domain)
    assert np.array_equal(np.bincount(images.group), np.full(len(seen), 2))


def test_domain_tags_shift_statistics():
    cfg = small_config(noise=0.0, intensity_bias=0.0)
    images = generate_synthetic(cfg)
    d0 = images.pixels[images.domain == 0]
    d1 = images.pixels[images.domain == 1]
    assert abs(float(d1.mean()) - float(d0.mean())) >= 0.0  # ramp is zero-mean
    # the ramp shows up as a spatial gradient along its direction
    col_means = d1.mean(axis=(0, 1, 3)) - d0.mean(axis=(0, 1, 3))
    assert col_means[-1] - col_means[0] > 0.1


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(texture_family="checker")
    with pytest.raises(ValueError):
        small_config(count_per_fine=7)
    with pytest.raises(ValueError):
        small_config(count_per_fine=10, group_size=4)  # 5 per domain not divisible
    with pytest.raises(ValueError):
        small_config(noise=-0.1)


def _probe_auroc(images):
    X = images.pixels.reshape(len(images), -1).astype(np.float64)
    Y = np.eye(int(images.fine.max()) + 1)[images.fine]
    W = np.linalg.solve(X.T @ X + 1e-3 * np.eye(X.shape[1]), X.T @ Y)
    return auroc_multiclass_ovr(X @ W, images.fine)


def test_linear_probe_separates_fine_classes():
    cfg = SyntheticConfig(count_per_fine=26, group_size=1, seed=3)
    images = preprocess_dataset(generate_synthetic(cfg), cfg.px, cfg.py, 100.0, 32)
    order = np.random.default_rng(0).permutation(len(images))[:200]
    assert _probe_auroc(images.take(order)) > 0.9


# ---------------------------------------------------------------------------
# preprocessing


def _per_image_preprocess(images, px, py, fov_mm, out_size):
    """The 2-D crop and resize of each image around its center, then one
    z-score per group over its images' concatenated pixels, image by image."""
    n_rows, n_cols = fov_pixels(fov_mm, py), fov_pixels(fov_mm, px)
    resized = []
    for img in images.pixels:
        center = ((img.shape[0] - 1) / 2.0, (img.shape[1] - 1) / 2.0)
        patch = crop_with_padding(img[:, :, 0], center[0], center[1], n_rows, n_cols)
        resized.append(resize_bilinear(patch, out_size, out_size)[:, :, None])
    out = list(resized)
    for gid in set(images.group.tolist()):
        rows = [i for i, g in enumerate(images.group.tolist()) if g == gid]
        stack = np.concatenate([resized[i].ravel() for i in rows])
        mean, std = float(stack.mean()), float(stack.std())
        for i in rows:
            out[i] = ((resized[i] - mean) / std).astype(resized[i].dtype)
    return np.stack(out)


def test_fov_pixel_arithmetic():
    assert fov_pixels(100.0, 0.5) == 200
    assert fov_pixels(100.0, 0.78125) == 128
    with pytest.raises(ValueError):
        fov_pixels(100.0, 0.0)


def test_preprocess_native_fov_is_identity_before_zscore():
    cfg = small_config(image_size=32, px=3.125, py=3.125)
    images = generate_synthetic(cfg)
    out = preprocess_dataset(images, cfg.px, cfg.py, fov_mm=100.0, out_size=32)
    want = images.pixels.copy()
    for gid in set(images.group.tolist()):
        rows = images.group == gid
        want[rows] = (want[rows] - float(want[rows].mean())) / float(want[rows].std())
    assert out.pixels.tobytes() == want.tobytes()
    for field in ("fine", "coarse", "group", "domain"):
        assert getattr(out, field) is getattr(images, field)


def test_preprocess_crop_then_resize_shape():
    pixels = np.random.default_rng(0).normal(size=(1, 40, 40, 1))
    out = preprocess_dataset(_image_set(pixels, [0], [0], [0]), px=0.78125, py=0.78125, fov_mm=100.0, out_size=32)
    assert out.pixels.shape == (1, 32, 32, 1)  # 128px FOV window squeezed to 32


@pytest.mark.parametrize(
    "cfg, fov_mm, out_size",
    [
        pytest.param(SyntheticConfig(count_per_fine=8, group_size=2), 100.0, 8, id="resize-16-to-8"),
        pytest.param(small_config(image_size=20, px=4.0, py=5.0, group_size=4), 100.0, 12, id="pad-25x20-to-12"),
        pytest.param(small_config(image_size=24, px=3.0, py=3.0), 50.0, 10, id="crop-17-to-10"),
    ],
)
def test_preprocess_equals_per_image_crop_resize_and_group_zscore(cfg, fov_mm, out_size):
    images = generate_synthetic(cfg)
    out = preprocess_dataset(images, cfg.px, cfg.py, fov_mm, out_size)
    want = _per_image_preprocess(images, cfg.px, cfg.py, fov_mm, out_size)
    assert out.pixels.shape == (len(images), out_size, out_size, 1)
    assert out.pixels.dtype == want.dtype and out.pixels.tobytes() == want.tobytes()


def test_preprocess_deterministic():
    images = generate_synthetic(small_config())
    a = preprocess_dataset(images, 6.25, 6.25, fov_mm=50.0, out_size=16)
    b = preprocess_dataset(images, 6.25, 6.25, fov_mm=50.0, out_size=16)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_zscore_normalizes_each_group():
    cfg = small_config()
    normed = preprocess_dataset(generate_synthetic(cfg), cfg.px, cfg.py, 100.0, cfg.image_size)
    for gid in set(normed.group.tolist()):
        allpix = normed.pixels[normed.group == gid].astype(np.float64)
        assert abs(allpix.mean()) <= 1e-6
        assert abs(allpix.std() - 1.0) <= 1e-6


def test_zscore_rejects_constant_group():
    images = _image_set(np.ones((1, 8, 8, 1)), [0], [0], [0])
    with pytest.raises(ValueError, match="group 0 is constant"):
        preprocess_dataset(images, 12.5, 12.5, 100.0, 8)


# ---------------------------------------------------------------------------
# splitting


def _tiny_set(fine, group, domain):
    return _image_set(np.zeros((len(fine), 2, 2, 1)) + np.asarray(fine)[:, None, None, None], fine, group, domain)


def test_split_domain_purity_and_group_disjointness():
    images = generate_synthetic(small_config())
    train, val, test = split_dataset(images, train_tag=0, eval_tag=1, val_fraction=0.5)
    assert (train.domain == 0).all()
    assert (val.domain == 1).all() and (test.domain == 1).all()
    assert not set(val.group.tolist()) & set(test.group.tolist())
    assert len(train) + len(val) + len(test) == len(images)


def test_split_halves_cover_all_classes():
    images = generate_synthetic(small_config(count_per_fine=16))
    _, val, test = split_dataset(images, 0, 1, 0.5)
    for half in (val, test):
        assert set(half.fine.tolist()) == set(range(8))


def test_split_rows_follow_the_round_robin_group_order():
    images = generate_synthetic(small_config(count_per_fine=16))
    train, val, test = split_dataset(images, 0, 1, 0.5)
    assert np.array_equal(train.pixels, images.pixels[images.domain == 0])
    # 4 eval groups of 2 rows per class; one group of each class in turn, val first
    for half in (val, test):
        assert half.fine.tolist() == np.repeat(np.tile(np.arange(8), 2), 2).tolist()
        assert np.array_equal(half.group[::2], half.group[1::2])
        for row, gid in enumerate(half.group.tolist()):
            assert half.pixels[row].tobytes() == images.pixels[images.group == gid][row % 2].tobytes()


def test_split_proportions_within_one():
    images = _tiny_set([0] * 2049, [*range(1611), *range(10_000, 10_438)], [0] * 1611 + [1] * 438)
    _, val, test = split_dataset(images, 0, 1, val_fraction=200 / 438)
    assert abs(len(val) - 200) <= 1
    assert abs(len(test) - 238) <= 1


def test_split_rejects_group_spanning_tags():
    images = _tiny_set([0, 0], [7, 7], [0, 1])
    with pytest.raises(ValueError, match="group 7 spans domain tags"):
        split_dataset(images, 0, 1, val_fraction=0.5)


def test_split_rejects_absent_tags():
    images = _tiny_set([0, 0], [1, 2], [0, 0])
    with pytest.raises(ValueError):
        split_dataset(images, 0, 1, val_fraction=0.5)
    with pytest.raises(ValueError):
        split_dataset(images, 2, 0, val_fraction=0.5)
    with pytest.raises(ValueError):
        split_dataset(images, 0, 0, val_fraction=0.5)


@pytest.mark.parametrize("val_fraction", [-0.1, 1.5])
def test_split_rejects_val_fraction_outside_unit_interval(val_fraction):
    images = _tiny_set([0, 0], [1, 2], [0, 1])
    with pytest.raises(ValueError, match="val_fraction"):
        split_dataset(images, 0, 1, val_fraction)


# ---------------------------------------------------------------------------
# image sets


def test_image_set_keeps_rows_pixels_and_labels_in_order():
    images = generate_synthetic(small_config())
    rows = np.random.default_rng(1).permutation(len(images))[:20]
    split = images.take(rows)
    assert len(split) == 20 == split.pixels.shape[0]
    for i, row in enumerate(rows):
        assert split.pixels[i].tobytes() == images.pixels[row].tobytes()
    assert split.pixels.dtype == images.pixels.dtype
    for field in ("fine", "coarse", "group", "domain"):
        assert getattr(split, field).tolist() == getattr(images, field)[rows].tolist()
    assert split.labels("fine") is split.fine and split.labels("coarse") is split.coarse
    for a in (images, split):
        assert not any(f.flags.writeable for f in (a.pixels, a.fine, a.coarse, a.group, a.domain))
    with pytest.raises(KeyError):
        split.labels("group")
    with pytest.raises(ValueError, match="not aligned"):
        ImageSet(images.pixels, images.fine[:3], images.coarse, images.group, images.domain)
    # val_fraction 1 leaves test empty; its cells fail, not the run
    _, val, test = split_dataset(images, 0, 1, 1.0)
    assert len(test) == 0 and test.pixels.shape == (0, 16, 16, 1) and len(val) == len(images) // 2


def test_prepare_splits_rows_follow_split_dataset():
    cfg = ExperimentConfig()
    images = preprocess_dataset(generate_synthetic(cfg.data), cfg.data.px, cfg.data.py, cfg.fov_mm, cfg.encoder.height)
    parts = split_dataset(images, cfg.train_domain, cfg.eval_domain, cfg.val_fraction)
    splits = prepare_splits(cfg, "same")
    for split, part in zip((splits.train, splits.val, splits.test), parts):
        assert len(split) == len(part) > 0
        for field in ("pixels", "fine", "coarse", "group", "domain"):
            assert getattr(split, field).tobytes() == getattr(part, field).tobytes()


# ---------------------------------------------------------------------------
# episodes


def test_episode_4way_5shot_10query():
    split = generate_synthetic(SyntheticConfig(count_per_fine=32, group_size=2, image_size=16))
    ep = sample_episode(split, EpisodeSpec(4, 5, 10, "fine"), SeededRng(11))
    assert len(ep.support) == 20 and len(ep.query) == 40
    assert ep.n_way == 4 and ep.k_shot == 5 and ep.q_query == 10
    assert not np.intersect1d(ep.support, ep.query).size


def test_episode_2way_1shot_coarse():
    split = generate_synthetic(small_config(count_per_fine=24))
    ep = sample_episode(split, EpisodeSpec(2, 1, 10, "coarse"), SeededRng(13))
    assert len(ep.support) == 2 and len(ep.query) == 20
    assert set(ep.class_list) == {0, 1}


def test_fine_and_coarse_label_spaces_over_same_source():
    split = generate_synthetic(small_config(count_per_fine=24))
    fine_ep = sample_episode(split, EpisodeSpec(4, 2, 2, "fine"), SeededRng(17))
    coarse_ep = sample_episode(split, EpisodeSpec(2, 2, 2, "coarse"), SeededRng(17))
    assert set(fine_ep.class_list) <= set(range(8))
    assert set(coarse_ep.class_list) <= {0, 1}
    assert set(split.labels("fine")[fine_ep.support]) <= set(fine_ep.class_list)


def test_episode_sampler_errors():
    split = generate_synthetic(small_config())
    with pytest.raises(ValueError):
        sample_episode(split, EpisodeSpec(9, 1, 1, "fine"), SeededRng(0))  # only 8 classes
    with pytest.raises(ValueError):
        sample_episode(split, EpisodeSpec(2, 5, 10, "fine"), SeededRng(0))  # 8 per class < 15


def test_episode_sampler_deterministic():
    split = generate_synthetic(small_config(count_per_fine=24))
    e1 = sample_episode(split, EpisodeSpec(3, 2, 4, "fine"), SeededRng(19))
    e2 = sample_episode(split, EpisodeSpec(3, 2, 4, "fine"), SeededRng(19))
    assert e1.class_list == e2.class_list
    assert np.array_equal(e1.support, e2.support) and np.array_equal(e1.query, e2.query)


def test_episode_sampler_matches_the_per_class_scan_sampler():
    split = generate_synthetic(small_config(count_per_fine=24))
    root = SeededRng(41)
    specs = (EpisodeSpec(3, 2, 4, "fine"), EpisodeSpec(8, 1, 1, "fine"), EpisodeSpec(2, 5, 10, "coarse"))
    for seed in range(60):
        for spec in specs:
            got = sample_episode(split, spec, root.child(seed))
            want = sample_episode_oracle(split, spec, root.child(seed))
            assert got.class_list == want.class_list
            assert np.array_equal(got.support, want.support) and np.array_equal(got.query, want.query)


def test_episode_invariants_over_many_samples():
    split = generate_synthetic(SyntheticConfig(count_per_fine=32, group_size=2, image_size=16))
    base = SeededRng(23)
    gen = np.random.default_rng(29)
    for trial in range(100):
        space = "fine" if trial % 2 == 0 else "coarse"
        n_max = 8 if space == "fine" else 2
        n = int(gen.integers(2, n_max + 1))
        k = int(gen.integers(1, 4))
        q = int(gen.integers(1, 5))
        ep = sample_episode(split, EpisodeSpec(n, k, q, space), base.child(trial))
        assert len(set(ep.class_list)) == n
        assert len(ep.support) == n * k and len(ep.query) == n * q
        labels = split.labels(space)
        assert np.array_equal(labels[ep.support], np.repeat(ep.class_list, k))
        assert np.array_equal(labels[ep.query], np.repeat(ep.class_list, q))
        assert not np.intersect1d(ep.support, ep.query).size


@pytest.mark.parametrize(
    "support, query, classes",
    [
        pytest.param([0, 2], [0, 3], (0, 1), id="shared-index"),
        pytest.param([0, 2], [1, 3], (0,), id="one-way"),
        pytest.param([0, 1, 2], [3, 4], (0, 1), id="size-not-a-multiple-of-ways"),
    ],
)
def test_episode_constructor_validation(support, query, classes):
    with pytest.raises(ValueError):
        Episode(np.array(support), np.array(query), classes)
