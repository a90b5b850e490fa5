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
    LabeledImage,
    SyntheticConfig,
    fov_pixels,
    generate_synthetic,
    preprocess_dataset,
    preprocess_image,
    sample_episode,
    split_dataset,
    zscore_groups,
)
from metabdc.experiment import prepare_splits
from metabdc.metrics import auroc_multiclass_ovr
from oracles import sample_episode_oracle


def small_config(**kw):
    base = dict(count_per_fine=8, group_size=2, image_size=16)
    base.update(kw)
    return SyntheticConfig(**base)


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
    for img in images:
        assert img.coarse == cfg.hierarchy.coarse_of(img.fine)


# ---------------------------------------------------------------------------
# generation


def test_zero_nuisance_images_identical_within_class_and_domain():
    cfg = small_config(intensity_bias=0.0, rotation_jitter=0.0, phase_jitter=0.0, noise=0.0)
    images = generate_synthetic(cfg)
    first = {}
    for img in images:
        key = (img.fine, img.domain)
        if key in first:
            np.testing.assert_array_equal(img.pixels, first[key].pixels)
        else:
            first[key] = img
    # distinct fine classes still carry distinct signal
    assert not np.array_equal(first[(0, 0)].pixels, first[(1, 0)].pixels)


def test_default_nuisance_makes_images_differ():
    images = generate_synthetic(small_config())
    same = [img for img in images if img.fine == 0 and img.domain == 0]
    assert not np.array_equal(same[0].pixels, same[1].pixels)


def test_generation_deterministic():
    a = generate_synthetic(small_config(seed=5))
    b = generate_synthetic(small_config(seed=5))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.pixels, y.pixels)
        assert (x.fine, x.coarse, x.group, x.domain) == (y.fine, y.coarse, y.group, y.domain)
    c = generate_synthetic(small_config(seed=6))
    assert not np.array_equal(a[0].pixels, c[0].pixels)


def test_texture_families_differ():
    g = generate_synthetic(small_config(noise=0.0, texture_family="grating"))
    r = generate_synthetic(small_config(noise=0.0, texture_family="rings"))
    assert not np.array_equal(g[0].pixels, r[0].pixels)


def test_groups_are_single_class_single_domain():
    images = generate_synthetic(small_config())
    seen: dict[int, tuple[int, int]] = {}
    counts: dict[int, int] = {}
    for img in images:
        key = (img.fine, img.domain)
        assert seen.setdefault(img.group, key) == key
        counts[img.group] = counts.get(img.group, 0) + 1
    assert all(c == 2 for c in counts.values())


def test_domain_tags_shift_statistics():
    cfg = small_config(noise=0.0, intensity_bias=0.0)
    images = generate_synthetic(cfg)
    d0 = np.stack([i.pixels for i in images if i.domain == 0])
    d1 = np.stack([i.pixels for i in images if i.domain == 1])
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
    X = np.stack([im.pixels.ravel() for im in images]).astype(np.float64)
    labels = np.array([im.fine for im in images])
    Y = np.eye(int(labels.max()) + 1)[labels]
    W = np.linalg.solve(X.T @ X + 1e-3 * np.eye(X.shape[1]), X.T @ Y)
    return auroc_multiclass_ovr(X @ W, labels)


def test_linear_probe_separates_fine_classes():
    cfg = SyntheticConfig(count_per_fine=26, group_size=1, seed=3)
    images = preprocess_dataset(generate_synthetic(cfg))
    order = np.random.default_rng(0).permutation(len(images))[:200]
    assert _probe_auroc([images[i] for i in order]) > 0.9


# ---------------------------------------------------------------------------
# preprocessing


def test_fov_pixel_arithmetic():
    assert fov_pixels(100.0, 0.5) == 200
    assert fov_pixels(100.0, 0.78125) == 128
    with pytest.raises(ValueError):
        fov_pixels(100.0, 0.0)


def test_preprocess_native_fov_is_identity_before_zscore():
    cfg = small_config(image_size=32, px=3.125, py=3.125)
    img = generate_synthetic(cfg)[0]
    out = preprocess_image(img, ((32 - 1) / 2.0, (32 - 1) / 2.0), fov_mm=100.0, out_size=32)
    np.testing.assert_array_equal(out.pixels, img.pixels)
    assert out.fine == img.fine and out.group == img.group


def test_preprocess_crop_then_resize_shape():
    img = LabeledImage(np.random.default_rng(0).normal(size=(40, 40, 1)).astype(np.float32),
                       fine=0, coarse=0, group=0, domain=0, px=0.78125, py=0.78125)
    out = preprocess_image(img, (20.0, 20.0), fov_mm=100.0, out_size=32)
    assert out.pixels.shape == (32, 32, 1)  # 128px FOV window squeezed to 32


def test_preprocess_deterministic():
    img = generate_synthetic(small_config())[3]
    a = preprocess_image(img, (7.5, 7.5), fov_mm=50.0, out_size=16)
    b = preprocess_image(img, (7.5, 7.5), fov_mm=50.0, out_size=16)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_zscore_normalizes_each_group():
    images = generate_synthetic(small_config())
    normed = zscore_groups(images)
    by_group: dict[int, list[np.ndarray]] = {}
    for img in normed:
        by_group.setdefault(img.group, []).append(img.pixels.astype(np.float64))
    for gid, stacks in by_group.items():
        allpix = np.concatenate([p.ravel() for p in stacks])
        assert abs(allpix.mean()) <= 1e-6
        assert abs(allpix.std() - 1.0) <= 1e-6


def test_zscore_rejects_constant_group():
    img = LabeledImage(np.ones((8, 8, 1), dtype=np.float32), fine=0, coarse=0, group=0, domain=0)
    with pytest.raises(ValueError):
        zscore_groups([img])


# ---------------------------------------------------------------------------
# splitting


def _tiny_image(fine, group, domain):
    return LabeledImage(np.zeros((2, 2, 1), dtype=np.float32) + fine, fine=fine,
                        coarse=fine // 4, group=group, domain=domain)


def test_split_domain_purity_and_group_disjointness():
    images = generate_synthetic(small_config())
    train, val, test = split_dataset(images, train_tag=0, eval_tag=1, fractions=(0.5, 0.25, 0.25))
    assert all(i.domain == 0 for i in train)
    assert all(i.domain == 1 for i in val + test)
    val_groups = {i.group for i in val}
    test_groups = {i.group for i in test}
    assert not val_groups & test_groups
    assert len(train) + len(val) + len(test) == len(images)


def test_split_halves_cover_all_classes():
    images = generate_synthetic(small_config(count_per_fine=16))
    _, val, test = split_dataset(images, 0, 1, (0.5, 0.25, 0.25))
    for half in (val, test):
        assert {i.fine for i in half} == set(range(8))


def test_split_proportions_within_one():
    images = [_tiny_image(0, g, 0) for g in range(1611)]
    images += [_tiny_image(0, 10_000 + g, 1) for g in range(438)]
    _, val, test = split_dataset(images, 0, 1, fractions=(1611 / 2049, 200 / 2049, 238 / 2049))
    assert abs(len(val) - 200) <= 1
    assert abs(len(test) - 238) <= 1


def test_split_rejects_group_spanning_tags():
    images = [_tiny_image(0, 7, 0), _tiny_image(0, 7, 1)]
    with pytest.raises(ValueError):
        split_dataset(images, 0, 1, fractions=(0.5, 0.25, 0.25))


def test_split_rejects_absent_tags():
    images = [_tiny_image(0, 1, 0), _tiny_image(0, 2, 0)]
    with pytest.raises(ValueError):
        split_dataset(images, 0, 1, fractions=(0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        split_dataset(images, 2, 0, fractions=(0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        split_dataset(images, 0, 0, fractions=(0.5, 0.25, 0.25))


# ---------------------------------------------------------------------------
# image sets


def test_image_set_keeps_rows_pixels_and_labels_in_order():
    images = generate_synthetic(small_config())
    split = ImageSet.of(images)
    assert len(split) == len(images) == split.pixels.shape[0]
    for row, im in enumerate(images):
        assert split.pixels[row].tobytes() == im.pixels.tobytes()
    assert split.pixels.dtype == images[0].pixels.dtype
    assert split.fine.tolist() == [im.fine for im in images]
    assert split.coarse.tolist() == [im.coarse for im in images]
    assert split.labels("fine") is split.fine and split.labels("coarse") is split.coarse
    assert not split.pixels.flags.writeable
    with pytest.raises(KeyError):
        split.labels("group")
    # a zero val or test fraction leaves that split empty; its cells fail, not the run
    assert len(ImageSet.of([])) == 0


def test_prepare_splits_rows_follow_split_dataset():
    cfg = ExperimentConfig()
    images = preprocess_dataset(generate_synthetic(cfg.data), fov_mm=cfg.fov_mm, out_size=cfg.out_size)
    parts = split_dataset(images, cfg.train_domain, cfg.eval_domain, cfg.fractions)
    splits = prepare_splits(cfg, "same")
    for split, part in zip((splits.train, splits.val, splits.test), parts):
        assert len(split) == len(part) == split.pixels.shape[0] > 0
        assert np.array_equal(split.pixels, np.stack([im.pixels for im in part]))
        assert split.fine.tolist() == [im.fine for im in part]
        assert split.coarse.tolist() == [im.coarse for im in part]


# ---------------------------------------------------------------------------
# episodes


def test_episode_4way_5shot_10query():
    split = ImageSet.of(generate_synthetic(SyntheticConfig(count_per_fine=32, group_size=2, image_size=16)))
    ep = sample_episode(split, EpisodeSpec(4, 5, 10, "fine"), SeededRng(11))
    assert len(ep.support) == 20 and len(ep.query) == 40
    assert ep.n_way == 4 and ep.k_shot == 5 and ep.q_query == 10
    assert not np.intersect1d(ep.support, ep.query).size


def test_episode_2way_1shot_coarse():
    split = ImageSet.of(generate_synthetic(small_config(count_per_fine=24)))
    ep = sample_episode(split, EpisodeSpec(2, 1, 10, "coarse"), SeededRng(13))
    assert len(ep.support) == 2 and len(ep.query) == 20
    assert set(ep.class_list) == {0, 1}


def test_fine_and_coarse_label_spaces_over_same_source():
    split = ImageSet.of(generate_synthetic(small_config(count_per_fine=24)))
    fine_ep = sample_episode(split, EpisodeSpec(4, 2, 2, "fine"), SeededRng(17))
    coarse_ep = sample_episode(split, EpisodeSpec(2, 2, 2, "coarse"), SeededRng(17))
    assert set(fine_ep.class_list) <= set(range(8))
    assert set(coarse_ep.class_list) <= {0, 1}
    assert set(split.labels("fine")[fine_ep.support]) <= set(fine_ep.class_list)


def test_episode_sampler_errors():
    split = ImageSet.of(generate_synthetic(small_config()))
    with pytest.raises(ValueError):
        sample_episode(split, EpisodeSpec(9, 1, 1, "fine"), SeededRng(0))  # only 8 classes
    with pytest.raises(ValueError):
        sample_episode(split, EpisodeSpec(2, 5, 10, "fine"), SeededRng(0))  # 8 per class < 15


def test_episode_sampler_deterministic():
    split = ImageSet.of(generate_synthetic(small_config(count_per_fine=24)))
    e1 = sample_episode(split, EpisodeSpec(3, 2, 4, "fine"), SeededRng(19))
    e2 = sample_episode(split, EpisodeSpec(3, 2, 4, "fine"), SeededRng(19))
    assert e1.class_list == e2.class_list
    assert np.array_equal(e1.support, e2.support) and np.array_equal(e1.query, e2.query)


def test_episode_sampler_matches_the_per_class_scan_sampler():
    split = ImageSet.of(generate_synthetic(small_config(count_per_fine=24)))
    root = SeededRng(41)
    specs = (EpisodeSpec(3, 2, 4, "fine"), EpisodeSpec(8, 1, 1, "fine"), EpisodeSpec(2, 5, 10, "coarse"))
    for seed in range(60):
        for spec in specs:
            got = sample_episode(split, spec, root.child(seed))
            want = sample_episode_oracle(split, spec, root.child(seed))
            assert got.class_list == want.class_list
            assert np.array_equal(got.support, want.support) and np.array_equal(got.query, want.query)


def test_episode_invariants_over_many_samples():
    split = ImageSet.of(generate_synthetic(SyntheticConfig(count_per_fine=32, group_size=2, image_size=16)))
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
