"""Schedules, AUC-margin loss, PESG, AUROC, and aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metabdc.core import Graph, backward, forward_eval
from metabdc.imageops import crop_with_padding, resize_bilinear
from metabdc.metrics import aggregate_episode_metrics, auroc_binary, auroc_multiclass_ovr, ovr_pair_counts
from metabdc.optim import (
    PesgState,
    ScheduleConfig,
    aucm_loss_graph,
    lr_from_batch,
    pesg_step,
    schedule_lr,
    sgd_step,
)
from oracles import aucm_oracle


# ---------------------------------------------------------------------------
# LR rule and schedules


def test_lr_from_batch_values():
    assert lr_from_batch(256) == pytest.approx(0.3)
    assert lr_from_batch(128) == pytest.approx(0.15)
    assert lr_from_batch(512) == pytest.approx(0.6)


def test_lr_from_batch_rejects_nonpositive():
    with pytest.raises(ValueError):
        lr_from_batch(0)
    with pytest.raises(ValueError):
        lr_from_batch(-4)


def test_cosine_schedule_endpoints():
    cfg = ScheduleConfig(kind="cosine", base_lr=0.4, total_epochs=10)
    assert schedule_lr(cfg, 0) == pytest.approx(0.4)
    assert schedule_lr(cfg, 5) == pytest.approx(0.2)


def test_step_schedule_two_decades():
    cfg = ScheduleConfig(kind="step", base_lr=1e-2, total_epochs=100, decay_epochs=(20, 50))
    assert schedule_lr(cfg, 0) == pytest.approx(1e-2)
    assert schedule_lr(cfg, 19) == pytest.approx(1e-2)
    assert schedule_lr(cfg, 20) == pytest.approx(1e-3)
    assert schedule_lr(cfg, 60) == pytest.approx(1e-4)


def test_schedule_epoch_range_checked():
    cfg = ScheduleConfig(kind="cosine", base_lr=0.1, total_epochs=5)
    with pytest.raises(ValueError):
        schedule_lr(cfg, -1)
    with pytest.raises(ValueError):
        schedule_lr(cfg, 5)


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(kind="linear", base_lr=0.1, total_epochs=5)
    with pytest.raises(ValueError):
        ScheduleConfig(kind="cosine", base_lr=0.0, total_epochs=5)
    with pytest.raises(ValueError):
        ScheduleConfig(kind="step", base_lr=0.1, total_epochs=5, decay_epochs=(5,))


def test_schedules_non_increasing():
    for cfg in (
        ScheduleConfig(kind="cosine", base_lr=0.3, total_epochs=40),
        ScheduleConfig(kind="step", base_lr=0.3, total_epochs=40, decay_epochs=(10, 25)),
    ):
        lrs = [schedule_lr(cfg, e) for e in range(cfg.total_epochs)]
        assert all(b <= a + 1e-15 for a, b in zip(lrs, lrs[1:]))


def test_sgd_step_shape_mismatch():
    params = {"w": np.zeros(3)}
    with pytest.raises(ValueError):
        sgd_step(params, {"w": np.zeros(4)}, lr=0.1)


# ---------------------------------------------------------------------------
# AUC-margin loss


def graph_aucm(scores, labels, a=0.0, b=0.0, alpha=0.0, margin=1.0, p_hat=None):
    """aucm_loss_graph on fixed values: (loss, grads over scores, a, b, alpha)."""
    g = Graph()
    point = {
        "scores": np.array(scores, dtype=np.float64),
        "a": np.array([a]),
        "b": np.array([b]),
        "alpha": np.array([alpha]),
    }
    refs = {k: g.parameter(k, v) for k, v in point.items()}
    loss = aucm_loss_graph(g, refs["scores"], labels, refs["a"], refs["b"], refs["alpha"], margin, p_hat)
    forward_eval(g)
    return float(loss.value), backward(g, loss)


def test_aucm_perfect_separation_zero_loss():
    loss, _ = graph_aucm(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1, 1, 0, 0]), a=1.0, b=0.0, alpha=0.0)
    assert loss == pytest.approx(0.0, abs=1e-14)


def test_aucm_alpha_zero_reduces_to_deviations():
    gen = np.random.default_rng(3)
    scores = gen.normal(size=8)
    labels = np.array([1, 1, 1, 0, 0, 0, 0, 0])
    loss, _ = graph_aucm(scores, labels, a=0.4, b=-0.2, alpha=0.0)
    p = 3 / 8
    expect = (1 - p) * np.mean((scores[:3] - 0.4) ** 2) + p * np.mean((scores[3:] + 0.2) ** 2)
    assert loss == pytest.approx(expect, rel=1e-12)


def test_aucm_gradients_match_finite_differences():
    """Graph gradients against central differences of the closed-form loss."""
    gen = np.random.default_rng(11)
    eps = 1e-6
    for trial in range(20):
        n = int(gen.integers(4, 16))
        labels = np.zeros(n, dtype=np.int64)
        labels[gen.permutation(n)[: int(gen.integers(1, n))] ] = 1
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = gen.normal(size=n)
        point = {"a": float(gen.normal()), "b": float(gen.normal()), "alpha": float(abs(gen.normal())) + 0.1}
        _, grads = graph_aucm(scores, labels, **point)
        for i in range(n):
            hi, lo = scores.copy(), scores.copy()
            hi[i] += eps
            lo[i] -= eps
            num = (aucm_oracle(hi, labels, margin=1.0, **point) - aucm_oracle(lo, labels, margin=1.0, **point)) / (2 * eps)
            assert abs(grads["scores"][i] - num) / max(1.0, abs(num)) < 1e-5, f"trial {trial}, score {i}"
        for name in ("a", "b", "alpha"):
            hi = {**point, name: point[name] + eps}
            lo = {**point, name: point[name] - eps}
            num = (aucm_oracle(scores, labels, margin=1.0, **hi) - aucm_oracle(scores, labels, margin=1.0, **lo)) / (2 * eps)
            assert abs(grads[name][0] - num) / max(1.0, abs(num)) < 1e-5, f"trial {trial}, {name}"


def test_aucm_single_class_batch_keeps_conditional_terms():
    # all positives with an externally supplied p_hat: negative-conditional
    # terms must be absent, everything else present
    scores = np.array([0.5, 1.5])
    loss, grads = graph_aucm(scores, np.array([1, 1]), a=1.0, b=0.0, alpha=0.5, margin=1.0, p_hat=0.25)
    p = 0.25
    expect = (
        (1 - p) * np.mean((scores - 1.0) ** 2)
        - 2 * 0.5 * (1 - p) * np.mean(scores)
        + 2 * 0.5 * 1.0 * p * (1 - p)
        - p * (1 - p) * 0.25
    )
    assert loss == pytest.approx(expect, rel=1e-12)
    assert grads["b"][0] == 0.0


def test_aucm_empty_batch_rejected():
    with pytest.raises(ValueError):
        graph_aucm(np.array([]), np.array([]))


def test_aucm_bad_labels_rejected():
    with pytest.raises(ValueError):
        graph_aucm(np.array([0.1, 0.2]), np.array([1, 2]))


def test_aucm_graph_matches_analytic():
    gen = np.random.default_rng(7)
    scores = gen.normal(size=9)
    labels = np.array([1, 0, 0, 1, 1, 0, 0, 0, 1])
    for p_hat in (None, 0.3):
        loss, _ = graph_aucm(scores, labels, a=0.3, b=-0.4, alpha=0.7, margin=1.5, p_hat=p_hat)
        want = aucm_oracle(scores, labels, a=0.3, b=-0.4, alpha=0.7, margin=1.5, p_hat=p_hat)
        assert loss == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# PESG


def _toy_state():
    return PesgState(center_names=("a", "b"), dual_names=("alpha",))


def test_pesg_zero_gradients_no_motion():
    params = {
        "w": np.array([0.5, -0.5]),
        "a": np.array([0.3]),
        "b": np.array([0.1]),
        "alpha": np.array([0.2]),
    }
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    pesg_step(params, grads, _toy_state(), lr=0.1, weight_decay=0.0)
    for k in params:
        np.testing.assert_array_equal(params[k], before[k])


def test_pesg_alpha_projection():
    params = {"alpha": np.array([0.05])}
    grads = {"alpha": np.array([-10.0])}  # ascent direction pushes negative
    state = PesgState(center_names=(), dual_names=("alpha",))
    pesg_step(params, grads, state, lr=0.1)
    assert params["alpha"][0] == 0.0


def test_pesg_non_finite_gradient_aborts():
    params = {"w": np.zeros(2)}
    state = PesgState(center_names=(), dual_names=())
    with pytest.raises(FloatingPointError):
        pesg_step(params, {"w": np.array([np.nan, 0.0])}, state, lr=0.1)


def test_pesg_alpha_fixed_wd_zero_is_plain_gd():
    gen = np.random.default_rng(5)
    params = {
        "w": gen.normal(size=3),
        "a": np.array([0.2]),
        "b": np.array([-0.1]),
        "alpha": np.array([0.4]),
    }
    mirror = {k: v.copy() for k, v in params.items()}
    state = _toy_state()
    for _ in range(5):
        grads = {
            "w": gen.normal(size=3),
            "a": gen.normal(size=1),
            "b": gen.normal(size=1),
            "alpha": np.zeros(1),
        }
        pesg_step(params, grads, state, lr=0.07, weight_decay=0.0)
        for k in ("w", "a", "b"):
            mirror[k] = mirror[k] - 0.07 * grads[k]
    for k in ("w", "a", "b", "alpha"):
        np.testing.assert_allclose(params[k], mirror[k], atol=1e-15)


def test_pesg_reference_refresh_and_proximal_pull():
    params = {"w": np.array([1.0]), "a": np.array([0.0]), "b": np.array([0.0]), "alpha": np.array([0.0])}
    state = _toy_state()
    state.start_epoch(params, 0, decay_epochs=(3,))
    assert state.reference["w"][0] == 1.0
    params["w"][0] = 3.0
    state.start_epoch(params, 1, decay_epochs=(3,))  # not a decay epoch: anchor unchanged
    assert state.reference["w"][0] == 1.0
    zero = {k: np.zeros_like(v) for k, v in params.items()}
    pesg_step(params, zero, state, lr=0.1, proximal=2.0)
    # pull = proximal * (3 - 1) = 4, step 0.1 -> w = 3 - 0.4
    assert params["w"][0] == pytest.approx(2.6)
    state.start_epoch(params, 3, decay_epochs=(3,))  # decay epoch refreshes the anchor
    assert state.reference["w"][0] == pytest.approx(2.6)


def test_pesg_separable_toy_reaches_auroc_one():
    gen = np.random.default_rng(17)
    x = np.concatenate([gen.normal(2.0, 0.3, size=20), gen.normal(-2.0, 0.3, size=20)])
    y = np.concatenate([np.ones(20, dtype=np.int64), np.zeros(20, dtype=np.int64)])
    params = {
        "w": np.array([0.0]),
        "c": np.array([0.0]),
        "a": np.array([0.0]),
        "b": np.array([0.0]),
        "alpha": np.array([0.0]),
    }
    state = _toy_state()
    state.start_epoch(params, 0, decay_epochs=())
    g = Graph()
    refs = {k: g.parameter(k, v) for k, v in params.items()}  # updated in place by pesg_step
    scores = g.constant(x) * refs["w"] + refs["c"]
    loss = aucm_loss_graph(g, scores, y, refs["a"], refs["b"], refs["alpha"], margin=1.0)
    for _ in range(200):
        forward_eval(g)
        pesg_step(params, backward(g, loss), state, lr=0.05)
    final = params["w"][0] * x + params["c"][0]
    assert auroc_binary(final, y) == 1.0


# ---------------------------------------------------------------------------
# AUROC


def auroc_pair_oracle(scores, labels):
    """O(n^2) pair counting: wins + half ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auroc_midrank_oracle(scores, labels):
    """Mann-Whitney U from 1-based mid-ranks found by walking each tie run."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_pair_counts_are_the_exact_pair_tally():
    """2 * (pairs ranked right) + (tied pairs) per column, as integers, and
    AUROCs derived from them equal the mid-rank formula bit for bit; the
    multiclass AUROC reports the columns' summed count when asked."""
    gen = np.random.default_rng(31)
    for n, k in ((2, 2), (7, 3), (90, 5)):
        scores = np.round(gen.normal(size=(n, k)), 1)  # rounding forces tie runs
        labels = np.arange(n) % k
        positive = labels[:, None] == np.arange(k)
        want = []
        for c in range(k):
            pos, neg = scores[positive[:, c], c], scores[~positive[:, c], c]
            want.append(sum(2 * int(sp > sn) + int(sp == sn) for sp in pos for sn in neg))
        got = ovr_pair_counts(scores, positive)
        assert got.dtype == np.int64 and got.tolist() == want
        per_class = [auroc_midrank_oracle(scores[:, c], positive[:, c]) for c in range(k)]
        totals = []
        assert auroc_multiclass_ovr(scores, labels, totals) == float(np.mean(per_class))
        assert totals == [sum(want)]
        assert auroc_binary(scores[:, 0], positive[:, 0].astype(np.int64)) == per_class[0]


def test_auroc_perfect_ranking():
    assert auroc_binary(np.array([0.9, 0.8, 0.3, 0.2]), np.array([1, 1, 0, 0])) == 1.0


def test_auroc_three_of_four_pairs():
    assert auroc_binary(np.array([0.9, 0.2, 0.8, 0.3]), np.array([1, 0, 0, 1])) == 0.75


def test_auroc_all_ties():
    assert auroc_binary(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_auroc_matches_pair_oracle_with_ties():
    gen = np.random.default_rng(23)
    scores = np.round(gen.normal(size=200), 1)  # rounding forces tie runs
    labels = (gen.random(200) < 0.4).astype(np.int64)
    labels[0], labels[1] = 1, 0
    assert abs(auroc_binary(scores, labels) - auroc_pair_oracle(scores, labels)) <= 1e-12


def test_auroc_complement_identity():
    gen = np.random.default_rng(29)
    scores = gen.normal(size=50)  # continuous draws: tie-free
    labels = (gen.random(50) < 0.5).astype(np.int64)
    labels[0], labels[1] = 1, 0
    assert auroc_binary(scores, labels) + auroc_binary(-scores, labels) == pytest.approx(1.0, abs=1e-12)


def test_auroc_single_class_rejected():
    with pytest.raises(ValueError):
        auroc_binary(np.array([0.1, 0.2]), np.array([1, 1]))


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=25),
    slope=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
    offset=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_auroc_monotone_transform_invariant(raw, slope, offset, seed):
    scores = np.array(raw, dtype=np.float64)
    labels = np.zeros(len(raw), dtype=np.int64)
    labels[np.random.default_rng(seed).permutation(len(raw))[: len(raw) // 2]] = 1
    if labels.sum() in (0, len(raw)):
        labels[0] = 1 - labels[0]
    # integer-valued scores through a positive affine map: order and tie
    # structure are preserved exactly in floating point
    assert auroc_binary(slope * scores + offset, labels) == auroc_binary(scores, labels)


def test_ovr_binary_reduction():
    gen = np.random.default_rng(31)
    s = gen.random(12)
    labels = (gen.random(12) < 0.5).astype(np.int64)
    labels[0], labels[1] = 1, 0
    mat = np.stack([1.0 - s, s], axis=1)
    assert auroc_multiclass_ovr(mat, labels) == pytest.approx(auroc_binary(s, labels), abs=1e-12)


def test_ovr_identity_matrix_perfect():
    labels = np.array([0, 1, 2, 0, 1, 2])
    mat = np.eye(3)[labels]
    assert auroc_multiclass_ovr(mat, labels) == 1.0


def test_ovr_matches_per_class_oracle():
    gen = np.random.default_rng(37)
    n, k = 60, 4
    mat = gen.normal(size=(n, k))
    labels = gen.integers(0, k, size=n)
    for c in range(k):
        labels[c] = c  # ensure all classes present
    expect = np.mean([auroc_pair_oracle(mat[:, c], (labels == c).astype(np.int64)) for c in range(k)])
    assert abs(auroc_multiclass_ovr(mat, labels) - expect) <= 1e-12


def test_ovr_skips_absent_class_and_reports(caplog):
    mat = np.random.default_rng(41).normal(size=(10, 3))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])  # class 2 absent
    with caplog.at_level("WARNING", logger="metabdc.metrics"):
        val = auroc_multiclass_ovr(mat, labels)
    expect = 0.5 * (
        auroc_binary(mat[:, 0], (labels == 0).astype(np.int64))
        + auroc_binary(mat[:, 1], (labels == 1).astype(np.int64))
    )
    assert val == pytest.approx(expect, abs=1e-12)
    assert any("skipped" in r.message for r in caplog.records)


def test_ovr_fewer_than_two_classes_rejected():
    mat = np.zeros((4, 3))
    with pytest.raises(ValueError):
        auroc_multiclass_ovr(mat, np.array([1, 1, 1, 1]))


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_constant_episodes():
    res = aggregate_episode_metrics([[0.8, 0.8, 0.8], [0.8, 0.8]])
    assert res.mean == pytest.approx(0.8)
    assert res.std == pytest.approx(0.0)


def test_aggregate_repeat_means_example():
    res = aggregate_episode_metrics([[0.7, 0.9], [0.8, 0.8]])
    assert res.repeat_means == (0.8, 0.8)
    assert res.mean == pytest.approx(0.8)
    assert res.std == pytest.approx(0.0)


def test_aggregate_matches_loop_oracle():
    gen = np.random.default_rng(43)
    repeats = [list(gen.random(200)) for _ in range(3)]
    res = aggregate_episode_metrics(repeats)
    means = []
    for rep in repeats:
        total = 0.0
        for v in rep:
            total += v
        means.append(total / len(rep))
    grand = sum(means) / len(means)
    var = sum((m - grand) ** 2 for m in means) / len(means)
    assert abs(res.mean - grand) <= 1e-12
    assert abs(res.std - var**0.5) <= 1e-12


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_episode_metrics([])
    with pytest.raises(ValueError):
        aggregate_episode_metrics([[0.5], []])


def test_aggregate_single_repeat_zero_std():
    res = aggregate_episode_metrics([[0.6, 0.7]])
    assert res.std == 0.0


# ---------------------------------------------------------------------------
# image transforms


def test_resize_same_size_is_exact_copy():
    img = np.random.default_rng(47).normal(size=(8, 8)).astype(np.float32)
    out = resize_bilinear(img, 8, 8)
    np.testing.assert_array_equal(out, img)
    assert out is not img


def test_resize_constant_image_stays_constant():
    img = np.full((6, 6), 3.5)
    out = resize_bilinear(img, 13, 9)
    np.testing.assert_allclose(out, 3.5, atol=1e-12)


def test_resize_preserves_horizontal_gradient_midrow():
    img = np.tile(np.arange(8, dtype=np.float64), (8, 1))
    out = resize_bilinear(img, 8, 16)
    # interior of an upscaled linear ramp stays linear with half the step
    diffs = np.diff(out[4, 2:14])
    np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)


def test_resize_rejects_bad_shapes():
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((4, 4, 1)), 8, 8)
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((4, 4)), 0, 8)


def test_crop_interior_matches_slice():
    img = np.arange(100, dtype=np.float64).reshape(10, 10)
    out = crop_with_padding(img, 5.0, 5.0, 4, 4)
    np.testing.assert_array_equal(out, img[3:7, 3:7])


def test_crop_out_of_bounds_zero_filled():
    img = np.ones((6, 6))
    out = crop_with_padding(img, 0.0, 0.0, 4, 4)
    assert out.shape == (4, 4)
    assert out[:2, :2].sum() == 0.0  # above/left of the image
    np.testing.assert_array_equal(out[2:, 2:], np.ones((2, 2)))
