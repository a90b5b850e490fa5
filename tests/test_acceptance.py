"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

These run the package end to end at the tolerances the library promises:
exact oracles for the numerics (gradients, double centering, ranking
metrics), equivalence and recovery properties for the pretraining path,
and the directional study on the default synthetic dataset. Run with
`pytest tests/test_acceptance.py -v`; add `-s` to see the detail lines.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from metabdc.bdc import bdc_matrix
from metabdc.config import ExperimentConfig
from metabdc.core import Graph, SeededRng, backward, forward_eval
from metabdc.data import (
    Episode,
    EpisodeSpec,
    SyntheticConfig,
    generate_synthetic,
    preprocess_dataset,
    sample_episode,
)
from metabdc.encoder import EncoderConfig, bind_params, conv_stack, init_params, project_head
from metabdc.experiment import (
    finetune_cell,
    prepare_splits,
    pretrain_encoder,
    run_experiment,
    test_cell as eval_cell,  # alias keeps pytest from collecting it
)
from metabdc.finetune import FinetuneConfig, episode_scores
from metabdc.metrics import auroc_binary, auroc_multiclass_ovr
from metabdc.optim import lr_from_batch
from metabdc.ssl import (
    IpIrmConfig,
    _contrastive_maps,
    _subset_sums,
    eval_partition_objective,
    find_partition_embeddings,
    pretrain,
)
from gradcheck import grad_check
from oracles import bdc_oracle, contrastive_oracle, subset_terms

TINY = EncoderConfig(height=8, width=8, channels=1, stages=((3, 3, 2), (4, 3, 2)), proj_hidden=5, proj_dim=4)


def _line(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}", flush=True)


# ---------------------------------------------------------------------------
# 1. full gradient suite


def _params64(seed: int) -> dict[str, np.ndarray]:
    return init_params(TINY, SeededRng(seed), dtype=np.float64)


def _encoder_fn(images: np.ndarray, fixed: dict[str, np.ndarray], weights: np.ndarray, project: bool):
    """Scalar functional of the conv stack (or full head) as a grad_check fn."""

    def fn(point):
        g = Graph()
        refs = bind_params(g, {**fixed, **point})
        x = g.input("images", images.shape)
        out = conv_stack(g, x, refs, TINY)
        if project:
            out = project_head(g, out, refs, TINY)
        loss = (out * g.constant(weights)).sum()
        forward_eval(g, {"images": images})
        return float(loss.value), backward(g, loss)

    return fn


def _contrastive_fn(members: np.ndarray, tau: float, want_penalty: bool):
    def fn(point):
        g = Graph()
        refs = bind_params(g, point)
        n = point["za"].shape[0]
        w = np.zeros(n)
        w[members] = 1.0
        maps = _contrastive_maps(g, refs["za"], refs["zb"], n, tau)
        _, loss, grad_theta = _subset_sums(maps, g.constant(w), n, tau)
        node = grad_theta * grad_theta if want_penalty else loss
        forward_eval(g)
        return float(node.value), backward(g, node)

    return fn


def _bdc_fn(weights: np.ndarray):
    def fn(point):
        g = Graph()
        refs = bind_params(g, point)
        mats = refs["fm"].bdc()
        loss = (mats * g.constant(weights)).sum()
        forward_eval(g)
        return float(loss.value), backward(g, loss)

    return fn


def _aucm_fn(labels: np.ndarray, margin: float):
    from metabdc.optim import aucm_loss_graph

    def fn(point):
        g = Graph()
        refs = bind_params(g, point)
        loss = aucm_loss_graph(
            g, refs["scores"], labels, refs["a"], refs["b"], refs["alpha"], margin=margin
        )
        forward_eval(g)
        return float(loss.value), backward(g, loss)

    return fn


def test_gradient_suite_over_all_differentiable_ops():
    t0 = time.time()
    points = 20
    tol = 1e-4
    worst: dict[str, float] = {}

    gen = np.random.default_rng(0)
    conv_keys = ("conv0_w", "conv0_b", "conv1_w", "conv1_b")
    proj_keys = ("proj_w1", "proj_b1", "proj_w2", "proj_b2")
    for i in range(points):
        params = _params64(i)
        images = gen.normal(size=(2, 1, 8, 8))
        w_fm = gen.normal(size=(2, TINY.feature_dim, TINY.num_positions))
        w_z = gen.normal(size=(2, TINY.proj_dim))
        fixed_p = {k: v for k, v in params.items() if k not in conv_keys}
        point_c = {k: params[k] for k in conv_keys}
        err = grad_check(_encoder_fn(images, fixed_p, w_fm, project=False), point_c)
        worst["encoder"] = max(worst.get("encoder", 0.0), err)

        fixed_c = {k: params[k] for k in conv_keys}
        point_p = {k: params[k] for k in proj_keys}
        err = grad_check(_encoder_fn(images, fixed_c, w_z, project=True), point_p)
        worst["projection"] = max(worst.get("projection", 0.0), err)

        s = int(gen.integers(3, 7))
        dim = int(gen.integers(3, 6))
        z = {"za": gen.normal(size=(s, dim)), "zb": gen.normal(size=(s, dim))}
        z = {k: v / np.linalg.norm(v, axis=1, keepdims=True) for k, v in z.items()}
        members = np.arange(s)
        err = grad_check(_contrastive_fn(members, 0.5, want_penalty=False), z)
        worst["contrastive"] = max(worst.get("contrastive", 0.0), err)
        err = grad_check(_contrastive_fn(members, 0.5, want_penalty=True), z)
        worst["penalty"] = max(worst.get("penalty", 0.0), err)

        d, m = int(gen.integers(2, 5)), int(gen.integers(3, 7))
        fm = {"fm": gen.normal(size=(2, d, m))}
        err = grad_check(_bdc_fn(gen.normal(size=(2, d, d))), fm)
        worst["bdc"] = max(worst.get("bdc", 0.0), err)

        n = int(gen.integers(4, 10))
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(1, n // 2)] = 1
        gen.shuffle(labels)
        pt = {
            "scores": gen.normal(size=n),
            "a": gen.normal(size=1),
            "b": gen.normal(size=1),
            "alpha": gen.normal(size=1),
        }
        err = grad_check(_aucm_fn(labels, margin=1.0), pt)
        worst["aucm"] = max(worst.get("aucm", 0.0), err)

    elapsed = time.time() - t0
    ok = all(e <= tol for e in worst.values()) and elapsed < 120.0
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _line(ok, f"gradient suite, {points} points per op, {detail}, {elapsed:.1f}s")
    assert ok, f"worst errors {worst}, elapsed {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. double-centering oracle


def test_bdc_matrix_matches_bruteforce_double_centering():
    gen = np.random.default_rng(7)
    worst = 0.0
    worst_sym = 0.0
    worst_row = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 9))
        m = int(gen.integers(2, 11))
        x = gen.normal(size=(d, m))
        got = bdc_matrix(x[None])[0]
        worst = max(worst, float(np.abs(got - bdc_oracle(x)).max()))
        worst_sym = max(worst_sym, float(np.abs(got - got.T).max()))
        worst_row = max(worst_row, float(np.abs(got.sum(axis=1)).max()))
    ok = worst <= 1e-10 and worst_sym <= 1e-10 and worst_row <= 1e-10
    _line(ok, f"bdc oracle on 100 inputs, err={worst:.2e} sym={worst_sym:.2e} rowsum={worst_row:.2e}")
    assert ok, (worst, worst_sym, worst_row)


# ---------------------------------------------------------------------------
# 3. trivial-partition equivalence of the two pretraining modes


def test_trivial_partition_reduces_to_plain_contrastive():
    images = np.random.default_rng(11).normal(size=(12, 8, 8, 1))
    cfg = IpIrmConfig(
        lambda1=0.0, outer_iterations=0, epochs_per_iter=3, batch_size=6,
        partition_steps=1, partition_restarts=1, base_lr=0.05,
    )
    p1, _, t1 = pretrain("ipirm", images, cfg, TINY, SeededRng(13), dtype=np.float64)
    p2, _, t2 = pretrain("simclr", images, cfg, TINY, SeededRng(13), dtype=np.float64)
    ok = len(t1) == len(t2) > 0
    worst = 0.0
    if ok:
        worst = max(abs(a.loss - b.loss) for a, b in zip(t1, t2))
        worst = max(worst, max(abs(a.penalty - b.penalty) for a, b in zip(t1, t2)))
        ok = worst <= 1e-12
        for k in p1:
            ok = ok and float(np.abs(p1[k] - p2[k]).max()) <= 1e-12
    _line(ok, f"trivial-partition run equals plain contrastive run, step gap={worst:.2e}")
    assert ok, worst


# ---------------------------------------------------------------------------
# 4. penalty equals the squared score derivative


def test_penalty_equals_squared_finite_difference_score():
    gen = np.random.default_rng(17)
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        s = int(gen.integers(6, 13))
        dim = int(gen.integers(4, 9))
        za = gen.normal(size=(s, dim))
        zb = gen.normal(size=(s, dim))
        za /= np.linalg.norm(za, axis=1, keepdims=True)
        zb /= np.linalg.norm(zb, axis=1, keepdims=True)
        ids = np.zeros(s, dtype=np.int64)
        ids[: s // 2] = 1
        gen.shuffle(ids)
        for k in (0, 1):
            members = np.flatnonzero(ids == k)
            hi = contrastive_oracle(za, zb, members, 1.0 + eps, 0.5)
            lo = contrastive_oracle(za, zb, members, 1.0 - eps, 0.5)
            fd = (hi - lo) / (2 * eps)
            _, pen = subset_terms(za, zb, members, 0.5)
            worst = max(worst, abs(pen - fd * fd) / max(1.0, fd * fd))
    ok = worst <= 1e-6
    _line(ok, f"penalty vs squared central difference on 50 batches, rel={worst:.2e}")
    assert ok, worst


# ---------------------------------------------------------------------------
# 5. partition search vs exhaustive enumeration


def _planted_instance(gen: np.random.Generator, noise: float):
    """Eight samples in two nuisance clusters along one latent direction."""
    dim = 6
    u = gen.normal(size=dim)
    u /= np.linalg.norm(u)
    signs = np.array([1.0] * 4 + [-1.0] * 4)
    gen.shuffle(signs)
    za = np.outer(signs, u) + noise * gen.normal(size=(8, dim))
    zb = np.outer(signs, u) + noise * gen.normal(size=(8, dim))
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zb /= np.linalg.norm(zb, axis=1, keepdims=True)
    return za, zb, signs > 0


def _exhaustive_best(za, zb, lambda2, tau) -> float:
    best = -np.inf
    for bits in range(1, 2 ** 8 - 1):
        mask = np.array([(bits >> i) & 1 for i in range(8)], dtype=bool)
        best = max(best, eval_partition_objective(za, zb, mask, lambda2, tau))
    return best


def test_partition_search_attains_exhaustive_objective():
    cfg = IpIrmConfig(partition_steps=60, partition_restarts=4)
    hits = 0
    ratios = []
    for s in range(10):
        gen = np.random.default_rng(300 + s)
        za, zb, _ = _planted_instance(gen, noise=0.25)
        best = _exhaustive_best(za, zb, cfg.lambda2, cfg.tau)
        assert best > 0
        found = find_partition_embeddings(za, zb, cfg, SeededRng(500 + s))
        obj = eval_partition_objective(za, zb, found.assignments[:, 0] == 1, cfg.lambda2, cfg.tau)
        ratios.append(obj / best)
        if obj >= 0.95 * best:
            hits += 1

    za, zb, oracle = _planted_instance(np.random.default_rng(999), noise=0.02)
    found = find_partition_embeddings(za, zb, cfg, SeededRng(1001))
    mask = found.assignments[:, 0] == 1
    recovered = bool(np.array_equal(mask, oracle) or np.array_equal(~mask, oracle))

    ok = hits >= 9 and recovered
    _line(ok, f"partition search: {hits}/10 seeds at 95% of exhaustive, cluster recovery={recovered}")
    assert ok, (hits, min(ratios), recovered)


# ---------------------------------------------------------------------------
# 6. ranking metric vs pair counting


def _pair_count(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auroc_matches_pair_counting_oracle():
    gen = np.random.default_rng(23)
    worst = 0.0
    for i in range(200):
        n = int(gen.integers(4, 31))
        scores = gen.normal(size=n)
        if i % 3 == 0:
            scores = np.round(scores, 1)  # force tie runs
        if i % 2 == 0:
            labels = np.zeros(n, dtype=np.int64)
            labels[: max(1, int(gen.integers(1, n)))] = 1
            gen.shuffle(labels)
            worst = max(worst, abs(auroc_binary(scores, labels) - _pair_count(scores, labels)))
        else:
            k = int(gen.integers(2, 5))
            labels = gen.integers(0, k, size=n)
            while len(set(labels.tolist())) < 2:
                labels = gen.integers(0, k, size=n)
            mat = gen.normal(size=(n, k))
            if i % 3 == 0:
                mat = np.round(mat, 1)
            present = sorted(set(labels.tolist()))
            want = float(np.mean([_pair_count(mat[:, c], (labels == c).astype(np.int64)) for c in present]))
            worst = max(worst, abs(auroc_multiclass_ovr(mat, labels) - want))

    scores = np.round(np.random.default_rng(29).normal(size=40), 1)
    labels = (np.arange(40) % 2).astype(np.int64)
    base = auroc_binary(scores, labels)
    for tf in (lambda s: 3.0 * s + 7.0, np.exp, np.arctan):
        worst = max(worst, abs(auroc_binary(tf(scores), labels) - base))

    ok = worst <= 1e-12
    _line(ok, f"auroc vs pair counting on 200 instances plus monotone maps, err={worst:.2e}")
    assert ok, worst


# ---------------------------------------------------------------------------
# 7. learning-rate rule


def test_lr_scales_linearly_with_batch():
    vals = (lr_from_batch(256), lr_from_batch(128), lr_from_batch(512))
    ok = abs(vals[0] - 0.3) < 1e-15 and abs(vals[1] - 0.15) < 1e-15 and abs(vals[2] - 0.6) < 1e-15
    _line(ok, f"lr rule: 256->{vals[0]} 128->{vals[1]} 512->{vals[2]}")
    assert ok, vals


# ---------------------------------------------------------------------------
# 8. episodic protocol


def test_episode_sampler_invariants_and_duplicate_query():
    data_cfg = SyntheticConfig(count_per_fine=26, group_size=1, seed=11)
    split = preprocess_dataset(generate_synthetic(data_cfg), data_cfg.px, data_cfg.py, 100.0, 8)
    specs = [
        EpisodeSpec(2, 1, 5, "fine"),
        EpisodeSpec(2, 5, 5, "fine"),
        EpisodeSpec(3, 1, 4, "fine"),
        EpisodeSpec(2, 5, 10, "coarse"),
        EpisodeSpec(2, 1, 3, "coarse"),
    ]
    root = SeededRng(17)
    for i in range(1000):
        spec = specs[i % len(specs)]
        ep = sample_episode(split, spec, root.child(i))
        assert ep.n_way == spec.n_way and ep.k_shot == spec.k_shot and ep.q_query == spec.q_query
        assert len(set(ep.class_list)) == spec.n_way
        assert not np.intersect1d(ep.support, ep.query).size
        labels = split.labels(spec.label_space)
        for j, row in enumerate(ep.support):  # class-major support blocks
            assert labels[row] == ep.class_list[j // spec.k_shot]
        for c in ep.class_list:
            assert int(np.sum(labels[ep.query] == c)) == spec.q_query

    # each query row is a copy of one support row, appended to the split
    base = sample_episode(split, EpisodeSpec(2, 1, 3, "fine"), root.child(5000))
    dup_split = split.take(np.concatenate([np.arange(len(split)), base.support]))
    dup = Episode(base.support, len(split) + np.arange(len(base.support)), base.class_list)
    params = init_params(TINY, SeededRng(3), dtype=np.float64)
    scores, labels = episode_scores(params, TINY, dup_split, dup)
    ok = bool(np.array_equal(np.argmax(scores, axis=1), labels))
    _line(ok, "1000 sampled episodes hold all invariants; duplicated query lands on its class")
    assert ok, (scores, labels)


# ---------------------------------------------------------------------------
# 9. directional study on the default synthetic dataset


def test_pretraining_and_granularity_trends_hold():
    t0 = time.time()
    cfg = ExperimentConfig(
        pretrain="none",
        pretrain_kinds=("none", "ipirm"),
        finetune_kinds=("meta-fine-same", "meta-coarse-same", "meta-fine-other"),
        k_shots=(5,),
    )
    primary = prepare_splits(cfg, "same")
    other = prepare_splits(cfg, "other")
    cells = [("none", "meta-fine-same"), ("ipirm", "meta-fine-same"),
             ("ipirm", "meta-coarse-same"), ("ipirm", "meta-fine-other")]
    scores: dict[tuple[str, str], list[float]] = {c: [] for c in cells}
    for seed in range(5):
        rng = SeededRng(seed)
        pret = {
            kind: pretrain_encoder(replace(cfg, pretrain=kind), primary.train, rng.child(1))
            for kind in ("none", "ipirm")
        }
        for idx, (pk, fk) in enumerate(cells):
            cell_rng = rng.child(100 + idx)
            src_other = other if fk.endswith("-other") else None
            result = finetune_cell(cfg, pret[pk], primary, src_other, fk, 5, cell_rng.child(0))
            reps = eval_cell(cfg, result.params, primary, fk, 5, cell_rng)
            scores[(pk, fk)].append(float(np.mean([x for rep in reps for x in rep])))

    for seed in range(5):
        got = {c: v[seed] for c, v in scores.items()}
        fine = got[("ipirm", "meta-fine-same")]
        print(f"  seed {seed}: " + " ".join(f"{pk}/{fk}={v:.4f}" for (pk, fk), v in got.items())
              + f" | gain {fine - got[('none', 'meta-fine-same')]:+.4f}"
              f" fine-over-coarse {fine - got[('ipirm', 'meta-coarse-same')]:+.4f}"
              f" same-over-other {fine - got[('ipirm', 'meta-fine-other')]:+.4f}", flush=True)
    means = {c: float(np.mean(v)) for c, v in scores.items()}
    a = means[("ipirm", "meta-fine-same")] - means[("none", "meta-fine-same")]
    b = means[("ipirm", "meta-fine-same")] - means[("ipirm", "meta-coarse-same")]
    c = means[("ipirm", "meta-fine-same")] - means[("ipirm", "meta-fine-other")]
    elapsed = time.time() - t0
    ok = a >= 0.02 and b >= 0.02 and c > 0 and elapsed <= 1800.0
    _line(ok, f"5-seed trends: pretrain gain {a:+.4f}, fine-over-coarse {b:+.4f}, "
              f"same-over-other {c:+.4f}, {elapsed:.0f}s")
    assert ok, (a, b, c, elapsed, means)


# ---------------------------------------------------------------------------
# 10. determinism of the full runner


def test_same_seed_experiment_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        pretrain="none",
        pretrain_kinds=("none",),
        finetune_kinds=("meta-fine-same", "fully-supervised"),
        k_shots=(1,),
        data=SyntheticConfig(count_per_fine=32),
        tune=FinetuneConfig(lr=3e-3, epochs=2, decay_epochs=(1,), episodes_per_epoch=2, val_episodes=2),
        test_episodes=3,
        test_repeats=2,
    )
    frag1 = run_experiment(cfg, 5, str(tmp_path / "a"))
    frag2 = run_experiment(cfg, 5, str(tmp_path / "b"))
    with open(frag1.metrics_path, "rb") as f:
        blob1 = f.read()
    with open(frag2.metrics_path, "rb") as f:
        blob2 = f.read()
    ok = len(blob1) > 0 and blob1 == blob2
    _line(ok, f"same-seed reruns write byte-identical metrics ({len(blob1)} bytes)")
    assert ok
