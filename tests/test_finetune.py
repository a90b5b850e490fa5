"""Labeled training loops: episode losses against numpy oracles, epoch
selection, determinism, and the supervised paths."""

import numpy as np
import pytest

from metabdc.core import Graph, SeededRng, backward, forward_eval
from metabdc.data import Episode, EpisodeSpec, ImageSet
from metabdc.encoder import EncoderConfig, bind_params, encode, init_params, to_nchw
from metabdc.finetune import (
    FinetuneConfig,
    _episode_loss_graph,
    classifier_scores,
    episode_scores,
    evaluate_episode,
    evaluate_episodes,
    meta_finetune,
    sample_episode_block,
    supervised_finetune,
    supervised_pretrain_ce,
)
from oracles import bdc_oracle, prototype_oracle, score_oracle

ENC = EncoderConfig(size=8, stages=((2, 3, 2),), proj_hidden=8, proj_dim=4)


def make_images(n_per_class, n_classes, seed=0, hw=8):
    """A class-major split of n_per_class noisy copies of one base image per class."""
    gen = np.random.default_rng(seed)
    pixels = []
    for _ in range(n_classes):
        base = gen.normal(size=(hw, hw))
        pixels += [base + 0.3 * gen.normal(size=(hw, hw)) for _ in range(n_per_class)]
    fine = np.repeat(np.arange(n_classes), n_per_class)
    return ImageSet(np.stack(pixels).astype(np.float32), fine, fine // 2, np.arange(len(fine)), np.zeros_like(fine))


def make_episode(split, n_way=2, k_shot=2, q_query=3):
    classes = tuple(range(n_way))
    pools = [np.flatnonzero(split.fine == c) for c in classes]
    support = np.concatenate([pool[:k_shot] for pool in pools])
    query = np.concatenate([pool[k_shot : k_shot + q_query] for pool in pools])
    return Episode(support, query, classes)


def graph_episode_loss(params, split, episode, temperature, with_grads=False):
    nchw = to_nchw(split.pixels, ENC).astype(np.float64)
    sup, qry = nchw[episode.support], nchw[episode.query]
    g = Graph()
    refs = bind_params(g, params)
    loss = _episode_loss_graph(g, refs, ENC, (episode.n_way, episode.k_shot, episode.q_query), temperature)
    forward_eval(g, {"sup": sup, "qry": qry})
    value = float(loss.value)
    if not with_grads:
        return value
    return value, backward(g, loss)


def _scores_node(g):
    """Index of the raw scores in a CE episode loss graph: the CE takes the
    logsumexp of z = scores * (1 / temperature)."""
    (lse,) = [node for node in g.nodes if node.op == "logsumexp"]
    return g.nodes[lse.parents[0]].parents[0]


def numpy_episode_scores(params, split, episode, temperature):
    """Episode scores from the encoder's maps through the literal oracles."""
    sup = split.pixels[episode.support].astype(np.float64)
    qry = split.pixels[episode.query].astype(np.float64)
    sup_mats = [bdc_oracle(fm) for fm in encode(sup, ENC, params)]
    qry_mats = [bdc_oracle(fm) for fm in encode(qry, ENC, params)]
    protos = prototype_oracle(sup_mats, np.repeat(np.arange(episode.n_way), episode.k_shot))
    return score_oracle(qry_mats, [protos[c] for c in range(episode.n_way)]) / temperature


class TestEpisodeLossOracles:
    def test_ce_loss_matches_numpy_oracle(self):
        params = init_params(ENC, SeededRng(1), dtype=np.float64)
        split = make_images(6, 3, seed=4)
        episode = make_episode(split, n_way=3, k_shot=2, q_query=3)
        got = graph_episode_loss(params, split, episode, temperature=2.5)

        z = numpy_episode_scores(params, split, episode, temperature=2.5)
        labels = np.array([episode.class_list.index(c) for c in split.fine[episode.query]])
        lse = np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)) + z.max(axis=1)
        want = float(np.mean(lse - z[np.arange(len(labels)), labels]))
        assert abs(got - want) < 1e-10

    def test_ce_loss_grad_matches_central_difference(self):
        params = init_params(ENC, SeededRng(3), dtype=np.float64)
        split = make_images(4, 2, seed=6)
        episode = make_episode(split, n_way=2, k_shot=1, q_query=2)
        _, grads = graph_episode_loss(params, split, episode, temperature=1.0, with_grads=True)

        w = params["conv0_w"]
        coords = [np.unravel_index(i, w.shape) for i in [0, 3, 7, 11, 16]]
        eps = 1e-6
        for coord in coords:
            orig = w[coord]
            w[coord] = orig + eps
            hi = graph_episode_loss(params, split, episode, temperature=1.0)
            w[coord] = orig - eps
            lo = graph_episode_loss(params, split, episode, temperature=1.0)
            w[coord] = orig
            fd = (hi - lo) / (2 * eps)
            assert abs(grads["conv0_w"][coord] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestEpisodeEvaluation:
    def test_duplicate_query_one_shot_argmax(self):
        params = init_params(ENC, SeededRng(4), dtype=np.float64)
        images = make_images(1, 4, seed=7)
        # each query row is a copy of its class's one support row
        split = images.take(np.tile(np.arange(len(images)), 2))
        episode = Episode(np.arange(4), np.arange(4, 8), tuple(range(4)))
        scores, labels = episode_scores(params, ENC, split, episode)
        assert scores.shape == (4, 4)
        assert np.array_equal(labels, np.arange(4))
        assert np.array_equal(scores.argmax(axis=1), labels)
        assert evaluate_episode(params, ENC, split, episode) == 1.0

    @pytest.mark.parametrize(
        "enc, spec", [(ENC, EpisodeSpec(3, 2, 4, "fine")), (EncoderConfig(), EpisodeSpec(2, 5, 10, "fine"))]
    )
    def test_scores_are_the_training_graphs_scores_node(self, enc, spec):
        params = init_params(enc, SeededRng(6))
        split = make_images(15, spec.n_way, seed=12, hw=enc.size)
        nchw = to_nchw(split.pixels, enc).astype(np.float32)
        for episode in sample_episode_block(split, spec, 3, SeededRng(21)):
            g = Graph()
            _episode_loss_graph(g, bind_params(g, params), enc, (spec.n_way, spec.k_shot, spec.q_query), 1.0)
            forward_eval(g, {"sup": nchw[episode.support], "qry": nchw[episode.query]})
            want = g.values[_scores_node(g)]
            got, _ = episode_scores(params, enc, split, episode)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    def test_evaluate_episodes_in_unit_interval(self):
        params = init_params(ENC, SeededRng(5))
        split = make_images(8, 2, seed=8)
        spec = EpisodeSpec(2, 2, 3, "fine")
        episodes = sample_episode_block(split, spec, 5, SeededRng(9))
        scores = evaluate_episodes(params, ENC, split, episodes)
        assert len(scores) == 5
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_sample_episode_block_deterministic(self):
        split = make_images(8, 2, seed=8)
        spec = EpisodeSpec(2, 2, 3, "fine")
        a = sample_episode_block(split, spec, 4, SeededRng(11))
        b = sample_episode_block(split, spec, 4, SeededRng(11))
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.support, eb.support) and np.array_equal(ea.query, eb.query)


def tiny_tune(**kw):
    base = dict(lr=3e-3, epochs=3, decay_epochs=(2,), episodes_per_epoch=3, val_episodes=4)
    base.update(kw)
    base["decay_epochs"] = tuple(d for d in base["decay_epochs"] if d < base["epochs"])
    return FinetuneConfig(**base)


class TestMetaFinetune:
    def test_selects_earliest_best_epoch(self):
        params = init_params(ENC, SeededRng(6))
        images = make_images(8, 2, seed=10)
        spec = EpisodeSpec(2, 2, 3, "fine")
        result = meta_finetune(params, ENC, images, images, spec, spec, tiny_tune(), SeededRng(12))
        assert len(result.val_history) == 3
        assert result.best_epoch == int(np.argmax(result.val_history))
        assert set(result.params) == set(params)

    def test_does_not_mutate_inputs(self):
        params = init_params(ENC, SeededRng(6))
        before = {k: v.copy() for k, v in params.items()}
        images = make_images(8, 2, seed=10)
        spec = EpisodeSpec(2, 1, 2, "fine")
        meta_finetune(params, ENC, images, images, spec, spec, tiny_tune(epochs=1), SeededRng(13))
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_deterministic(self):
        params = init_params(ENC, SeededRng(7))
        images = make_images(8, 2, seed=14)
        spec = EpisodeSpec(2, 2, 2, "fine")
        r1 = meta_finetune(params, ENC, images, images, spec, spec, tiny_tune(), SeededRng(15))
        r2 = meta_finetune(params, ENC, images, images, spec, spec, tiny_tune(), SeededRng(15))
        assert r1.val_history == r2.val_history
        assert r1.best_epoch == r2.best_epoch
        for k in r1.params:
            assert np.array_equal(r1.params[k], r2.params[k])

    def test_wrong_image_size_rejected(self):
        params = init_params(ENC, SeededRng(9))
        images = make_images(8, 2, seed=18, hw=12)
        spec = EpisodeSpec(2, 1, 2, "fine")
        with pytest.raises(ValueError, match="encoder expects"):
            meta_finetune(params, ENC, images, images, spec, spec, tiny_tune(epochs=1), SeededRng(19))


class TestSupervised:
    def test_finetune_trains_scoring_head(self):
        params = init_params(ENC, SeededRng(10))
        images = make_images(10, 2, seed=20)
        config = tiny_tune(lr=1e-3, epochs=2, batch_size=8)
        result = supervised_finetune(params, ENC, images, images, "fine", 2, config, SeededRng(21))
        assert "cls_w" in result.params and "cls_b" in result.params
        assert not any(k.startswith("aucm_") for k in result.params)
        assert result.best_epoch == int(np.argmax(result.val_history))
        scores = classifier_scores(result.params, ENC, images)
        assert scores.shape == (len(images), 2)

    def test_finetune_deterministic(self):
        params = init_params(ENC, SeededRng(10))
        images = make_images(8, 2, seed=22)
        config = tiny_tune(lr=1e-3, epochs=2, batch_size=8)
        r1 = supervised_finetune(params, ENC, images, images, "fine", 2, config, SeededRng(23))
        r2 = supervised_finetune(params, ENC, images, images, "fine", 2, config, SeededRng(23))
        assert r1.val_history == r2.val_history
        for k in r1.params:
            assert np.array_equal(r1.params[k], r2.params[k])

    def test_step_graph_does_not_grow_with_the_class_count(self, monkeypatch):
        """All one-vs-rest classes share one AUC-margin graph: a step's graph
        has as many nodes at 8 classes as at 2."""
        import metabdc.finetune as finetune_module

        sizes = []
        real_backward = finetune_module.backward

        def spy(g, loss):
            sizes.append(len(g.nodes))
            return real_backward(g, loss)

        monkeypatch.setattr(finetune_module, "backward", spy)
        params = init_params(ENC, SeededRng(10))
        per_k = {}
        for k in (2, 8):
            sizes.clear()
            images = make_images(4, k, seed=30 + k)
            config = tiny_tune(epochs=1, decay_epochs=(), batch_size=8)
            supervised_finetune(params, ENC, images, images, "fine", k, config, SeededRng(31))
            per_k[k] = set(sizes)
        assert per_k[2] == per_k[8] and len(per_k[2]) == 1, per_k

    def test_finetune_rejects_absent_class(self):
        params = init_params(ENC, SeededRng(11))
        images = make_images(8, 2, seed=24)
        with pytest.raises(ValueError, match="absent"):
            supervised_finetune(params, ENC, images, images, "fine", 3, tiny_tune(epochs=1), SeededRng(25))

    def test_pretrain_ce_touches_backbone_only(self):
        params = init_params(ENC, SeededRng(12))
        before = {k: v.copy() for k, v in params.items()}
        images = make_images(10, 2, seed=26)
        out = supervised_pretrain_ce(
            params, ENC, images, 2, epochs=2, batch_size=8, lr=1e-2, weight_decay=1e-4,
            rng=SeededRng(27),
        )
        assert not np.array_equal(out["conv0_w"], before["conv0_w"])
        for k in out:
            if not k.startswith("conv"):
                assert np.array_equal(out[k], before[k]), k
        assert "cls_w" not in out
        for k in params:
            assert np.array_equal(params[k], before[k])


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [{"lr": 0.0}, {"temperature": -1.0}, {"aucm_margin": 0.0}])
    def test_rejects_nonpositive_scalars(self, kw):
        with pytest.raises(ValueError):
            FinetuneConfig(**kw)

    def test_rejects_tiny_batch(self):
        with pytest.raises(ValueError, match="batch size"):
            FinetuneConfig(batch_size=1)
