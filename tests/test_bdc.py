import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metabdc.bdc import (
    bdc_matrix,
    class_prototypes,
    episode_classify,
    prototypes_graph,
    scores_graph,
)
from metabdc.core import Graph, SeededRng, backward, forward_eval
from gradcheck import grad_check
from oracles import bdc_chain_graph, bdc_oracle, bdc_vjp_oracle, prototype_oracle, score_oracle


def one(x: np.ndarray) -> np.ndarray:
    """BDC matrix of a single (d, m) map through the batched API."""
    return bdc_matrix(x[None])[0]


def test_hand_worked_two_channel_example():
    got = one(np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(got, [[-2.5, 2.5], [2.5, -2.5]], atol=1e-5)


def test_matches_loop_oracle_on_random_maps():
    rng = SeededRng(17).generator()
    for _ in range(20):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(2, 11))
        batch = rng.normal(size=(3, d, m)) * rng.uniform(0.1, 3.0)
        got = bdc_matrix(batch)
        assert got.shape == (3, d, d)
        for i in range(3):
            assert np.abs(got[i] - bdc_oracle(batch[i])).max() <= 1e-10


def test_symmetry_row_sums_translation_invariance():
    rng = SeededRng(29).generator()
    x = rng.normal(size=(6, 9))
    a = one(x)
    assert np.abs(a - a.T).max() <= 1e-9
    assert np.abs(a.sum(axis=1)).max() <= 1e-8
    shifted = one(x + 4.2)
    assert np.abs(a - shifted).max() <= 1e-9


def test_identical_channels_give_zero_matrix():
    row = np.linspace(-1, 1, 7)
    x = np.tile(row, (5, 1))
    a = one(x)
    assert np.abs(a).max() <= 1e-9


def test_zero_channels_have_exactly_zero_self_distance():
    # ReLU maps often hold all-zero channels; those channels coincide, and
    # their distance to each other is the same exact zero as to themselves.
    gen = np.random.default_rng(3)
    x = np.maximum(gen.normal(size=(16, 16)), 0.0).astype(np.float32)
    zero = [2, 5, 11]
    x[zero] = 0.0
    a = one(x)
    assert a.dtype == np.float64
    assert np.abs(a - bdc_oracle(x)).max() <= 1e-6
    block = a[np.ix_(zero, zero)]
    assert np.array_equal(block, np.full_like(block, a[2, 2]))
    assert np.array_equal(a[2], a[5]) and np.array_equal(a[2], a[11])
    # all channels coincident: the whole matrix, diagonal included, is exactly zero
    assert np.array_equal(one(np.zeros((4, 9), dtype=np.float32)), np.zeros((4, 4)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_channel_permutation_conjugates_the_matrix(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 6))
    perm = rng.permutation(5)
    a = one(x)
    b = one(x[perm])
    assert np.abs(b - a[np.ix_(perm, perm)]).max() <= 1e-9


def test_graph_variant_matches_numpy_path():
    """The differentiable form (parameter leaves, as in training) gives the
    forward-only array API's values and agrees with the literal oracle."""
    rng = SeededRng(5).generator()
    batch = rng.normal(size=(4, 6, 8))
    g = Graph()
    x = g.parameter("x", batch)
    a = x.bdc()
    forward_eval(g)
    out = a.value
    assert np.array_equal(out, bdc_matrix(batch))
    for i in range(4):
        assert np.abs(out[i] - bdc_oracle(batch[i])).max() <= 1e-9


def test_rejects_a_map_that_is_not_a_batch():
    with pytest.raises(ValueError, match="B, d, m"):
        bdc_matrix(np.zeros((4, 6)))


def test_scalar_of_bdc_gradchecks_including_small_distances():
    rng = SeededRng(61).generator()
    base = rng.normal(size=(4, 6))
    # second channel sits close to the first: small but non-degenerate distances
    base[1] = base[0] + 1e-3 * rng.normal(size=6)
    weights = rng.normal(size=(4, 4))

    def fn(point):
        g = Graph()
        x = g.parameter("x", point["x"].reshape(1, 4, 6))
        a = x.bdc()
        loss = (a.reshape((4, 4)) * g.constant(weights)).sum()
        forward_eval(g)
        grads = backward(g, loss)
        return float(loss.value), {"x": grads["x"].reshape(4, 6)}

    assert grad_check(fn, {"x": base}, eps=1e-7) <= 1e-4


def test_bdc_op_forward_equals_the_primitive_chain_bit_for_bit():
    """The op repeats the primitive chain's float ops in order, on float32
    maps as training feeds it and on float64 maps, coincident and all-zero
    channels included; its VJP differs from the chain's only in rounding."""
    rng = SeededRng(73).generator()
    for dtype, (b, d, m) in itertools.product((np.float32, np.float64), ((1, 2, 1), (3, 4, 3), (25, 16, 16))):
        batch = np.maximum(rng.normal(size=(b, d, m)), 0.0).astype(dtype)
        batch[0, 1] = batch[0, 0]
        batch[-1, -1] = 0.0
        upstream = rng.normal(size=(b, d, d))
        out, grads = [], []
        for build in (bdc_chain_graph, lambda g, x, d: x.bdc()):
            g = Graph()
            x = g.parameter("x", batch)
            a = build(g, x, d)
            loss = (a * g.constant(upstream)).sum()
            forward_eval(g)
            out.append(a.value)
            grads.append(backward(g, loss)["x"])
        assert out[0].dtype == out[1].dtype == np.float64
        assert np.array_equal(out[1], out[0]), (dtype, b, d, m)
        assert np.abs(grads[1] - grads[0]).max() <= 1e-13 * max(1.0, np.abs(grads[0]).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bdc_vjp_matches_loop_oracle(dtype):
    """The op's gradient into its maps against the term-by-term oracle at the
    squared distances the forward kept, with channels 0 and 1 of the first
    map coincident so the clamp branch runs off the diagonal too."""
    rng = SeededRng(71).generator()
    for b, d, m in itertools.product((1, 3, 30), (2, 4, 16), (1, 3, 16)):
        batch = rng.normal(size=(b, d, m)).astype(dtype)
        batch[0, 1] = batch[0, 0]
        upstream = rng.normal(size=(b, d, d))
        g = Graph()
        x = g.parameter("x", batch)
        a = x.bdc()
        loss = (a * g.constant(upstream)).sum()
        forward_eval(g)
        got = backward(g, loss)["x"]
        sq = g.saved[a.idx][0]
        for i in range(b):
            want = bdc_vjp_oracle(batch[i], upstream[i], sq[i])
            assert np.abs(got[i] - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (b, d, m, i)


def test_prototypes_are_classwise_means():
    mats = np.stack([np.full((2, 2), v) for v in [1.0, 3.0, 10.0, 20.0]])
    protos = class_prototypes(mats, 2)
    assert protos.shape == (2, 2, 2)
    np.testing.assert_allclose(protos[0], np.full((2, 2), 2.0))
    np.testing.assert_allclose(protos[1], np.full((2, 2), 15.0))
    rng = SeededRng(8).generator()
    support = rng.normal(size=(6, 3, 3))
    want = prototype_oracle(support, [0, 0, 1, 1, 2, 2])
    got = class_prototypes(support, 3)
    for c in range(3):
        assert np.abs(got[c] - want[c]).max() <= 1e-12
    with pytest.raises(ValueError):
        class_prototypes(mats, 3)
    with pytest.raises(ValueError):
        class_prototypes(mats[:, :, :1], 2)


def test_episode_classify_prefers_nearer_prototype():
    q = np.eye(3)[None]
    # class 0 prototype equals the query, class 1 is far away
    protos = np.stack([np.eye(3), np.eye(3) * 5.0])
    scores = episode_classify(q, protos)
    assert scores.shape == (1, 2)
    assert scores[0, 0] > scores[0, 1]
    np.testing.assert_allclose(scores, score_oracle(q, protos), atol=1e-12)


def test_episode_classify_inner_product_and_validation():
    """The score is the negative squared distance, not the inner product: a
    scaled copy of the query wins on inner product but loses here."""
    q = np.eye(2)[None]
    protos = np.stack([np.eye(2), np.eye(2) * 5.0])
    scores = episode_classify(q, protos)
    assert np.einsum("qij,nij->qn", q, protos)[0].argmax() == 1
    assert scores[0].argmax() == 0
    np.testing.assert_allclose(scores, score_oracle(q, protos), atol=1e-12)
    with pytest.raises(TypeError):
        episode_classify(q, protos, metric="inner_product")
    with pytest.raises(ValueError):
        episode_classify(np.zeros((0, 2, 2)), protos)
    with pytest.raises(ValueError):
        episode_classify(np.eye(3)[None], protos)


def test_episode_scores_graph_matches_numpy():
    """Prototype and scoring builders composed on parameter leaves, as the
    episode loss composes them, against the literal oracles."""
    rng = SeededRng(44).generator()
    n, k, qn, d = 3, 2, 4, 5
    support = rng.normal(size=(n * k, d, d))
    queries = rng.normal(size=(qn, d, d))
    protos = prototype_oracle(support, np.repeat(np.arange(n), k))
    g = Graph()
    s = g.parameter("s", support)
    q = g.parameter("q", queries)
    scores = scores_graph(q, prototypes_graph(s, n, k, d), n, d)
    forward_eval(g)
    got = scores.value
    ref = score_oracle(queries, [protos[c] for c in range(n)])
    assert np.abs(got - ref).max() <= 1e-9
    assert np.array_equal(got, episode_classify(queries, class_prototypes(support, n)))
