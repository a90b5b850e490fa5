import io
import itertools
import re
import struct

import numpy as np
import pytest

from metabdc.core import (
    Graph,
    GraphError,
    SeededRng,
    SerializationError,
    ShapeMismatch,
    backward,
    config_digest,
    forward_eval,
    l2_normalize,
    load_checkpoint,
    save_checkpoint,
)
from metabdc.core import graph as graph_module
from fresh_interpreter import traced_numbers
from gradcheck import grad_check
from oracles import col2im_slice_add_oracle, conv2d_oracle


def scalar_fn(build):
    """Wrap a graph builder into the (loss, grads) callable grad_check wants."""

    def fn(point):
        g = Graph()
        refs = {name: g.parameter(name, np.asarray(val, dtype=np.float64)) for name, val in point.items()}
        loss = build(g, refs)
        forward_eval(g)
        return float(loss.value), backward(g, loss)

    return fn


def test_forward_times_two():
    g = Graph()
    x = g.input("x", (None,))
    y = x * 2.0
    forward_eval(g, {"x": np.array([1.0, 2.0, 3.0])})
    assert np.array_equal(y.value, [2.0, 4.0, 6.0])


def test_backward_square_at_three():
    g = Graph()
    p = g.parameter("p", np.array([3.0]))
    loss = (p * p).sum()
    forward_eval(g)
    grads = backward(g, loss)
    np.testing.assert_allclose(grads["p"], [6.0], atol=1e-12)


def test_backward_cross_entropy_matches_finite_difference():
    rng = SeededRng(11).generator()
    labels = np.array([0, 2, 1])
    onehot = np.eye(3)[labels]

    def build(g, refs):
        logits = refs["logits"]
        logp = logits - logits.logsumexp(axis=1, keepdims=True)
        return -(logp * g.constant(onehot)).sum() / 3.0

    point = {"logits": rng.normal(size=(3, 3))}
    assert grad_check(scalar_fn(build), point, eps=1e-6) <= 1e-5


def test_grad_check_rejects_bad_eps():
    fn = scalar_fn(lambda g, refs: (refs["x"] * refs["x"]).sum())
    with pytest.raises(ValueError):
        grad_check(fn, {"x": np.ones(2)}, eps=0.0)
    with pytest.raises(ValueError):
        grad_check(fn, {"x": np.ones(2)}, eps=-1e-6)


def test_grad_check_sum_of_squares_tight():
    fn = scalar_fn(lambda g, refs: (refs["x"] * refs["x"]).sum())
    rng = SeededRng(5).generator()
    err = grad_check(fn, {"x": rng.normal(size=(4, 3))}, eps=1e-6)
    assert err <= 1e-6


def test_backward_requires_scalar():
    g = Graph()
    p = g.parameter("p", np.ones(3))
    vec = p * 2.0
    forward_eval(g)
    with pytest.raises(GraphError):
        backward(g, vec)


def test_backward_requires_forward_first():
    g = Graph()
    p = g.parameter("p", np.ones(3))
    loss = (p * p).sum()
    with pytest.raises(GraphError):
        backward(g, loss)


def test_shape_mismatch_names_node_and_shapes():
    g = Graph()
    x = g.input("x", (2, 3))
    with pytest.raises(ShapeMismatch) as exc:
        forward_eval(g, {"x": np.ones((4, 3))})
    assert exc.value.node == x.idx
    assert exc.value.op == "input:x"
    assert exc.value.expected == (2, 3)
    assert exc.value.actual == (4, 3)
    assert "node" in str(exc.value)


@pytest.mark.parametrize(
    "op, build",
    [
        ("matmul", lambda g: g.parameter("a", np.ones((2, 3))) @ g.parameter("b", np.ones((4, 2)))),
        ("conv2d", lambda g: g.parameter("x", np.ones((2, 3, 5))).conv2d(np.ones((4, 3, 3, 3)), np.ones(4), 1, 1)),
        ("conv2d", lambda g: g.parameter("x", np.ones((2, 2, 5, 5))).conv2d(np.ones((4, 3, 3, 3)), np.ones(4), 1, 1)),
        ("bdc", lambda g: g.parameter("x", np.ones((4, 4))).bdc()),
        ("add", lambda g: g.parameter("a", np.ones((2, 3))) + g.parameter("b", np.ones(4))),
        ("zero_diagonal", lambda g: g.parameter("x", np.ones((2, 3))).zero_diagonal()),
        ("diagonal", lambda g: g.parameter("x", np.ones((2, 2, 2))).diagonal()),
    ],
    ids=[
        "matmul-inner-dim",
        "conv2d-rank",
        "conv2d-in-channels",
        "bdc-rank",
        "add-broadcast",
        "zero_diagonal-square",
        "diagonal-rank",
    ],
)
def test_shape_mismatch_names_node_and_op(op, build):
    g = Graph()
    bad = build(g)
    _ = bad * 2.0
    with pytest.raises(ShapeMismatch) as exc:
        forward_eval(g)
    assert exc.value.node == bad.idx
    assert exc.value.op == op
    assert f"node {bad.idx} ({op})" in str(exc.value)


def test_emit_rejects_an_unknown_op_kind():
    g = Graph()
    x = g.parameter("x", np.ones(3))
    with pytest.raises(GraphError, match="unknown op 'cube'"):
        g._emit("cube", (x,))


def test_missing_and_unknown_inputs_error():
    g = Graph()
    g.input("x", (None,))
    with pytest.raises(GraphError):
        forward_eval(g, {})
    with pytest.raises(GraphError):
        forward_eval(g, {"x": np.ones(1), "bogus": np.ones(1)})


def test_gradient_accumulation_is_linear():
    # backward of (L1 + L2) == backward of L1 plus backward of L2
    rng = SeededRng(23).generator()
    w0 = rng.normal(size=(4, 4))
    x0 = rng.normal(size=(5, 4))

    def grads_of(which):
        g = Graph()
        w = g.parameter("w", w0.copy())
        x = g.constant(x0)
        h = (x @ w).relu()
        l1 = (h * h).sum()
        l2 = (x @ w).logsumexp(axis=1).sum()
        loss = {"l1": l1, "l2": l2, "both": l1 + l2}[which]
        forward_eval(g)
        return backward(g, loss)["w"]

    combined = grads_of("both")
    separate = grads_of("l1") + grads_of("l2")
    assert np.abs(combined - separate).max() <= 1e-12


def test_forward_backward_bit_identical_across_runs():
    def run():
        rng = SeededRng(99, 3).generator()
        g = Graph()
        x = g.parameter("x", rng.normal(size=(3, 2, 8, 8)))
        w = g.parameter("w", rng.normal(size=(4, 2, 3, 3)))
        b = g.parameter("b", rng.normal(size=(4,)))
        y = x.conv2d(w, b, stride=2, pad=1)
        loss = (y * y).sum()
        forward_eval(g)
        grads = backward(g, loss)
        return loss.value.copy(), {k: v.copy() for k, v in grads.items()}

    la, ga = run()
    lb, gb = run()
    assert np.array_equal(la, lb)
    for k in ga:
        assert np.array_equal(ga[k], gb[k])


def _encode_bdc_graph(forward_only):
    """An encode-shaped stack, two conv + relu stages reshaped to (B, d, m)
    maps, then one bdc node: (graph, images input, first conv, maps, bdc).
    The bdc node reads the maps and is read by nothing."""
    rng = SeededRng(61).generator()
    g = Graph(forward_only=forward_only)
    x = g.input("images", (3, 1, 16, 16))
    w0 = g.parameter("w0", rng.normal(size=(4, 1, 3, 3)).astype(np.float32))
    b0 = g.parameter("b0", rng.normal(size=4).astype(np.float32))
    w1 = g.parameter("w1", rng.normal(size=(6, 4, 3, 3)).astype(np.float32))
    b1 = g.parameter("b1", rng.normal(size=6).astype(np.float32))
    conv0 = x.conv2d(w0, b0, stride=2, pad=1)
    fm = conv0.relu().conv2d(w1, b1, stride=2, pad=1).relu().reshape((-1, 6, 16))
    return g, x, conv0, fm, fm.bdc()


def _encode_bdc_feeds():
    return {"images": SeededRng(62).generator().normal(size=(3, 1, 16, 16)).astype(np.float32)}


def test_forward_only_graph_keeps_the_bytes_and_frees_interior_values():
    """A forward-only sweep gives the bdc matrices byte-equal to a full
    sweep of the same graph, keeps leaves and the unread bdc node, frees
    every other interior value (the maps too, once bdc has read them) and
    keeps no VJP cache."""
    full, *_, full_bdc = _encode_bdc_graph(forward_only=False)
    forward_eval(full, _encode_bdc_feeds())
    g, x, conv0, fm, bdc = _encode_bdc_graph(forward_only=True)
    forward_eval(g, _encode_bdc_feeds())
    assert bdc.value.dtype == full_bdc.value.dtype and np.array_equal(bdc.value, full_bdc.value)
    assert x.value.shape == (3, 1, 16, 16)
    for freed in (conv0, fm):
        with pytest.raises(GraphError, match="forward-only"):
            freed.value
    kept = {i for i, v in enumerate(g.values) if v is not None and g.nodes[i].parents}
    assert kept == {bdc.idx}
    assert all(slot is None for slot in g.saved)
    assert all(full.saved[i] is not None for i, node in enumerate(full.nodes) if node.op in ("conv2d", "bdc"))


def test_backward_rejects_a_forward_only_graph():
    g, *_, bdc = _encode_bdc_graph(forward_only=True)
    loss = (bdc * bdc).sum()
    forward_eval(g, _encode_bdc_feeds())
    with pytest.raises(GraphError, match="forward-only graph"):
        backward(g, loss)


def test_a_default_graph_keeps_every_value_and_differentiates():
    g, *_, bdc = _encode_bdc_graph(forward_only=False)
    loss = (bdc * bdc).sum()
    forward_eval(g, _encode_bdc_feeds())
    assert all(v is not None for v in g.values)
    grads = backward(g, loss)
    assert sorted(grads) == ["b0", "b1", "w0", "w1"]
    assert all(np.abs(grad).max() > 0 for grad in grads.values())


def test_backward_gives_constants_and_inputs_no_gradient(monkeypatch):
    """Parameter grads of a conv -> relu -> conv -> relu -> mul-by-constant ->
    matmul loss are bit-equal whether the images enter as an input or a
    constant (pruned sweep) or as a parameter (full sweep), and the conv
    that reads the images is never asked for their gradient."""
    rng = SeededRng(5).generator()
    images = rng.normal(size=(3, 1, 8, 8))
    params = {
        "w0": rng.normal(size=(4, 1, 3, 3)),
        "b0": rng.normal(size=(4,)),
        "w1": rng.normal(size=(5, 4, 3, 3)),
        "b1": rng.normal(size=(5,)),
        "head": rng.normal(size=(80, 2)),
    }
    scale = rng.normal(size=(3, 5, 4, 4))
    calls = []
    real_vjp = graph_module._conv2d_vjp

    def spy(grad, x, w, stride, pad, need_x, cols):
        calls.append((x.shape[1], need_x))
        return real_vjp(grad, x, w, stride, pad, need_x, cols)

    monkeypatch.setattr(graph_module, "_conv2d_vjp", spy)

    def param_grads(leaf):
        g = Graph()
        if leaf == "input":
            x = g.input("images", images.shape)
        elif leaf == "const":
            x = g.constant(images)
        else:
            x = g.parameter("images", images.copy())
        refs = {name: g.parameter(name, val.copy()) for name, val in params.items()}
        h = x.conv2d(refs["w0"], refs["b0"], stride=1, pad=1).relu()
        h = h.conv2d(refs["w1"], refs["b1"], stride=2, pad=1).relu() * scale
        y = h.reshape((3, 80)) @ refs["head"]
        loss = (y * y).sum()
        forward_eval(g, {"images": images} if leaf == "input" else None)
        grads = backward(g, loss)
        return {name: grads[name] for name in params}

    full = param_grads("param")
    assert calls == [(4, True), (1, True)]
    for leaf in ("input", "const"):
        calls.clear()
        pruned = param_grads(leaf)
        assert calls == [(4, True), (1, False)], leaf
        for name in params:
            assert np.array_equal(pruned[name], full[name]), (leaf, name)


def test_conv2d_matches_explicit_loop():
    """Forward, dx, dw and db of the graph's conv equal the literal-loop
    oracle in float64 over kernels 1-5, strides 1-3, every padding up to
    k // 2, a non-square odd input and one or three input channels."""
    rng = SeededRng(41).generator()
    cases = 0
    for k, stride, channels in itertools.product((1, 2, 3, 5), (1, 2, 3), (1, 3)):
        for pad in range(k // 2 + 1):
            x = rng.normal(size=(2, channels, 7, 9))
            w = rng.normal(size=(3, channels, k, k))
            b = rng.normal(size=(3,))
            g = Graph()
            xv, wv, bv = g.parameter("x", x), g.parameter("w", w), g.parameter("b", b)
            y = xv.conv2d(wv, bv, stride, pad)
            out_hw = ((7 + 2 * pad - k) // stride + 1, (9 + 2 * pad - k) // stride + 1)
            up = g.constant(rng.normal(size=(2, 3, *out_hw)))
            loss = (y * up).sum()
            forward_eval(g)
            grads = backward(g, loss)
            want = conv2d_oracle(x, w, b, stride, pad, up.value)
            for got, ref in zip((y.value, grads["x"], grads["w"], grads["b"]), want):
                assert got.shape == ref.shape, (k, stride, pad, channels)
                assert np.abs(got - ref).max() <= 1e-12, (k, stride, pad, channels)
            dx, dw, db = graph_module._conv2d_vjp(up.value, x, w, stride, pad, False, g.saved[y.idx])
            assert dx is None
            assert np.array_equal(dw, grads["w"]) and np.array_equal(db, grads["b"])
            cases += 1
    assert cases == 48


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_dx_keeps_the_bytes_of_the_batch_major_col2im(dtype):
    """dx, scattered with the batch innermost, is byte-equal to the
    (B, C)-major slice-add over the conv grid of the explicit-loop test."""
    rng = SeededRng(47).generator()
    cases = 0
    for k, stride, channels in itertools.product((1, 2, 3, 5), (1, 2, 3), (1, 3)):
        for pad in range(k // 2 + 1):
            x = rng.normal(size=(2, channels, 7, 9)).astype(dtype)
            w = rng.normal(size=(3, channels, k, k)).astype(dtype)
            _, cols = graph_module._conv2d_forward(x, w, np.zeros(3, dtype=dtype), stride, pad)
            out_hw = ((7 + 2 * pad - k) // stride + 1, (9 + 2 * pad - k) // stride + 1)
            grad = rng.normal(size=(2, 3, *out_hw)).astype(dtype)
            dx, _, _ = graph_module._conv2d_vjp(grad, x, w, stride, pad, True, cols)
            want = col2im_slice_add_oracle(grad, x.shape, x.dtype, w, stride, pad)
            assert dx.dtype == want.dtype and np.array_equal(dx, want), (k, stride, pad, channels)
            cases += 1
    assert cases == 48


def test_conv2d_vjp_returns_dx_in_the_input_dtype():
    """A float64 output gradient, as fine-tuning sends through the BDC head,
    gives a float32 input a float32 dx, byte-equal to the (B, C)-major
    slice-add's."""
    rng = SeededRng(43).generator()
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    grad = rng.normal(size=(2, 4, 4, 4))
    _, cols = graph_module._conv2d_forward(x, w, np.zeros(4, dtype=np.float32), 2, 1)
    dx, dw, _ = graph_module._conv2d_vjp(grad, x, w, 2, 1, True, cols)
    assert dx.dtype == np.float32 and dx.shape == x.shape
    assert np.array_equal(dx, col2im_slice_add_oracle(grad, x.shape, x.dtype, w, 2, 1))
    assert dw.dtype == np.float64


_IM2COL_LOOP = """
import gc, tracemalloc
import numpy as np
from metabdc.core.graph import _im2col
x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
for pad in (0, 1):
    _im2col(x, 3, 3, 1, pad, 6 + 2 * pad, 6 + 2 * pad)
tracemalloc.start()
for i in range(20_000):
    _im2col(x, 3, 3, 1, i % 2, 6 + 2 * (i % 2), 6 + 2 * (i % 2))
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_im2col_calls_leave_no_memory_behind():
    """20,000 im2col calls in a fresh interpreter keep under 64 KB traced.
    Built with np.lib.stride_tricks.as_strided, which reads
    __array_interface__ on every call, they kept about 0.96 MB: a resized
    interned-string table."""
    [live] = traced_numbers(_IM2COL_LOOP)
    assert live < 64 * 1024


def test_sqrt_guard_clamps_and_zeroes_gradient_below_eps():
    g = Graph()
    x = g.parameter("x", np.array([0.0, 1e-13, 4.0]))
    y = x.sqrt_guard()
    loss = y.sum()
    forward_eval(g)
    np.testing.assert_allclose(y.value, [1e-6, 1e-6, 2.0], atol=1e-12)
    grads = backward(g, loss)
    np.testing.assert_allclose(grads["x"], [0.0, 0.0, 0.25], atol=1e-12)


def test_logsumexp_stable_for_large_inputs():
    g = Graph()
    x = g.parameter("x", np.array([[1000.0, 1000.0]]))
    y = x.logsumexp(axis=1)
    forward_eval(g)
    out = y.value
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1000.0 + np.log(2.0)], atol=1e-9)


def test_l2_normalize_unit_norm():
    g = Graph()
    x = g.parameter("x", np.array([[3.0, 4.0], [0.1, 0.0]]))
    z = l2_normalize(x, axis=1)
    forward_eval(g)
    np.testing.assert_allclose(np.linalg.norm(z.value, axis=1), [1.0, 1.0], atol=1e-9)


def test_every_primitive_op_gradchecks():
    """One case per op kind in the op table, so an op added without a
    gradcheck case fails here."""
    rng = SeededRng(77).generator()

    def square(v):
        return (v * v).sum()

    cases = {
        "add": lambda g, r: (r["a"] + r["b"]).sum(),
        "sub": lambda g, r: (r["a"] - r["b"]).sum(),
        "mul": lambda g, r: (r["a"] * r["b"]).sum(),
        "div": lambda g, r: (r["a"] / (r["b"] * r["b"] + 2.0)).sum(),
        "neg": lambda g, r: (-r["a"]).sum(),
        "exp": lambda g, r: r["a"].exp().sum(),
        "log": lambda g, r: (r["a"] * r["a"] + 1.0).log().sum(),
        "relu": lambda g, r: r["a"].relu().sum(),
        "sigmoid": lambda g, r: r["a"].sigmoid().sum(),
        "sqrt_guard": lambda g, r: (r["a"] * r["a"]).sqrt_guard().sum(),
        "matmul": lambda g, r: (r["a"] @ r["b"]).sum(),
        "sum": lambda g, r: square(r["a"].sum(axis=1)),
        "mean": lambda g, r: square(r["a"].mean(axis=0)),
        "logsumexp": lambda g, r: r["a"].logsumexp(axis=1).sum(),
        "reshape": lambda g, r: square(r["a"].reshape((16,))),
        "swap_last2": lambda g, r: (r["a"].swap_last2() @ r["a"]).sum(),
        "gather": lambda g, r: square(r["a"].gather(np.array([1, 1, 0]))),
        "zero_diagonal": lambda g, r: (r["a"].zero_diagonal() * r["b"]).sum(),
        "diagonal": lambda g, r: square(r["a"].diagonal()),
        "conv2d": lambda g, r: square(
            r["a"].reshape((1, 1, 4, 4)).conv2d(r["b"].reshape((4, 1, 2, 2)), np.ones(4), stride=2, pad=1)
        ),
        "bdc": lambda g, r: (r["a"].reshape((1, 4, 4)).bdc() * r["b"].reshape((1, 4, 4))).sum(),
    }
    assert set(cases) == set(graph_module._OPS)
    for name, build in cases.items():
        point = {"a": rng.normal(size=(4, 4)) * 0.7, "b": rng.normal(size=(4, 4)) * 0.7}
        err = grad_check(scalar_fn(build), point, eps=1e-6)
        assert err <= 1e-5, f"{name}: {err}"


def test_checkpoint_roundtrip_both_dtypes(tmp_path):
    rng = SeededRng(2).generator()
    params = {
        "f64": rng.normal(size=(3, 1, 5)),
        "f32": rng.normal(size=(3, 1, 5)).astype(np.float32),
        "scalar": np.array(4.25),
    }
    paths = [str(tmp_path / "a.mbcp"), str(tmp_path / "b.mbcp")]
    save_checkpoint(paths[0], params, "ab" * 32)
    save_checkpoint(paths[1], dict(reversed(params.items())), "ab" * 32)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()  # sorted members: insertion order does not reach the bytes
    loaded, digest = load_checkpoint(paths[0])
    assert digest == "ab" * 32 and sorted(loaded) == sorted(params)
    for name, arr in params.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def _saved(save, *args, **kwargs) -> bytes:
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


def _legacy_mbcp(digest: str, name: str, arr: np.ndarray) -> bytes:
    """One float64 parameter in the hand-written layout `.mbcp` files had
    before they became .npz archives."""
    head = b"MBCP" + struct.pack("<HH", 1, len(digest)) + digest.encode("ascii") + struct.pack("<I", 1)
    blob = b"MBDC" + struct.pack("<HBB", 1, 1, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return head + struct.pack("<H", len(name)) + name.encode("utf-8") + blob + arr.astype("<f8").tobytes()


_GOOD = _saved(np.savez, digest="ab" * 32, w=np.ones((2, 2)))


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"", "not a readable .npz"),
        (_GOOD[:-8], "not a readable .npz"),
        (_legacy_mbcp("ab" * 32, "w", np.ones((2, 2))), "not a readable .npz"),
        (_saved(np.save, np.ones(3)), "not a readable .npz"),
        (_saved(np.savez, digest=np.array("x"), w=np.array([1.0, None], dtype=object)), "not a readable .npz"),
        (_saved(np.savez, digest=np.array("x"), w=np.arange(3)), "member 'w' has dtype int64"),
        (_saved(np.savez, w=np.ones(3)), "no string digest member"),
        (_saved(np.savez, digest=np.array(b"x"), w=np.ones(3)), "no string digest member"),
    ],
    ids=["empty", "truncated", "legacy-mbcp", "bare-npy", "object-member", "int-member", "no-digest", "bytes-digest"],
)
def test_malformed_checkpoint_is_refused_naming_the_path(tmp_path, blob, message):
    path = str(tmp_path / "bad.mbcp")
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(SerializationError, match=re.escape(path) + ".*" + re.escape(message)):
        load_checkpoint(path)


def test_checkpoint_roundtrip_and_digest_mismatch(tmp_path):
    rng = SeededRng(6).generator()
    params = {"conv1_w": rng.normal(size=(4, 1, 3, 3)).astype(np.float32), "proj_b": np.zeros(8, np.float32)}
    digest = config_digest({"stages": [[4, 3, 2]]})
    path = str(tmp_path / "ck.mbcp")
    save_checkpoint(path, params, digest)
    loaded, got_digest = load_checkpoint(path, expected_digest=digest)
    assert got_digest == digest
    for k in params:
        assert np.array_equal(params[k], loaded[k])
    with pytest.raises(SerializationError):
        load_checkpoint(path, expected_digest="0" * 64)


def test_seeded_rng_repeatable_and_streams_independent():
    a1 = SeededRng(123, 0).generator().normal(size=10)
    a2 = SeededRng(123, 0).generator().normal(size=10)
    b = SeededRng(123, 1).generator().normal(size=10)
    c = SeededRng(124, 0).generator().normal(size=10)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_seeded_rng_children_deterministic_and_distinct():
    root = SeededRng(55)
    kids = [root.child(i) for i in range(50)]
    assert len({k.stream for k in kids}) == 50
    assert root.child(7) == root.child(7)
    assert root.child(7).child(3) != root.child(3).child(7)


def test_seeded_rng_rejects_out_of_range():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(0, 1 << 64)
