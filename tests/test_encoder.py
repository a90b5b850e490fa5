import ctypes
import glob
import os

import numpy as np
import pytest

from metabdc.core import Graph, SeededRng, backward, forward_eval
from metabdc.data import ImageSet
from metabdc.encoder import (
    EncoderConfig,
    bind_params,
    classify_head,
    conv_stack,
    encode,
    init_classifier,
    init_params,
    load_encoder_checkpoint,
    project_head,
    save_encoder_checkpoint,
)
from metabdc.finetune import classifier_scores
from metabdc.ssl import _embed_dataset
from fresh_interpreter import run_snippet
from gradcheck import grad_check

TINY = EncoderConfig(size=8, stages=((3, 3, 2), (4, 3, 2)), proj_hidden=5, proj_dim=4)


def test_default_config_geometry():
    cfg = EncoderConfig()
    assert cfg.feature_dim == 16
    assert cfg.out_size == 4
    assert cfg.num_positions == 16


def test_default_digest_is_pinned():
    # checkpoints carry this digest; a change would refuse every saved .mbcp
    assert EncoderConfig().digest() == "2eeeda44dce57d0f645da1079b681a62ba1f89adf0442440f76e6a670b59233b"


def test_config_rejects_bad_stages():
    with pytest.raises(ValueError):
        EncoderConfig(stages=((16, 7, 2),))  # kernel beyond 5x5
    with pytest.raises(ValueError):
        EncoderConfig(size=2, stages=((4, 3, 2), (4, 3, 2), (4, 3, 2)))  # m collapses
    with pytest.raises(ValueError):
        EncoderConfig(stages=((1, 3, 2),))  # d < 2
    with pytest.raises(ValueError, match=r"^stages\[0\]: kernel 0 "):
        EncoderConfig(stages=((8, 0, 2), (16, 3, 2)))
    with pytest.raises(ValueError, match=r"^stages\[1\]: kernel -1 "):
        EncoderConfig(stages=((8, 3, 2), (16, -1, 2)))


def check_batch_independence():
    """Each image's feature map is bit-identical whether it is encoded alone
    or in a batch of up to 256."""
    cfg = EncoderConfig()
    params = init_params(cfg, SeededRng(7))
    images = SeededRng(9).generator().normal(size=(256, 1, 16, 16)).astype(np.float32)

    def fmaps(batch):
        g = Graph()
        x = g.input("images", batch.shape)
        f = conv_stack(g, x, bind_params(g, params), cfg)
        forward_eval(g, {"images": batch})
        return f.value

    whole = fmaps(images)
    for size in (1, 10, 20, 30, 64, 256):
        for start in (0, 256 - size):
            assert np.array_equal(fmaps(images[start : start + size]), whole[start : start + size]), (size, start)


def test_conv_stack_output_does_not_depend_on_batch_size():
    """Training encodes support and query as two batches and evaluation
    encodes them as one, so their bit parity rests on this."""
    check_batch_independence()


def openblas_kernel() -> str | None:
    """The kernel numpy's OpenBLAS runs, or None where numpy's BLAS is not a
    DYNAMIC_ARCH OpenBLAS that reports it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                return getattr(lib, name)().decode()
    return None


@pytest.mark.parametrize("kernel", ["SkylakeX", "Haswell", "Sandybridge", "Prescott"])
def test_batch_independence_holds_under_each_blas_kernel(kernel):
    """OPENBLAS_CORETYPE forces one OpenBLAS kernel per process, standing in
    for another host's CPU; OpenBLAS falls back to a kernel this CPU can run,
    so the failure message names the kernel read back, not the one asked for."""
    if openblas_kernel() is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS that reports its kernel, so none can be forced")
    snippet = "import test_encoder\nprint(test_encoder.openblas_kernel())\ntest_encoder.check_batch_independence()"
    out = run_snippet(snippet, OPENBLAS_CORETYPE=kernel)
    ran = out.stdout.strip() or "unknown"
    assert out.returncode == 0, f"OPENBLAS_CORETYPE={kernel} ran kernel {ran}:\n{out.stderr[-2000:]}"


def test_init_bounds_and_determinism():
    cfg = TINY
    p1 = init_params(cfg, SeededRng(7), dtype=np.float64)
    p2 = init_params(cfg, SeededRng(7), dtype=np.float64)
    p3 = init_params(cfg, SeededRng(8), dtype=np.float64)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert any(not np.array_equal(p1[k], p3[k]) for k in p1)
    limit0 = np.sqrt(6.0 / (1 * 9 + 3 * 9))
    assert np.abs(p1["conv0_w"]).max() <= limit0
    assert np.array_equal(p1["conv0_b"], np.zeros(3))
    assert np.array_equal(p1["proj_b1"], np.zeros(5))


def test_encode_zero_image_finite_and_deterministic():
    cfg = TINY
    params = init_params(cfg, SeededRng(1))
    imgs = np.zeros((2, 8, 8), dtype=np.float32)
    fms = encode(imgs, cfg, params)
    assert fms.shape == (2, cfg.feature_dim, cfg.num_positions)
    assert np.isfinite(fms).all()
    again = encode(imgs, cfg, params)
    assert np.array_equal(fms, again)


def test_encode_rejects_wrong_shape():
    cfg = TINY
    params = init_params(cfg, SeededRng(1))
    with pytest.raises(ValueError):
        encode(np.zeros((2, 9, 8), dtype=np.float32), cfg, params)


def test_projection_unit_norm():
    params = init_params(TINY, SeededRng(3), dtype=np.float64)
    images = SeededRng(4).generator().normal(size=(6, TINY.size, TINY.size))
    z = _embed_dataset(images, params, TINY)
    assert z.shape == (6, TINY.proj_dim)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)


def test_classify_zero_weights_zero_scores():
    cfg = TINY
    head = init_classifier(cfg, 3, SeededRng(9))
    params = init_params(cfg, SeededRng(1))
    params.update({k: np.zeros_like(v) for k, v in head.items()})
    zeros = np.zeros(2, np.int64)
    split = ImageSet(np.ones((2, 8, 8), dtype=np.float32), zeros, zeros, zeros, zeros)
    scores = classifier_scores(params, cfg, split)
    assert scores.shape == (2, 3)
    assert np.array_equal(scores, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        init_classifier(cfg, 1, SeededRng(9))


def _generic_point(params, seed):
    # zero-init biases put relu kinks exactly at 0, which breaks central
    # differences; gradcheck wants a generic point, so jitter everything
    gen = SeededRng(seed).generator()
    return {k: v + 0.05 * gen.normal(size=v.shape) for k, v in params.items()}


def test_encoder_pipeline_gradcheck():
    cfg = TINY
    params = _generic_point(init_params(cfg, SeededRng(21), dtype=np.float64), 210)
    imgs = SeededRng(22).generator().normal(size=(2, 1, 8, 8))

    def fn(point):
        g = Graph()
        refs = bind_params(g, point)
        x = g.constant(imgs)
        fm = conv_stack(g, x, refs, cfg)
        z = project_head(g, fm, refs, cfg)
        loss = (z * g.constant(np.arange(8, dtype=np.float64).reshape(2, 4))).sum()
        forward_eval(g)
        return float(loss.value), backward(g, loss)

    assert grad_check(fn, params, eps=1e-6) <= 1e-4


def test_classify_head_gradcheck():
    cfg = TINY
    params = init_params(cfg, SeededRng(31), dtype=np.float64)
    params.update(init_classifier(cfg, 3, SeededRng(32), dtype=np.float64))
    params = _generic_point(params, 310)
    imgs = SeededRng(33).generator().normal(size=(2, 1, 8, 8))
    onehot = np.eye(3)[[0, 2]]

    def fn(point):
        g = Graph()
        refs = bind_params(g, point)
        fm = conv_stack(g, g.constant(imgs), refs, cfg)
        scores = classify_head(g, fm, refs)
        logp = scores - scores.logsumexp(axis=1, keepdims=True)
        loss = -(logp * g.constant(onehot)).sum()
        forward_eval(g)
        return float(loss.value), backward(g, loss)

    assert grad_check(fn, params, eps=1e-6) <= 1e-4


def test_checkpoint_roundtrip_and_config_guard(tmp_path):
    cfg = TINY
    params = init_params(cfg, SeededRng(13))
    path = str(tmp_path / "enc.mbcp")
    save_encoder_checkpoint(path, params, cfg)
    loaded = load_encoder_checkpoint(path, cfg)
    for k in params:
        assert np.array_equal(params[k], loaded[k])
    other = EncoderConfig(size=8, stages=((4, 3, 2), (4, 3, 2)), proj_hidden=5, proj_dim=4)
    with pytest.raises(Exception):
        load_encoder_checkpoint(path, other)
