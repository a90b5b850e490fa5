"""Small convolutional encoder with projection and classification heads.

The backbone is a stack of strided 3x3 conv + relu stages whose final
activation is kept as a spatial feature map: d channels observed at m
spatial positions. Downstream code treats channels as variables and
positions as observations, so the map is handed over as a (d, m) matrix
rather than pooled away.

Heads:
  * projection: global mean pool -> affine + relu -> affine -> L2
    normalize, used only during contrastive pretraining,
  * classification: global mean pool -> affine to n_classes raw scores.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import Graph, Var, config_digest, forward_eval, l2_normalize
from .core import load_checkpoint as _load_ck
from .core import save_checkpoint as _save_ck
from .core.rng import SeededRng


@dataclass(frozen=True)
class EncoderConfig:
    size: int = 16  # input images are size x size, one channel
    # (out_channels, kernel, stride) per stage; padding is kernel // 2
    stages: tuple[tuple[int, int, int], ...] = ((8, 3, 2), (16, 3, 2))
    proj_hidden: int = 32
    proj_dim: int = 16

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("encoder needs at least one conv stage")
        for i, (out_ch, k, s) in enumerate(self.stages):
            if not 1 <= k <= 5:
                raise ValueError(f"stages[{i}]: kernel {k} is outside the supported 1x1 to 5x5 range")
            if out_ch < 1 or s < 1:
                raise ValueError(f"stages[{i}]: conv stage channels and stride must be positive")
        if self.feature_dim < 2:
            raise ValueError("feature map needs at least 2 channels")
        if self.out_size < 2:
            raise ValueError("feature map needs at least 2 spatial positions")

    @property
    def out_size(self) -> int:
        """Side length of the square feature map."""
        side = self.size
        for _, k, s in self.stages:
            side = (side + 2 * (k // 2) - k) // s + 1
        return side

    @property
    def feature_dim(self) -> int:
        return self.stages[-1][0]

    @property
    def num_positions(self) -> int:
        return self.out_size**2

    def digest(self) -> str:
        return config_digest(dataclasses.asdict(self))


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_params(config: EncoderConfig, rng: SeededRng, dtype=np.float32) -> dict[str, np.ndarray]:
    """Backbone + projection head weights; uniform +-sqrt(6/(fan_in+fan_out)), zero biases.

    Draw order is fixed by construction, so one (seed, stream) pins every weight.
    """
    gen = rng.generator()
    params: dict[str, np.ndarray] = {}
    in_ch = 1
    for i, (out_ch, k, _s) in enumerate(config.stages):
        fan_in = in_ch * k * k
        fan_out = out_ch * k * k
        params[f"conv{i}_w"] = _glorot(gen, (out_ch, in_ch, k, k), fan_in, fan_out, dtype)
        params[f"conv{i}_b"] = np.zeros(out_ch, dtype=dtype)
        in_ch = out_ch
    d, h, p = config.feature_dim, config.proj_hidden, config.proj_dim
    params["proj_w1"] = _glorot(gen, (d, h), d, h, dtype)
    params["proj_b1"] = np.zeros(h, dtype=dtype)
    params["proj_w2"] = _glorot(gen, (h, p), h, p, dtype)
    params["proj_b2"] = np.zeros(p, dtype=dtype)
    return params


def init_classifier(config: EncoderConfig, n_classes: int, rng: SeededRng, dtype=np.float32) -> dict[str, np.ndarray]:
    if n_classes < 2:
        raise ValueError(f"classifier needs at least 2 classes, got {n_classes}")
    gen = rng.generator()
    d = config.feature_dim
    return {
        "cls_w": _glorot(gen, (d, n_classes), d, n_classes, dtype),
        "cls_b": np.zeros(n_classes, dtype=dtype),
    }


# ---------------------------------------------------------------------------
# graph builders (shared by training loops and the pure APIs below)


def bind_params(g: Graph, params: dict[str, np.ndarray]) -> dict[str, Var]:
    return {name: g.parameter(name, value) for name, value in params.items()}


def conv_stack(g: Graph, images: Var, refs: dict[str, Var], config: EncoderConfig) -> Var:
    """(B, 1, S, S) image batch -> (B, d, m) feature maps."""
    x = images
    for i, (_out_ch, k, s) in enumerate(config.stages):
        x = x.conv2d(refs[f"conv{i}_w"], refs[f"conv{i}_b"], stride=s, pad=k // 2).relu()
    return x.reshape((-1, config.feature_dim, config.num_positions))


def project_head(g: Graph, fmaps: Var, refs: dict[str, Var], config: EncoderConfig) -> Var:
    """(B, d, m) -> (B, p) unit-norm projections."""
    pooled = fmaps.mean(axis=2)
    hidden = (pooled @ refs["proj_w1"] + refs["proj_b1"]).relu()
    return l2_normalize(hidden @ refs["proj_w2"] + refs["proj_b2"], axis=1)


def classify_head(g: Graph, fmaps: Var, refs: dict[str, Var]) -> Var:
    """(B, d, m) -> (B, n_classes) raw, unnormalized scores."""
    return fmaps.mean(axis=2) @ refs["cls_w"] + refs["cls_b"]


def to_nchw(images: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """(B, S, S) images -> a (B, 1, S, S) view, shape-checked against `config`."""
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[1:] != (config.size, config.size):
        raise ValueError(f"images are {images.shape}, encoder expects (B, {config.size}, {config.size})")
    return images[:, None]


# ---------------------------------------------------------------------------
# pure inference APIs


def encode(images: np.ndarray, config: EncoderConfig, params: dict[str, np.ndarray]) -> np.ndarray:
    """(B, S, S) images -> (B, d, m) feature maps, forward-only; deterministic."""
    nchw = to_nchw(images, config).astype(params["conv0_w"].dtype)
    g = Graph(forward_only=True)
    refs = bind_params(g, params)
    x = g.input("images", nchw.shape)
    fm = conv_stack(g, x, refs, config)
    forward_eval(g, {"images": nchw})
    return fm.value


def save_encoder_checkpoint(path: str, params: dict[str, np.ndarray], config: EncoderConfig) -> None:
    _save_ck(path, params, config.digest())


def load_encoder_checkpoint(path: str, config: EncoderConfig) -> dict[str, np.ndarray]:
    params, _ = _load_ck(path, expected_digest=config.digest())
    return params
