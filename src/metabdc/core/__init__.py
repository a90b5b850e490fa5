"""Minimal dense-array compute core: graphs, autodiff, rng, serialization."""

from .graph import (
    SQRT_GUARD_EPS,
    Graph,
    GraphError,
    ShapeMismatch,
    Var,
    backward,
    forward_eval,
    l2_normalize,
)
from .rng import SeededRng
from .serial import (
    SerializationError,
    config_digest,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "SQRT_GUARD_EPS",
    "Graph",
    "GraphError",
    "ShapeMismatch",
    "Var",
    "backward",
    "forward_eval",
    "l2_normalize",
    "SeededRng",
    "SerializationError",
    "config_digest",
    "load_checkpoint",
    "save_checkpoint",
]
