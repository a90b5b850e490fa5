"""Plain-numpy image transforms shared by augmentation and preprocessing:
one bilinear sampler, which resizing and augmentation's rotated crops both
read pixels through, and one [-1, 1] pixel grid."""

from __future__ import annotations

import numpy as np


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def unit_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(yy, xx): each pixel's row and column coordinate, -1 at the first and 1 at the last."""
    return np.meshgrid(np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, w), indexing="ij")


def sample_bilinear(images: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Float64 bilinear samples of a (B, H, W) stack at float64 source
    coordinates broadcastable to (B, oh, ow), clipped to the image so edge
    pixels repeat past the border; each sample's four source pixels are
    taken by flat index and blended along columns, then along rows."""
    b, h, w = images.shape
    rows, cols = np.clip(rows, 0.0, h - 1.0), np.clip(cols, 0.0, w - 1.0)
    r0, c0 = np.floor(rows), np.floor(cols)
    fr, fc = rows - r0, cols - c0
    flat = images.reshape(-1)
    i00 = (np.arange(b) * (h * w))[:, None, None] + (r0 * w + c0).astype(np.int64)
    i10 = i00 + (r0 < h - 1) * w  # the next row and column stop at the last one
    right = c0 < w - 1
    upper = flat.take(i00) * (1 - fc) + flat.take(i00 + right) * fc
    lower = flat.take(i10) * (1 - fc) + flat.take(i10 + right) * fc
    return upper * (1 - fr) + lower * fr


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Center-aligned bilinear resize of a single-channel (H, W) image through `sample_bilinear`.

    Same-size calls return an exact copy, which keeps identity-configured
    augmentation bit-identical to its input.
    """
    if img.ndim != 2:
        raise ValueError(f"expected (H, W), got shape {img.shape}")
    h, w = img.shape
    if out_h <= 0 or out_w <= 0:
        raise ValueError("output size must be positive")
    if (out_h, out_w) == (h, w):
        return img.copy()
    rows = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    cols = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    return sample_bilinear(img[None], rows[None, :, None], cols[None, None, :])[0].astype(img.dtype, copy=False)


def crop_with_padding(img: np.ndarray, center_r: float, center_c: float, n_rows: int, n_cols: int) -> np.ndarray:
    """Crop an n_rows x n_cols window centered on (center_r, center_c) rounded half up.

    The window is clipped to the image; out-of-bounds area is zero-filled.
    """
    if img.ndim != 2:
        raise ValueError(f"expected (H, W), got shape {img.shape}")
    h, w = img.shape
    r0 = round_half_up(center_r) - n_rows // 2
    c0 = round_half_up(center_c) - n_cols // 2
    out = np.zeros((n_rows, n_cols), dtype=img.dtype)
    src_r0, src_r1 = max(r0, 0), min(r0 + n_rows, h)
    src_c0, src_c1 = max(c0, 0), min(c0 + n_cols, w)
    if src_r0 < src_r1 and src_c0 < src_c1:
        out[src_r0 - r0 : src_r1 - r0, src_c0 - c0 : src_c1 - c0] = img[src_r0:src_r1, src_c0:src_c1]
    return out
