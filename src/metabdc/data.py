"""Synthetic hierarchical imaging data, preprocessing, splits, episodes.

A dataset is one `ImageSet` from generation on: an (n, S, S) array of
single-channel pixels with row-aligned fine, coarse, group and domain labels.
Preprocessing crops each row to a physical field of view, resizes it and
z-scores each group's rows jointly; a split is a read-only subset of
rows, and an `Episode` is support and query row indices into a split.
Training loops draw each epoch's row order with `minibatches`.

Fine classes nest inside coarse classes: the coarse label fixes a
texture-scale cue (frequency band) that all its fine classes share, and
the fine label adds a finer cue (orientation for gratings, ring-center
displacement for rings). Nuisance factors (intensity bias, rotation and
phase jitter, pixel noise) are independent of class; the domain tag adds
an oriented intensity ramp and widens the noise, which survives the
group-level z-scoring that removes flat offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng
from .imageops import crop_with_padding, resize_bilinear, round_half_up, unit_grid


def fov_pixels(fov_mm: float, spacing: float) -> int:
    """Pixel count covering a physical field of view at the given spacing."""
    if spacing <= 0:
        raise ValueError("pixel spacing must be positive")
    return round_half_up(fov_mm / spacing)


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class HierarchySpec:
    """Total map fine -> coarse; index i of `mapping` is fine class i."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) < 2:
            raise ValueError("need at least 2 fine classes")
        if any(c < 0 for c in self.mapping):
            raise ValueError("coarse labels must be nonnegative")
        covered = set(self.mapping)
        if covered != set(range(self.n_coarse)):
            raise ValueError(f"coarse labels must cover 0..{self.n_coarse - 1} with no gaps")
        if self.n_coarse >= self.n_fine:
            raise ValueError("hierarchy must be strictly coarser than the fine labels")

    @property
    def n_fine(self) -> int:
        return len(self.mapping)

    @property
    def n_coarse(self) -> int:
        return max(self.mapping) + 1

    @classmethod
    def nested(cls, n_fine: int, n_coarse: int) -> "HierarchySpec":
        if n_fine % n_coarse != 0:
            raise ValueError("nested hierarchy needs n_fine divisible by n_coarse")
        block = n_fine // n_coarse
        return cls(tuple(f // block for f in range(n_fine)))


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int
    k_shot: int
    q_query: int
    label_space: str = "fine"  # or "coarse"

    def __post_init__(self) -> None:
        if self.n_way < 2:
            raise ValueError("episodes need at least 2 ways")
        if self.k_shot < 1 or self.q_query < 1:
            raise ValueError("shots and queries must be positive")
        if self.label_space not in ("fine", "coarse"):
            raise ValueError(f"unknown label space {self.label_space!r}")


@dataclass(frozen=True)
class ImageSet:
    """(n, S, S) single-channel pixels with row-aligned fine, coarse, group
    and domain labels; every array is made read-only."""

    pixels: np.ndarray
    fine: np.ndarray
    coarse: np.ndarray
    group: np.ndarray
    domain: np.ndarray

    def __post_init__(self) -> None:
        arrays = (self.pixels, self.fine, self.coarse, self.group, self.domain)
        if len({len(a) for a in arrays}) != 1:
            raise ValueError(f"rows are not aligned: lengths {[len(a) for a in arrays]}")
        for a in arrays:
            a.setflags(write=False)

    def take(self, rows) -> "ImageSet":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return ImageSet(self.pixels[rows], self.fine[rows], self.coarse[rows], self.group[rows], self.domain[rows])

    def __len__(self) -> int:
        return len(self.pixels)

    def labels(self, space: str) -> np.ndarray:
        return {"fine": self.fine, "coarse": self.coarse}[space]


@dataclass(frozen=True)
class Episode:
    """Support and query row indices into one split, class-major: block i
    of each holds class_list[i], so query labels are repeat(arange(N), q)."""

    support: np.ndarray
    query: np.ndarray
    class_list: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.class_list)
        if n < 2 or len(set(self.class_list)) != n:
            raise ValueError("class list must hold at least 2 distinct classes")
        if len(self.support) % n or len(self.query) % n:
            raise ValueError("support/query sizes must be multiples of the way count")
        if not set(self.support.tolist()).isdisjoint(self.query.tolist()):
            raise ValueError("support and query share an image")

    @property
    def n_way(self) -> int:
        return len(self.class_list)

    @property
    def k_shot(self) -> int:
        return len(self.support) // self.n_way

    @property
    def q_query(self) -> int:
        return len(self.query) // self.n_way


TEXTURE_FAMILIES = ("grating", "rings")


@dataclass(frozen=True)
class SyntheticConfig:
    count_per_fine: int = 64  # split evenly across the two domain tags
    image_size: int = 16
    hierarchy: HierarchySpec = HierarchySpec.nested(8, 2)
    texture_family: str = "grating"
    intensity_bias: float = 0.25
    rotation_jitter: float = 0.15  # radians
    phase_jitter: float = 0.3  # radians; kept small so class means stay informative
    noise: float = 0.35
    domain_shift: float = 1.0
    confound: float = 2.0  # domain-0-only intensity ramp signed by coarse class
    band_base: float = 3.0  # texture frequency of coarse class 0, cycles per image
    band_step: float = 1.0  # frequency gap between consecutive coarse classes
    group_size: int = 4
    px: float = 6.25
    py: float = 6.25
    seed: int = 7

    def __post_init__(self) -> None:
        if self.texture_family not in TEXTURE_FAMILIES:
            raise ValueError(f"unknown texture family {self.texture_family!r}")
        if self.count_per_fine < 2 or self.count_per_fine % 2:
            raise ValueError("count_per_fine must be even and >= 2")
        per_domain = self.count_per_fine // 2
        if per_domain % self.group_size:
            raise ValueError("per-domain count must be divisible by the group size")
        if self.image_size < 8:
            raise ValueError("image size too small")
        if min(self.intensity_bias, self.rotation_jitter, self.phase_jitter, self.noise, self.domain_shift) < 0:
            raise ValueError("factor strengths must be nonnegative")
        if self.confound < 0:
            raise ValueError("factor strengths must be nonnegative")
        if self.band_base <= 0 or self.band_step < 0:
            raise ValueError("need a positive base frequency and a nonnegative band step")
        for name in ("px", "py"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: pixel spacing must be positive, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# generation

# Each coarse class owns a texture frequency band, the cue its fine
# classes share. Fine identity sets the orientation (grating) or
# displacement direction (rings) on a single global wheel, so classes in
# one coarse class occupy adjacent slots on it.


def _texture(
    family: str, yy: np.ndarray, xx: np.ndarray, freq: float, fine: int, n_fine: int, rot: float, phase: float
) -> np.ndarray:
    if family == "grating":
        theta = np.pi * fine / n_fine + rot
        proj = xx * np.cos(theta) + yy * np.sin(theta)
        return np.sin(np.pi * freq * proj + phase)
    # rings: center displaced toward one of n_fine compass directions
    angle = 2.0 * np.pi * fine / n_fine + rot
    cy, cx = 0.35 * np.sin(angle), 0.35 * np.cos(angle)
    r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    return np.sin(np.pi * freq * r + phase)


def generate_synthetic(config: SyntheticConfig) -> ImageSet:
    """Deterministic dataset for the configured hierarchy and family.

    Rows run fine class, then domain tag, then group, then image; image
    i draws its nuisance factors from rng.child(i), and every image's
    texture and ramps are read off one `imageops.unit_grid`. Group ids are
    globally unique; each group holds images of a single (fine class,
    domain tag) pair, the patient-analogue granularity that split_dataset
    stratifies on.

    Domain 0 couples an intensity ramp to the coarse class (strength
    `confound`); domain 1 drops that coupling and instead applies a
    class-independent ramp plus extra noise. A model keying on the
    domain-0 shortcut loses it under the vendor shift.
    """
    h = config.hierarchy
    size = config.image_size
    n = h.n_fine * config.count_per_fine
    row = np.arange(n)
    fine = row // config.count_per_fine
    coarse = np.asarray(h.mapping, dtype=np.int64)[fine]
    domain = row // (config.count_per_fine // 2) % 2
    group = row // config.group_size
    yy, xx = unit_grid(size, size)
    pixels = np.empty((n, size, size), dtype=np.float32)
    rng = SeededRng(config.seed)
    for index, (f, c, dom) in enumerate(zip(fine.tolist(), coarse.tolist(), domain.tolist())):
        gen = rng.child(index).generator()
        rot = config.rotation_jitter * gen.uniform(-1, 1)
        phase = config.phase_jitter * gen.uniform(-1, 1)
        freq = config.band_base + config.band_step * c
        img = _texture(config.texture_family, yy, xx, freq, f, h.n_fine, rot, phase)
        img = img + config.intensity_bias * gen.uniform(-1, 1)
        noise_scale = config.noise
        if dom == 0:
            if h.n_coarse > 1:
                coef = 2.0 * c / (h.n_coarse - 1) - 1.0
                img = img + config.confound * coef * (0.6 * xx - 0.8 * yy)
        else:
            img = img + config.domain_shift * (0.8 * xx + 0.6 * yy)
            noise_scale = config.noise * (1.0 + config.domain_shift)
        pixels[index] = img + noise_scale * gen.normal(size=(size, size))
    return ImageSet(pixels, fine, coarse, group, domain)


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_dataset(images: ImageSet, px: float, py: float, fov_mm: float, out_size: int) -> ImageSet:
    """Physical-FOV crop around each image's center, resize to out_size x
    out_size, then z-score each group's pixels jointly (volume analogue).

    `px` and `py` are the source's column and row spacings in mm per
    pixel. The crop covers round(FOV/px) x round(FOV/py) pixels
    (half-up), zero-padded where it leaves the image; a crop that covers
    no pixel is an error. The pipeline passes the encoder's input size as
    `out_size`.
    """
    if fov_mm <= 0 or out_size <= 0:
        raise ValueError("FOV and output size must be positive")
    n_cols = fov_pixels(fov_mm, px)
    n_rows = fov_pixels(fov_mm, py)
    if n_rows < 1 or n_cols < 1:
        raise ValueError(f"a {fov_mm} mm FOV at spacings px {px}, py {py} crops {n_rows} x {n_cols} pixels")
    n, h, w = images.pixels.shape
    out = np.empty((n, out_size, out_size), dtype=images.pixels.dtype)
    for i, image in enumerate(images.pixels):
        patch = crop_with_padding(image, (h - 1) / 2.0, (w - 1) / 2.0, n_rows, n_cols)
        out[i] = resize_bilinear(patch, out_size, out_size)
    for gid in dict.fromkeys(images.group.tolist()):
        rows = np.flatnonzero(images.group == gid)
        block = out[rows]
        mean = float(block.mean())
        std = float(block.std())
        if std < 1e-8:
            raise ValueError(f"group {gid} is constant (std {std:.3e}); cannot z-score")
        out[rows] = (block - mean) / std
    return ImageSet(out, images.fine, images.coarse, images.group, images.domain)


# ---------------------------------------------------------------------------
# splitting


def split_dataset(
    images: ImageSet,
    train_tag: int,
    eval_tag: int,
    val_fraction: float,
) -> tuple[ImageSet, ImageSet, ImageSet]:
    """Domain-pure, group-stratified split.

    Train takes every train-tag row in row order; the eval tag is divided
    into val and test by whole groups, val getting the groups that bring
    its row count closest to `val_fraction` of the eval-tag rows.
    Groups are visited round-robin across fine classes (ascending group
    id within a class) so both halves cover every class rather than only
    the low-id ones, and val and test hold their groups' rows in that
    visiting order. A group spanning both tags is malformed.
    """
    if train_tag == eval_tag:
        raise ValueError("train and eval tags must differ")
    if not 0.0 <= val_fraction <= 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1], got {val_fraction}")

    tag_of_group: dict[int, int] = {}
    for gid, tag in zip(images.group.tolist(), images.domain.tolist()):
        if tag_of_group.setdefault(gid, tag) != tag:
            raise ValueError(f"group {gid} spans domain tags {sorted({tag, tag_of_group[gid]})}")
    present = set(tag_of_group.values())
    if train_tag not in present:
        raise ValueError(f"train tag {train_tag} absent from dataset")
    if eval_tag not in present:
        raise ValueError(f"eval tag {eval_tag} absent from dataset")

    eval_rows = np.flatnonzero(images.domain == eval_tag)
    by_group: dict[int, list[int]] = {}
    for row, gid in zip(eval_rows.tolist(), images.group[eval_rows].tolist()):
        by_group.setdefault(gid, []).append(row)

    queues: dict[int, list[int]] = {}
    for gid in sorted(by_group):
        queues.setdefault(int(images.fine[by_group[gid][0]]), []).append(gid)
    order: list[int] = []
    pending = [queues[c] for c in sorted(queues)]
    while any(pending):
        for q in pending:
            if q:
                order.append(q.pop(0))

    target_val = len(eval_rows) * val_fraction
    val: list[int] = []
    test: list[int] = []
    for gid in order:
        rows = by_group[gid]
        if abs(len(val) + len(rows) - target_val) <= abs(len(val) - target_val):
            val.extend(rows)
        else:
            test.extend(rows)
    return images.take(np.flatnonzero(images.domain == train_tag)), images.take(val), images.take(test)


# ---------------------------------------------------------------------------
# minibatches and episodes


def minibatches(n: int, batch_size: int, rng: SeededRng):
    """One epoch over n rows in the order of a permutation drawn from `rng`:
    yields (start, rows), the rows at positions start..start + batch_size of
    that order. A 1-row tail is dropped: it cannot form a contrastive term,
    and every training loop shares this one order and tail rule.
    """
    order = rng.generator().permutation(n)
    for start in range(0, n, batch_size):
        rows = order[start : start + batch_size]
        if rows.size >= 2:
            yield start, rows


def sample_episode(split: ImageSet, spec: EpisodeSpec, rng: SeededRng) -> Episode:
    """N-way K-shot episode of `split` rows without replacement, class-major."""
    labels = split.labels(spec.label_space)
    classes = np.flatnonzero(np.bincount(labels))  # labels present, ascending; np.unique would import numpy.ma
    if spec.n_way > len(classes):
        raise ValueError(f"{spec.n_way}-way episode over only {len(classes)} classes")
    gen = rng.generator()
    chosen = [int(classes[i]) for i in gen.choice(len(classes), size=spec.n_way, replace=False)]
    support, query = [], []
    need = spec.k_shot + spec.q_query
    for c in chosen:
        pool = np.flatnonzero(labels == c)  # rows of class c, in split order
        if len(pool) < need:
            raise ValueError(f"class {c} has {len(pool)} images, episode needs {need}")
        picks = pool[gen.choice(len(pool), size=need, replace=False)]
        support.append(picks[: spec.k_shot])
        query.append(picks[spec.k_shot :])
    return Episode(np.concatenate(support), np.concatenate(query), tuple(chosen))
