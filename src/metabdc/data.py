"""Synthetic hierarchical imaging data, preprocessing, splits, episodes.

Generation, preprocessing and splitting work on `LabeledImage` lists; a
split is then one `ImageSet` of arrays, and an `Episode` is support and
query row indices into it.

Fine classes nest inside coarse classes: the coarse label fixes a
texture-scale cue (frequency band) that all its fine classes share, and
the fine label adds a finer cue (orientation for gratings, ring-center
displacement for rings). Nuisance factors (intensity bias, rotation and
phase jitter, pixel noise) are independent of class; the domain tag adds
an oriented intensity ramp and widens the noise, which survives the
group-level z-scoring that removes flat offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import SeededRng
from .imageops import crop_with_padding, resize_bilinear


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


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

    def coarse_of(self, fine: int) -> int:
        return self.mapping[fine]

    @classmethod
    def nested(cls, n_fine: int, n_coarse: int) -> "HierarchySpec":
        if n_fine % n_coarse != 0:
            raise ValueError("nested hierarchy needs n_fine divisible by n_coarse")
        block = n_fine // n_coarse
        return cls(tuple(f // block for f in range(n_fine)))


@dataclass(frozen=True)
class LabeledImage:
    pixels: np.ndarray  # (H, W, C)
    fine: int
    coarse: int
    group: int
    domain: int
    px: float = 3.125  # mm per pixel, columns
    py: float = 3.125  # mm per pixel, rows

    def __post_init__(self) -> None:
        if self.pixels.ndim != 3:
            raise ValueError(f"pixels must be (H, W, C), got shape {self.pixels.shape}")
        if self.fine < 0 or self.coarse < 0:
            raise ValueError("labels must be nonnegative")
        if self.px <= 0 or self.py <= 0:
            raise ValueError("pixel spacing must be positive")


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
    """One split: (n, H, W, C) pixels and row-aligned fine and coarse labels."""

    pixels: np.ndarray
    fine: np.ndarray
    coarse: np.ndarray

    @classmethod
    def of(cls, images: list[LabeledImage]) -> "ImageSet":
        """The images' rows in list order, as read-only arrays."""
        pixels = np.stack([im.pixels for im in images]) if images else np.zeros((0, 0, 0, 0), np.float32)
        fine = np.array([im.fine for im in images], dtype=np.int64)
        coarse = np.array([im.coarse for im in images], dtype=np.int64)
        for a in (pixels, fine, coarse):
            a.setflags(write=False)
        return cls(pixels, fine, coarse)

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


# ---------------------------------------------------------------------------
# generation

# Each coarse class owns a texture frequency band, the cue its fine
# classes share. Fine identity sets the orientation (grating) or
# displacement direction (rings) on a single global wheel, so classes in
# one coarse class occupy adjacent slots on it.


def _texture(
    family: str, size: int, freq: float, fine: int, n_fine: int, rot: float, phase: float
) -> np.ndarray:
    ax = np.linspace(-1.0, 1.0, size)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    if family == "grating":
        theta = np.pi * fine / n_fine + rot
        proj = xx * np.cos(theta) + yy * np.sin(theta)
        return np.sin(np.pi * freq * proj + phase)
    # rings: center displaced toward one of n_fine compass directions
    angle = 2.0 * np.pi * fine / n_fine + rot
    cy, cx = 0.35 * np.sin(angle), 0.35 * np.cos(angle)
    r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    return np.sin(np.pi * freq * r + phase)


def generate_synthetic(config: SyntheticConfig) -> list[LabeledImage]:
    """Deterministic dataset for the configured hierarchy and family.

    Group ids are globally unique; each group holds images of a single
    (fine class, domain tag) pair, the patient-analogue granularity that
    split_dataset stratifies on.

    Domain 0 couples an intensity ramp to the coarse class (strength
    `confound`); domain 1 drops that coupling and instead applies a
    class-independent ramp plus extra noise. A model keying on the
    domain-0 shortcut loses it under the vendor shift.
    """
    h = config.hierarchy
    size = config.image_size
    per_domain = config.count_per_fine // 2
    ax = np.linspace(-1.0, 1.0, size)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    images: list[LabeledImage] = []
    rng = SeededRng(config.seed)
    group = 0
    index = 0
    for fine in range(h.n_fine):
        coarse = h.coarse_of(fine)
        for domain in (0, 1):
            for g_start in range(0, per_domain, config.group_size):
                for _ in range(config.group_size):
                    gen = rng.child(index).generator()
                    rot = config.rotation_jitter * gen.uniform(-1, 1)
                    phase = config.phase_jitter * gen.uniform(-1, 1)
                    freq = config.band_base + config.band_step * coarse
                    img = _texture(config.texture_family, size, freq, fine, h.n_fine, rot, phase)
                    img = img + config.intensity_bias * gen.uniform(-1, 1)
                    noise_scale = config.noise
                    if domain == 0:
                        if h.n_coarse > 1:
                            coef = 2.0 * coarse / (h.n_coarse - 1) - 1.0
                            img = img + config.confound * coef * (0.6 * xx - 0.8 * yy)
                    else:
                        img = img + config.domain_shift * (0.8 * xx + 0.6 * yy)
                        noise_scale = config.noise * (1.0 + config.domain_shift)
                    img = img + noise_scale * gen.normal(size=(size, size))
                    images.append(
                        LabeledImage(
                            pixels=img[:, :, None].astype(np.float32),
                            fine=fine,
                            coarse=coarse,
                            group=group,
                            domain=domain,
                            px=config.px,
                            py=config.py,
                        )
                    )
                    index += 1
                group += 1
    return images


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_image(
    img: LabeledImage, centroid: tuple[float, float], fov_mm: float = 100.0, out_size: int = 32
) -> LabeledImage:
    """Physical-FOV crop around the centroid, then resize to out_size.

    The crop covers round(FOV/px) x round(FOV/py) pixels (half-up),
    zero-padded where it leaves the image; z-scoring happens per group in
    zscore_groups, not here.
    """
    if fov_mm <= 0 or out_size <= 0:
        raise ValueError("FOV and output size must be positive")
    n_cols = fov_pixels(fov_mm, img.px)
    n_rows = fov_pixels(fov_mm, img.py)
    channels = []
    for c in range(img.pixels.shape[2]):
        patch = crop_with_padding(img.pixels[:, :, c], centroid[0], centroid[1], n_rows, n_cols)
        channels.append(resize_bilinear(patch, out_size, out_size))
    return replace(img, pixels=np.stack(channels, axis=2))


def zscore_groups(images: list[LabeledImage]) -> list[LabeledImage]:
    """Z-score pixels over each group (volume analogue) jointly."""
    by_group: dict[int, list[int]] = {}
    for i, img in enumerate(images):
        by_group.setdefault(img.group, []).append(i)
    out: list[LabeledImage | None] = [None] * len(images)
    for gid, idxs in by_group.items():
        stack = np.concatenate([images[i].pixels.ravel() for i in idxs])
        mean = float(stack.mean())
        std = float(stack.std())
        if std < 1e-8:
            raise ValueError(f"group {gid} is constant (std {std:.3e}); cannot z-score")
        for i in idxs:
            normed = ((images[i].pixels - mean) / std).astype(images[i].pixels.dtype)
            out[i] = replace(images[i], pixels=normed)
    return list(out)


def preprocess_dataset(
    images: list[LabeledImage],
    centroids: list[tuple[float, float]] | None = None,
    fov_mm: float = 100.0,
    out_size: int = 32,
) -> list[LabeledImage]:
    if centroids is None:
        centroids = [((im.pixels.shape[0] - 1) / 2.0, (im.pixels.shape[1] - 1) / 2.0) for im in images]
    if len(centroids) != len(images):
        raise ValueError("one centroid per image required")
    cropped = [preprocess_image(im, c, fov_mm, out_size) for im, c in zip(images, centroids)]
    return zscore_groups(cropped)


# ---------------------------------------------------------------------------
# splitting


def split_dataset(
    images: list[LabeledImage],
    train_tag: int,
    eval_tag: int,
    fractions: tuple[float, float, float],
) -> tuple[list[LabeledImage], list[LabeledImage], list[LabeledImage]]:
    """Domain-pure, group-stratified split.

    Train takes every train-tag image; the eval tag is divided into val
    and test by whole groups to approximate fractions val:test. Groups
    are visited round-robin across fine classes (ascending group id
    within a class) so both halves cover every class rather than only
    the low-id ones. A group spanning both tags is malformed.
    """
    if train_tag == eval_tag:
        raise ValueError("train and eval tags must differ")
    f_train, f_val, f_test = fractions
    if min(fractions) < 0 or f_val + f_test <= 0:
        raise ValueError("fractions must be nonnegative with val + test > 0")

    tags_of_group: dict[int, set[int]] = {}
    for img in images:
        tags_of_group.setdefault(img.group, set()).add(img.domain)
    for gid, tags in tags_of_group.items():
        if len(tags) > 1:
            raise ValueError(f"group {gid} spans domain tags {sorted(tags)}")

    present = {img.domain for img in images}
    if train_tag not in present:
        raise ValueError(f"train tag {train_tag} absent from dataset")
    if eval_tag not in present:
        raise ValueError(f"eval tag {eval_tag} absent from dataset")

    train = [img for img in images if img.domain == train_tag]
    eval_imgs = [img for img in images if img.domain == eval_tag]
    by_group: dict[int, list[LabeledImage]] = {}
    for img in eval_imgs:
        by_group.setdefault(img.group, []).append(img)

    queues: dict[int, list[int]] = {}
    for gid in sorted(by_group):
        queues.setdefault(by_group[gid][0].fine, []).append(gid)
    order: list[int] = []
    pending = [queues[c] for c in sorted(queues)]
    while any(pending):
        for q in pending:
            if q:
                order.append(q.pop(0))

    target_val = len(eval_imgs) * f_val / (f_val + f_test)
    val: list[LabeledImage] = []
    test: list[LabeledImage] = []
    filled = 0
    for gid in order:
        size = len(by_group[gid])
        if abs(filled + size - target_val) <= abs(filled - target_val):
            val.extend(by_group[gid])
            filled += size
        else:
            test.extend(by_group[gid])
    return train, val, test


# ---------------------------------------------------------------------------
# episodes


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
