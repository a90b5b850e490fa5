"""Experiment orchestration: pretrain, fine-tune, evaluate, grid search.

run_experiment executes one pretraining kind against every configured
fine-tune column and shot setting, writing a metrics CSV plus
checkpoints. A failing cell is recorded with its reason and the run
moves on. All randomness hangs off the single seed, so a repeated run
reproduces its CSV byte for byte.
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, apply_grid_overrides, train_label_space, train_source
from .core import SeededRng
from .data import EpisodeSpec, ImageSet, SyntheticConfig, generate_synthetic, preprocess_dataset, split_dataset
from .encoder import EncoderConfig, init_params, save_encoder_checkpoint
from .finetune import (
    FinetuneResult,
    classifier_scores,
    evaluate_episodes,
    meta_finetune,
    sample_episode_block,
    supervised_finetune,
    supervised_pretrain_ce,
)
from .metrics import aggregate_episode_metrics, auroc_multiclass_ovr
from .ssl import pretrain, write_trace_csv

log = logging.getLogger(__name__)

METRICS_FIELDS = ("run_id", "phase", "episode", "repeat", "auroc")


@dataclass(frozen=True)
class MetricsRow:
    run_id: str
    phase: str
    episode: int
    repeat: int
    auroc: float


@dataclass(frozen=True)
class CellOutcome:
    mean: float | None = None
    std: float | None = None
    reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.reason is not None


@dataclass
class RowFragment:
    pretrain: str
    seed: int
    cells: dict[tuple[str, int], CellOutcome]
    metrics_path: str


@dataclass(frozen=True)
class Splits:
    train: ImageSet
    val: ImageSet
    test: ImageSet


def cell_list(cfg: ExperimentConfig) -> list[tuple[str, int]]:
    """Configured (fine-tune kind, shots) cells; shots 0 marks whole-dataset."""
    cells: list[tuple[str, int]] = []
    for kind in cfg.finetune_kinds:
        if kind == "fully-supervised":
            cells.append((kind, 0))
        else:
            cells.extend((kind, k) for k in cfg.k_shots)
    return cells


def shot_label(shots: int) -> str:
    return "whole" if shots == 0 else f"{shots}shot"


def prepare_splits(cfg: ExperimentConfig, which: str = "same") -> Splits:
    data_cfg = cfg.data if which == "same" else cfg.other_data
    images = _source_images(cfg, data_cfg)
    return Splits(*split_dataset(images, cfg.train_domain, cfg.eval_domain, cfg.val_fraction))


def _source_images(cfg: ExperimentConfig, data_cfg: SyntheticConfig) -> ImageSet:
    """Every image of one generated source, preprocessed as `cfg` sets."""
    return preprocess_dataset(generate_synthetic(data_cfg), data_cfg.px, data_cfg.py, cfg.fov_mm, cfg.encoder.height)


def other_splits(cfg: ExperimentConfig, kinds: tuple[str, ...]) -> Splits | None:
    """The other-source splits when any of the fine-tune `kinds` trains on
    them, else None."""
    return prepare_splits(cfg, "other") if any(train_source(k) == "other" for k in kinds) else None


# ---------------------------------------------------------------------------
# artifact names


def seed_tag(seed: int) -> str:
    return f"-s{seed}"


def run_id(cfg: ExperimentConfig, kind: str, shots: int, seed: int) -> str:
    return f"{cfg.pretrain}+{kind}-{shot_label(shots)}{seed_tag(seed)}"


def pretrain_checkpoint(out_dir: str, kind: str, tag: str = "") -> str:
    return os.path.join(out_dir, f"pretrain-{kind}{tag}.mbcp")


def cell_checkpoint(out_dir: str, cfg: ExperimentConfig, kind: str, shots: int, seed: int) -> str:
    return os.path.join(out_dir, f"cell-{cfg.pretrain}-{kind}-{shot_label(shots)}{seed_tag(seed)}.mbcp")


# ---------------------------------------------------------------------------
# pretraining dispatch


def pretrain_encoder(
    cfg: ExperimentConfig,
    train: ImageSet,
    rng: SeededRng,
    out_dir: str | None = None,
    tag: str = "",
) -> dict[str, np.ndarray]:
    """Backbone parameters for the configured pretraining kind.

    Every kind starts from one random draw on rng.child(0), so `none` is
    exactly the initialization the trained kinds start from and a gain
    over it is the training's, not the draw's. none: that draw.
    supervised-proxy: cross-entropy training on a freshly generated
    labeled proxy source (data config reseeded, so its images are
    disjoint from the experiment's). simclr/ipirm: the contrastive paths.
    Writes a checkpoint (and a trace CSV for the contrastive kinds) when
    out_dir is given.
    """
    kind = cfg.pretrain
    params = init_params(cfg.encoder, rng.child(0))
    if kind == "supervised-proxy":
        proxy_cfg = replace(cfg.data, seed=cfg.data.seed + 9999)
        proxy = _source_images(cfg, proxy_cfg)
        n_classes = (
            proxy_cfg.hierarchy.n_fine if cfg.proxy.label_space == "fine" else proxy_cfg.hierarchy.n_coarse
        )
        params = supervised_pretrain_ce(
            params,
            cfg.encoder,
            proxy,
            cfg.proxy.label_space,
            n_classes,
            epochs=cfg.proxy.epochs,
            batch_size=cfg.proxy.batch_size,
            lr=cfg.proxy.lr,
            weight_decay=cfg.proxy.weight_decay,
            rng=rng.child(1),
        )
    elif kind != "none":
        params, _parts, trace = pretrain(kind, train.pixels, cfg.ipirm, cfg.encoder, rng.child(2), init=params)
        if out_dir is not None:
            write_trace_csv(os.path.join(out_dir, f"pretrain-{kind}{tag}-trace.csv"), trace)
    if out_dir is not None:
        save_encoder_checkpoint(pretrain_checkpoint(out_dir, kind, tag), params, cfg.encoder)
    return params


# ---------------------------------------------------------------------------
# per-cell fine-tune + evaluation


def _failure_reason(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text.replace(",", ";").replace("\n", " ")


def eval_episode_spec(cfg: ExperimentConfig, shots: int) -> EpisodeSpec:
    return EpisodeSpec(cfg.n_way, shots, cfg.q_query, "coarse")


def finetune_cell(
    cfg: ExperimentConfig,
    params: dict[str, np.ndarray],
    primary: Splits,
    other: Splits | None,
    kind: str,
    shots: int,
    rng: SeededRng,
) -> FinetuneResult:
    """Fine-tune one cell; validation always runs on the primary source."""
    if kind == "fully-supervised":
        return supervised_finetune(
            params,
            cfg.encoder,
            primary.train,
            primary.val,
            "coarse",
            cfg.data.hierarchy.n_coarse,
            cfg.tune,
            rng,
        )
    source = primary if train_source(kind) == "same" else other
    if source is None:
        raise ValueError(f"{kind} needs the other-source dataset")
    train_spec = EpisodeSpec(cfg.n_way, shots, cfg.q_query, train_label_space(kind))
    return meta_finetune(
        params, cfg.encoder, source.train, primary.val, train_spec, eval_episode_spec(cfg, shots), cfg.tune, rng
    )


def test_cell(
    cfg: ExperimentConfig,
    params: dict[str, np.ndarray],
    primary: Splits,
    kind: str,
    shots: int,
    rng: SeededRng,
) -> list[list[float]]:
    """Meta-test episode AUROCs per repeat; the fully supervised column is
    a single whole-split score."""
    if kind == "fully-supervised":
        scores = classifier_scores(params, cfg.encoder, primary.test)
        return [[auroc_multiclass_ovr(scores, primary.test.labels("coarse"))]]
    spec = eval_episode_spec(cfg, shots)
    repeats: list[list[float]] = []
    for rep in range(cfg.test_repeats):
        episodes = sample_episode_block(primary.test, spec, cfg.test_episodes, rng.child(10 + rep))
        repeats.append(evaluate_episodes(params, cfg.encoder, primary.test, episodes, cfg.tune.metric))
    return repeats


def run_cell(
    cfg: ExperimentConfig,
    params: dict[str, np.ndarray],
    primary: Splits,
    other: Splits | None,
    kind: str,
    shots: int,
    rng: SeededRng,
) -> tuple[FinetuneResult, list[list[float]]]:
    """Fine-tune one cell, then meta-test its selected checkpoint."""
    result = finetune_cell(cfg, params, primary, other, kind, shots, rng.child(0))
    return result, test_cell(cfg, result.params, primary, kind, shots, rng)


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(METRICS_FIELDS) + "\n")
        for row in rows:
            f.write(f"{row.run_id},{row.phase},{row.episode},{row.repeat},{row.auroc:.10g}\n")


def run_experiment(cfg: ExperimentConfig, seed: int, out_dir: str) -> RowFragment:
    """One pretraining row of the ablation: every configured cell.

    Failures are per cell: the reason lands in the fragment and the rest
    of the row still runs. Artifacts: metrics CSV, pretrain checkpoint,
    and one checkpoint per successful cell.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = SeededRng(seed)
    primary = prepare_splits(cfg, "same")
    other = other_splits(cfg, cfg.finetune_kinds)

    tag = seed_tag(seed)
    params = pretrain_encoder(cfg, primary.train, rng.child(1), out_dir, tag)

    rows: list[MetricsRow] = []
    cells: dict[tuple[str, int], CellOutcome] = {}
    for idx, (kind, shots) in enumerate(cell_list(cfg)):
        cell_id = run_id(cfg, kind, shots, seed)
        try:
            result, repeats = run_cell(cfg, params, primary, other, kind, shots, rng.child(100 + idx))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            log.warning("cell %s failed: %s", cell_id, exc)
            cells[(kind, shots)] = CellOutcome(reason=_failure_reason(exc))
            continue
        for epoch, score in enumerate(result.val_history):
            rows.append(MetricsRow(cell_id, "val", epoch, 0, score))
        if kind == "fully-supervised":
            rows.append(MetricsRow(cell_id, "test", 0, 0, repeats[0][0]))
            cells[(kind, shots)] = CellOutcome(mean=repeats[0][0], std=0.0)
        else:
            for rep, scores in enumerate(repeats):
                for e_idx, score in enumerate(scores):
                    rows.append(MetricsRow(cell_id, "test", e_idx, rep, score))
            agg = aggregate_episode_metrics(repeats)
            cells[(kind, shots)] = CellOutcome(mean=agg.mean, std=agg.std)
        save_encoder_checkpoint(cell_checkpoint(out_dir, cfg, kind, shots, seed), result.params, cfg.encoder)
    metrics_path = os.path.join(out_dir, f"metrics-{cfg.pretrain}{tag}.csv")
    write_metrics_csv(metrics_path, rows)
    return RowFragment(cfg.pretrain, seed, cells, metrics_path)


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridPoint:
    overrides: tuple[tuple[str, object], ...]
    score: float | None
    reason: str | None = None


def _grid_score(cfg: ExperimentConfig, seed: int) -> float:
    """Validation score of the first configured cell under this config.

    Pretraining reruns per point, so axes over pretraining fields are
    selected by the fine-tuned validation AUROC downstream of them.
    """
    rng = SeededRng(seed)
    primary = prepare_splits(cfg, "same")
    kind, shots = cell_list(cfg)[0]
    other = other_splits(cfg, (kind,))
    params = pretrain_encoder(cfg, primary.train, rng.child(1))
    result = finetune_cell(cfg, params, primary, other, kind, shots, rng.child(100).child(0))
    return max(result.val_history)


def grid_search(cfg: ExperimentConfig, seed: int) -> tuple[ExperimentConfig, list[GridPoint]]:
    """Exhaustive product over the declared grid axes.

    Best is the highest validation score; exact ties keep the earlier
    point in declaration order. Every point failing is an error.
    """
    if not cfg.grid:
        raise ValueError("config declares no grid axes")
    paths = [path for path, _ in cfg.grid]
    points: list[GridPoint] = []
    best: tuple[float, int] | None = None
    for combo in itertools.product(*[values for _, values in cfg.grid]):
        overrides = dict(zip(paths, combo))
        try:
            candidate = apply_grid_overrides(cfg, overrides)
            score = _grid_score(candidate, seed)
        except Exception as exc:  # noqa: BLE001 - grid points are isolated like cells
            log.warning("grid point %s failed: %s", overrides, exc)
            points.append(GridPoint(tuple(overrides.items()), None, _failure_reason(exc)))
            continue
        points.append(GridPoint(tuple(overrides.items()), score))
        if best is None or score > best[0]:
            best = (score, len(points) - 1)
    if best is None:
        raise RuntimeError("every grid point failed")
    winner = dict(points[best[1]].overrides)
    return apply_grid_overrides(cfg, winner), points
