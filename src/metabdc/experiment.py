"""Experiment orchestration: pretrain, fine-tune, evaluate, grid search,
report. The one module that knows how a run is wired: the seed's streams,
cell training and testing, metrics rows and the results table.

run_experiment runs any list of (pretraining kind, fine-tune kind, shots)
cells, pretraining each kind once and writing per kind a metrics CSV plus
checkpoints. A failing cell is recorded with its reason, a failing
pretraining in each cell of its kind, and the run moves on. All
randomness hangs off the single seed, so a repeated run reproduces its
CSVs byte for byte.
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import FINETUNE_KINDS, PRETRAIN_KINDS, ExperimentConfig, apply_grid_overrides, train_label_space, train_source
from .core import SeededRng
from .data import EpisodeSpec, ImageSet, SyntheticConfig, generate_synthetic, preprocess_dataset, split_dataset
from .encoder import init_params, save_encoder_checkpoint
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


Cell = tuple[str, str, int]  # (pretraining kind, fine-tune kind, shots); shots 0 marks whole-dataset


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
    return preprocess_dataset(generate_synthetic(data_cfg), data_cfg.px, data_cfg.py, cfg.fov_mm, cfg.encoder.size)


def other_splits(cfg: ExperimentConfig, kinds: tuple[str, ...]) -> Splits | None:
    """The other-source splits when any of the fine-tune `kinds` trains on
    them, else None."""
    return prepare_splits(cfg, "other") if any(train_source(k) == "other" for k in kinds) else None


# ---------------------------------------------------------------------------
# streams and artifact names


def pretrain_stream(seed: int) -> SeededRng:
    """The stream pretraining draws from under `seed`."""
    return SeededRng(seed).child(1)


def cell_stream(seed: int, idx: int) -> SeededRng:
    """The stream of cell `idx` of a run's cell list under `seed`: its
    child(0) fine-tunes, and test episodes hang off the stream itself."""
    return SeededRng(seed).child(100 + idx)


def seed_tag(seed: int) -> str:
    return f"-s{seed}"


def run_id(pretrain: str, kind: str, shots: int, seed: int) -> str:
    return f"{pretrain}+{kind}-{shot_label(shots)}{seed_tag(seed)}"


def pretrain_checkpoint(out_dir: str, kind: str, tag: str = "") -> str:
    return os.path.join(out_dir, f"pretrain-{kind}{tag}.mbcp")


def cell_checkpoint(out_dir: str, pretrain: str, kind: str, shots: int, seed: int) -> str:
    return os.path.join(out_dir, f"cell-{pretrain}-{kind}-{shot_label(shots)}{seed_tag(seed)}.mbcp")


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
    supervised-proxy: cross-entropy training on the fine labels of a
    freshly generated proxy source (data config reseeded, so its images are
    disjoint from the experiment's). simclr/ipirm: the contrastive paths.
    Writes a checkpoint (and a trace CSV for the contrastive kinds) when
    out_dir is given.
    """
    kind = cfg.pretrain
    params = init_params(cfg.encoder, rng.child(0))
    if kind == "supervised-proxy":
        proxy_cfg = replace(cfg.data, seed=cfg.data.seed + 9999)
        proxy = _source_images(cfg, proxy_cfg)
        params = supervised_pretrain_ce(
            params,
            cfg.encoder,
            proxy,
            proxy_cfg.hierarchy.n_fine,
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
        repeats.append(evaluate_episodes(params, cfg.encoder, primary.test, episodes))
    return repeats


def val_rows(cell_id: str, result: FinetuneResult) -> list[MetricsRow]:
    return [MetricsRow(cell_id, "val", epoch, 0, score) for epoch, score in enumerate(result.val_history)]


def test_rows(cell_id: str, repeats: list[list[float]]) -> list[MetricsRow]:
    return [
        MetricsRow(cell_id, "test", e_idx, rep, score)
        for rep, scores in enumerate(repeats)
        for e_idx, score in enumerate(scores)
    ]


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(METRICS_FIELDS) + "\n")
        for row in rows:
            f.write(f"{row.run_id},{row.phase},{row.episode},{row.repeat},{row.auroc:.10g}\n")


def _check_cells(cells: list[Cell]) -> None:
    """Reject a cell no run can mean: an unknown kind, a repeated cell, or
    shots other than 0 for fully-supervised and below 1 for an episodic kind."""
    for i, cell in enumerate(cells):
        pk, kind, shots = cell
        if pk not in PRETRAIN_KINDS:
            raise ValueError(f"cells[{i}]: unknown pretrain kind {pk!r}")
        if kind not in FINETUNE_KINDS:
            raise ValueError(f"cells[{i}]: unknown fine-tune kind {kind!r}")
        if cells.index(cell) != i:
            raise ValueError(f"cells[{i}]: repeats cells[{cells.index(cell)}] {cell}")
        if kind == "fully-supervised" and shots != 0:
            raise ValueError(f"cells[{i}]: fully-supervised trains on the whole split; shots must be 0, got {shots}")
        if kind != "fully-supervised" and shots < 1:
            raise ValueError(f"cells[{i}]: {kind} needs at least 1 shot, got {shots}")


def run_experiment(
    cfg: ExperimentConfig, seed: int, primary: Splits, other: Splits | None, cells: list[Cell], out_dir: str
) -> dict[Cell, CellOutcome]:
    """Run each (pretraining kind, fine-tune kind, shots) cell of `cells`.

    Each kind the list names is pretrained once on pretrain_stream(seed);
    cell `idx` runs on cell_stream(seed, idx), numbered across the whole
    list. A failing cell records its reason and the others still run; a
    failing pretraining records its reason in each of its kind's cells.
    Each pretraining kind writes metrics-<kind>-s<seed>.csv and, when it
    succeeds, its checkpoint (and trace CSV) and one checkpoint per
    successful cell. A cell list no run can mean is an error.
    """
    _check_cells(cells)
    os.makedirs(out_dir, exist_ok=True)
    tag = seed_tag(seed)
    outcomes: dict[Cell, CellOutcome] = {}
    for pk in dict.fromkeys(cell[0] for cell in cells):
        log.info("running pretraining row %s", pk)
        failure = None
        try:
            params = pretrain_encoder(replace(cfg, pretrain=pk), primary.train, pretrain_stream(seed), out_dir, tag)
        except Exception as exc:  # noqa: BLE001 - a failed pretraining fails its own cells only
            log.warning("pretraining %s failed: %s", pk, exc)
            failure = CellOutcome(reason=_failure_reason(exc))
        rows: list[MetricsRow] = []
        for idx, cell in enumerate(cells):
            if cell[0] != pk:
                continue
            if failure is not None:
                outcomes[cell] = failure
                continue
            _, kind, shots = cell
            cell_id = run_id(*cell, seed)
            rng = cell_stream(seed, idx)
            try:
                result = finetune_cell(cfg, params, primary, other, kind, shots, rng.child(0))
                repeats = test_cell(cfg, result.params, primary, kind, shots, rng)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                log.warning("cell %s failed: %s", cell_id, exc)
                outcomes[cell] = CellOutcome(reason=_failure_reason(exc))
                continue
            rows += val_rows(cell_id, result) + test_rows(cell_id, repeats)
            agg = aggregate_episode_metrics(repeats)
            outcomes[cell] = CellOutcome(mean=agg.mean, std=agg.std)
            save_encoder_checkpoint(cell_checkpoint(out_dir, *cell, seed), result.params, cfg.encoder)
        write_metrics_csv(os.path.join(out_dir, f"metrics-{pk}{tag}.csv"), rows)
    return outcomes


def write_report(cfg: ExperimentConfig, outcomes: dict[Cell, CellOutcome], seed: int, out_dir: str) -> tuple[str, str]:
    """Write results.csv and results.txt, one row per pretraining kind and
    one column per cell of `cfg`, and return both paths."""
    if not outcomes:
        raise ValueError("no result rows to tabulate")
    os.makedirs(out_dir, exist_ok=True)
    columns = cell_list(cfg)
    names = ["pretrain"] + [f"{kind}@{shot_label(shots)}" for kind, shots in columns]
    grid = [[pk] + [_cell_text(outcomes.get((pk, *col))) for col in columns] for pk in cfg.pretrain_kinds]
    meta = f"seed={seed} config={cfg.digest()}"

    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# {meta}\n")
        for row in [names] + grid:
            f.write(",".join(row) + "\n")

    txt_path = os.path.join(out_dir, "results.txt")
    widths = [max(len(row[j]) for row in [names] + grid) for j in range(len(names))]
    with open(txt_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(meta + "\n")
        f.write(" | ".join(n.ljust(w) for n, w in zip(names, widths)) + "\n")
        f.write("-+-".join("-" * w for w in widths) + "\n")
        for row in grid:
            f.write(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n")
    return csv_path, txt_path


def _cell_text(outcome: CellOutcome | None) -> str:
    if outcome is None:
        return "FAILED(missing)"
    if outcome.failed:
        return f"FAILED({outcome.reason})"
    return f"{outcome.mean:.4f} +- {outcome.std:.4f}"


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridPoint:
    overrides: tuple[tuple[str, object], ...]
    score: float | None
    reason: str | None = None


def _grid_score(cfg: ExperimentConfig, seed: int, primary: Splits, other: Splits | None) -> float:
    """Validation score of the first configured cell under this config.

    Pretraining reruns per point, so axes over pretraining fields are
    selected by the fine-tuned validation AUROC downstream of them.
    """
    kind, shots = cell_list(cfg)[0]
    params = pretrain_encoder(cfg, primary.train, pretrain_stream(seed))
    result = finetune_cell(cfg, params, primary, other, kind, shots, cell_stream(seed, 0).child(0))
    return max(result.val_history)


def grid_search(cfg: ExperimentConfig, seed: int) -> tuple[ExperimentConfig, GridPoint, list[GridPoint]]:
    """Exhaustive product over the declared grid axes; returns the best
    config, its point and every point.

    Best is the highest validation score; exact ties keep the earlier
    point in declaration order. Every point failing is an error.
    """
    if not cfg.grid:
        raise ValueError("config declares no grid axes")
    paths = [path for path, _ in cfg.grid]
    # no grid axis reaches the data, the split or the first cell, so every point shares the splits
    kind, _ = cell_list(cfg)[0]
    primary = prepare_splits(cfg, "same")
    other = other_splits(cfg, (kind,))
    points: list[GridPoint] = []
    best: GridPoint | None = None
    for combo in itertools.product(*[values for _, values in cfg.grid]):
        overrides = dict(zip(paths, combo))
        try:
            candidate = apply_grid_overrides(cfg, overrides)
            score = _grid_score(candidate, seed, primary, other)
        except Exception as exc:  # noqa: BLE001 - grid points are isolated like cells
            log.warning("grid point %s failed: %s", overrides, exc)
            points.append(GridPoint(tuple(overrides.items()), None, _failure_reason(exc)))
            continue
        points.append(GridPoint(tuple(overrides.items()), score))
        if best is None or score > best.score:
            best = points[-1]
    if best is None:
        raise RuntimeError("every grid point failed")
    return apply_grid_overrides(cfg, dict(best.overrides)), best, points
