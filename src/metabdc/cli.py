"""Command-line front end.

Subcommands cover the pipeline phase by phase (pretrain, finetune,
evaluate), plus grid search and full-ablation report assembly. Every
subcommand takes the same four flags; phase artifacts land under --out,
named by pretraining kind, cell, and seed, so phases can be run
separately and pick up each other's checkpoints.

finetune and evaluate operate on the first configured cell (the first
fine-tune kind at the first shot setting).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .config import PROFILES, ExperimentConfig, apply_profile, load_config, save_config
from .core import SeededRng
from .encoder import load_encoder_checkpoint, save_encoder_checkpoint
from .experiment import (
    MetricsRow,
    RowFragment,
    cell_checkpoint,
    cell_list,
    finetune_cell,
    grid_search,
    other_splits,
    pretrain_checkpoint,
    pretrain_encoder,
    prepare_splits,
    run_experiment,
    run_id,
    seed_tag,
    shot_label,
    test_cell,
    write_metrics_csv,
)
from .metrics import aggregate_episode_metrics
from .report import ResultsTable, emit_report
from .ssl import PRETRAIN_MODES

log = logging.getLogger(__name__)

COMMANDS = ("pretrain", "finetune", "evaluate", "grid", "report")


def _first_cell(cfg: ExperimentConfig) -> tuple[str, int]:
    return cell_list(cfg)[0]


def _pretrained_params(cfg: ExperimentConfig, seed: int, out: str):
    """Load the pretraining checkpoint, running the phase when absent."""
    path = pretrain_checkpoint(out, cfg.pretrain, seed_tag(seed))
    if os.path.exists(path):
        log.info("using existing checkpoint %s", path)
        return load_encoder_checkpoint(path, cfg.encoder)
    primary = prepare_splits(cfg, "same")
    return pretrain_encoder(cfg, primary.train, SeededRng(seed).child(1), out, seed_tag(seed))


def cmd_pretrain(cfg: ExperimentConfig, seed: int, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    primary = prepare_splits(cfg, "same")
    pretrain_encoder(cfg, primary.train, SeededRng(seed).child(1), out, seed_tag(seed))
    path = pretrain_checkpoint(out, cfg.pretrain, seed_tag(seed))
    extra = " (with trace CSV)" if cfg.pretrain in PRETRAIN_MODES else ""
    print(f"pretrained {cfg.pretrain} -> {path}{extra}")
    return 0


def cmd_finetune(cfg: ExperimentConfig, seed: int, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    kind, shots = _first_cell(cfg)
    params = _pretrained_params(cfg, seed, out)
    primary = prepare_splits(cfg, "same")
    other = other_splits(cfg, (kind,))
    rng = SeededRng(seed).child(100)
    result = finetune_cell(cfg, params, primary, other, kind, shots, rng.child(0))
    ckpt = cell_checkpoint(out, cfg, kind, shots, seed)
    save_encoder_checkpoint(ckpt, result.params, cfg.encoder)
    cell_id = run_id(cfg, kind, shots, seed)
    rows = [MetricsRow(cell_id, "val", epoch, 0, score) for epoch, score in enumerate(result.val_history)]
    write_metrics_csv(os.path.join(out, f"val-{cell_id}.csv"), rows)
    print(f"fine-tuned {kind} ({shot_label(shots)}): best epoch {result.best_epoch}, "
          f"val AUROC {result.val_history[result.best_epoch]:.4f} -> {ckpt}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, seed: int, out: str) -> int:
    kind, shots = _first_cell(cfg)
    ckpt = cell_checkpoint(out, cfg, kind, shots, seed)
    if not os.path.exists(ckpt):
        print(f"no fine-tuned checkpoint at {ckpt}; run the finetune subcommand first", file=sys.stderr)
        return 2
    params = load_encoder_checkpoint(ckpt, cfg.encoder)
    primary = prepare_splits(cfg, "same")
    rng = SeededRng(seed).child(100)
    repeats = test_cell(cfg, params, primary, kind, shots, rng)
    cell_id = run_id(cfg, kind, shots, seed)
    rows = [
        MetricsRow(cell_id, "test", e_idx, rep, score)
        for rep, scores in enumerate(repeats)
        for e_idx, score in enumerate(scores)
    ]
    path = os.path.join(out, f"test-{cell_id}.csv")
    write_metrics_csv(path, rows)
    if kind == "fully-supervised":
        print(f"{cell_id}: test AUROC {repeats[0][0]:.4f} -> {path}")
    else:
        agg = aggregate_episode_metrics(repeats)
        print(f"{cell_id}: test AUROC {agg.mean:.4f} +- {agg.std:.4f} "
              f"({len(repeats)} repeats x {len(repeats[0])} episodes) -> {path}")
    return 0


def cmd_grid(cfg: ExperimentConfig, seed: int, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    best_cfg, points = grid_search(cfg, seed)
    grid_path = os.path.join(out, "grid.csv")
    with open(grid_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("point,score\n")
        for point in points:
            label = ";".join(f"{k}={v}" for k, v in point.overrides)
            value = f"{point.score:.10g}" if point.score is not None else f"FAILED({point.reason})"
            f.write(f"{label},{value}\n")
    best_path = os.path.join(out, "best_config.json")
    save_config(best_path, best_cfg)
    scored = [p for p in points if p.score is not None]
    best_point = max(scored, key=lambda p: p.score)
    print(f"{len(points)} grid points ({len(points) - len(scored)} failed) -> {grid_path}")
    print(f"best: {dict(best_point.overrides)} val AUROC {best_point.score:.4f} -> {best_path}")
    return 0


def cmd_report(cfg: ExperimentConfig, seed: int, out: str) -> int:
    fragments: list[RowFragment] = []
    for kind in cfg.pretrain_kinds:
        log.info("running pretraining row %s", kind)
        fragments.append(run_experiment(replace(cfg, pretrain=kind), seed, out))
    table = ResultsTable.from_fragments(cfg, fragments, seed)
    csv_path, txt_path = emit_report(table, out)
    with open(txt_path, "r", encoding="utf-8") as f:
        print(f.read(), end="")
    print(f"report -> {csv_path}, {txt_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metabdc",
        description="Few-shot meta-learning across label granularities on synthetic imagery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config (defaults when omitted)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--profile", choices=PROFILES, help="episode/repeat budget override")
        p.add_argument("--out", default="runs", help="artifact directory")
    args = parser.parse_args(argv)

    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.profile:
            cfg = apply_profile(cfg, args.profile)
        handler = {
            "pretrain": cmd_pretrain,
            "finetune": cmd_finetune,
            "evaluate": cmd_evaluate,
            "grid": cmd_grid,
            "report": cmd_report,
        }[args.command]
        return handler(cfg, args.seed, args.out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
