"""Command-line front end.

Subcommands cover the pipeline phase by phase (pretrain, finetune,
evaluate), plus grid search and full-ablation report assembly. Every
subcommand takes the same four flags; phase artifacts land under --out,
named by pretraining kind, cell, and seed, so phases can be run
separately and pick up each other's checkpoints.

This module only parses arguments, hands checkpoints from one phase to
the next and prints; experiment.py wires the run. report builds the
splits once and calls run_experiment once per pretraining row, so each
row's cells number from 0. finetune and evaluate operate on the first
configured cell (the first fine-tune kind at the first shot setting) with
cell 0's stream, so their checkpoint and rows equal those of the first
cell of the configured pretraining kind's row in `report` at the same seed.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

from .config import PROFILES, ExperimentConfig, apply_profile, load_config, save_config
from .encoder import load_encoder_checkpoint, save_encoder_checkpoint
from .experiment import (
    cell_checkpoint,
    cell_list,
    cell_stream,
    finetune_cell,
    grid_search,
    other_splits,
    pretrain_checkpoint,
    pretrain_encoder,
    pretrain_stream,
    prepare_splits,
    run_experiment,
    run_id,
    seed_tag,
    shot_label,
    test_cell,
    test_rows,
    val_rows,
    write_metrics_csv,
    write_report,
)
from .metrics import aggregate_episode_metrics
from .ssl import PRETRAIN_MODES

log = logging.getLogger(__name__)


def cmd_pretrain(cfg: ExperimentConfig, seed: int, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    primary = prepare_splits(cfg, "same")
    pretrain_encoder(cfg, primary.train, pretrain_stream(seed), out, seed_tag(seed))
    path = pretrain_checkpoint(out, cfg.pretrain, seed_tag(seed))
    extra = " (with trace CSV)" if cfg.pretrain in PRETRAIN_MODES else ""
    print(f"pretrained {cfg.pretrain} -> {path}{extra}")
    return 0


def cmd_finetune(cfg: ExperimentConfig, seed: int, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    kind, shots = cell_list(cfg)[0]
    primary = prepare_splits(cfg, "same")
    path = pretrain_checkpoint(out, cfg.pretrain, seed_tag(seed))
    if os.path.exists(path):  # the pretrain phase's output, else run that phase here
        log.info("using existing checkpoint %s", path)
        params = load_encoder_checkpoint(path, cfg.encoder)
    else:
        params = pretrain_encoder(cfg, primary.train, pretrain_stream(seed), out, seed_tag(seed))
    other = other_splits(cfg, (kind,))
    result = finetune_cell(cfg, params, primary, other, kind, shots, cell_stream(seed, 0).child(0))
    ckpt = cell_checkpoint(out, cfg.pretrain, kind, shots, seed)
    save_encoder_checkpoint(ckpt, result.params, cfg.encoder)
    cell_id = run_id(cfg.pretrain, kind, shots, seed)
    write_metrics_csv(os.path.join(out, f"val-{cell_id}.csv"), val_rows(cell_id, result))
    print(f"fine-tuned {kind} ({shot_label(shots)}): best epoch {result.best_epoch}, "
          f"val AUROC {result.val_history[result.best_epoch]:.4f} -> {ckpt}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, seed: int, out: str) -> int:
    kind, shots = cell_list(cfg)[0]
    ckpt = cell_checkpoint(out, cfg.pretrain, kind, shots, seed)
    if not os.path.exists(ckpt):
        print(f"no fine-tuned checkpoint at {ckpt}; run the finetune subcommand first", file=sys.stderr)
        return 2
    params = load_encoder_checkpoint(ckpt, cfg.encoder)
    primary = prepare_splits(cfg, "same")
    repeats = test_cell(cfg, params, primary, kind, shots, cell_stream(seed, 0))
    cell_id = run_id(cfg.pretrain, kind, shots, seed)
    path = os.path.join(out, f"test-{cell_id}.csv")
    write_metrics_csv(path, test_rows(cell_id, repeats))
    agg = aggregate_episode_metrics(repeats)
    print(f"{cell_id}: test AUROC {agg.mean:.4f} +- {agg.std:.4f} "
          f"({len(repeats)} repeats x {len(repeats[0])} episodes) -> {path}")
    return 0


def cmd_grid(cfg: ExperimentConfig, seed: int, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    best_cfg, best, points = grid_search(cfg, seed)
    grid_path = os.path.join(out, "grid.csv")
    with open(grid_path, "w", encoding="utf-8", newline="") as f:
        # csv quoting keeps a label whole when a value prints with commas, e.g. a tuple
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["point", "score"])
        for point in points:
            label = ";".join(f"{k}={v}" for k, v in point.overrides)
            value = f"{point.score:.10g}" if point.score is not None else f"FAILED({point.reason})"
            writer.writerow([label, value])
    best_path = os.path.join(out, "best_config.json")
    save_config(best_path, best_cfg)
    failed = sum(p.score is None for p in points)
    print(f"{len(points)} grid points ({failed} failed) -> {grid_path}")
    print(f"best: {dict(best.overrides)} val AUROC {best.score:.4f} -> {best_path}")
    return 0


def cmd_report(cfg: ExperimentConfig, seed: int, out: str) -> int:
    primary = prepare_splits(cfg, "same")
    other = other_splits(cfg, cfg.finetune_kinds)
    outcomes = {}
    for kind in cfg.pretrain_kinds:  # one run per row, so each row's cells number from 0
        outcomes.update(run_experiment(cfg, seed, primary, other, [(kind, *c) for c in cell_list(cfg)], out))
    csv_path, txt_path = write_report(cfg, outcomes, seed, out)
    with open(txt_path, "r", encoding="utf-8") as f:
        print(f.read(), end="")
    print(f"report -> {csv_path}, {txt_path}")
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "grid": cmd_grid,
    "report": cmd_report,
}


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
        return COMMANDS[args.command](cfg, args.seed, args.out)
    except (ValueError, RuntimeError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
