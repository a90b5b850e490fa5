"""The benchmark's workloads, driven through metabdc's public API.

Each workload builds its inputs in `setup`, runs one unit of work per
`unit(index)` call, and checks its own outputs. A unit's outcome carries
a digest of everything it produced, so units that repeat one seed can be
compared byte for byte.

- study: one seed of the directional study, as the acceptance test runs
  it: none and ipirm pretraining, then fine-tune and test four 5-shot
  cells. It is what a user of the study waits for and uses every layer.
- pretrain: ipirm pretraining on the primary train split. All of its time
  is in ssl, augmentation, partition search and graph forward+backward;
  bdc, metrics and finetune do no work.
- meta-test: one fresh parameter version scored with test_cell at 1 and
  5 shots. Forward-only: encoder, bdc, metrics, episode sampling; ssl and
  optim do no work.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from metabdc import encoder, experiment
from metabdc.config import ExperimentConfig
from metabdc.core import SeededRng

# The program is called through its module attributes, never through names
# bound here, so that a tracer substituting them in metabdc's modules sees
# every call.

STUDY_CONFIG = ExperimentConfig(
    pretrain="none",
    pretrain_kinds=("none", "ipirm"),
    finetune_kinds=("meta-fine-same", "meta-coarse-same", "meta-fine-other"),
    k_shots=(5,),
)
PRETRAIN_CONFIG = replace(STUDY_CONFIG, pretrain="ipirm")
META_TEST_CONFIG = replace(STUDY_CONFIG, k_shots=(1, 5))
STUDY_CELLS = (
    ("none", "meta-fine-same"),
    ("ipirm", "meta-fine-same"),
    ("ipirm", "meta-coarse-same"),
    ("ipirm", "meta-fine-other"),
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class UnitOutcome:
    attempted: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    digest: str = ""
    quality: dict[str, float] = field(default_factory=dict)


def failure_reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".replace("\n", " ")


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, dict):
                for key in sorted(v):
                    self.add(key, v[key])
            elif isinstance(v, str):
                self._h.update(v.encode())
            elif isinstance(v, bytes):
                self._h.update(v)
            else:
                self._h.update(np.ascontiguousarray(v).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def check_aurocs(where: str, repeats: list[list[float]], count: int) -> list[float]:
    """Every repeat has `count` scores, each finite and in [0, 1]."""
    for rep in repeats:
        if len(rep) != count:
            raise CheckFailed(f"{where}: {len(rep)} scores, expected {count}")
    flat = [x for rep in repeats for x in rep]
    bad = [x for x in flat if not (math.isfinite(x) and 0.0 <= x <= 1.0)]
    if bad:
        raise CheckFailed(f"{where}: {len(bad)} AUROCs outside [0, 1] or not finite, e.g. {bad[0]!r}")
    return flat


class Study:
    """One seed of the directional study per unit; every unit repeats the seed."""

    min_units = 2

    def __init__(self, seed: int, cfg: ExperimentConfig = STUDY_CONFIG, cells=STUDY_CELLS) -> None:
        self.seed = seed
        self.cfg = cfg
        self.cells = cells

    def setup(self) -> None:
        self.primary = experiment.prepare_splits(self.cfg, "same")
        self.other = experiment.prepare_splits(self.cfg, "other")

    def unit(self, index: int) -> UnitOutcome:
        cfg = self.cfg
        shots = cfg.k_shots[0]
        rng = SeededRng(self.seed)
        out = UnitOutcome(attempted=len(self.cells))
        digest = _Digest()
        pretrained: dict[str, dict | Exception] = {}
        for kind in dict.fromkeys(pk for pk, _ in self.cells):
            try:
                kind_cfg = replace(cfg, pretrain=kind)
                pretrained[kind] = experiment.pretrain_encoder(kind_cfg, self.primary.train, rng.child(1))
            except Exception as exc:  # noqa: BLE001 - a failed pretraining fails its cells, not the run
                pretrained[kind] = exc
        means: dict[tuple[str, str], float] = {}
        for idx, (pk, fk) in enumerate(self.cells):
            where = f"{pk}+{fk}"
            try:
                params = pretrained[pk]
                if isinstance(params, Exception):
                    raise params
                cell_rng = rng.child(100 + idx)
                other = self.other if fk.endswith("-other") else None
                result = experiment.finetune_cell(cfg, params, self.primary, other, fk, shots, cell_rng.child(0))
                repeats = experiment.test_cell(cfg, result.params, self.primary, fk, shots, cell_rng)
            except Exception as exc:  # noqa: BLE001 - cell isolation, as in the runner
                out.failed += 1
                out.reasons.append(f"{where}: {failure_reason(exc)}")
                continue
            check_aurocs(f"{where} val history", [result.val_history], cfg.tune.epochs)
            flat = check_aurocs(f"{where} test", repeats, cfg.test_episodes)
            means[(pk, fk)] = float(np.mean(flat))
            digest.add(where, result.params, np.array(result.val_history), np.array([result.best_epoch]))
            digest.add(np.array(flat))
        out.digest = digest.hexdigest()
        out.quality = study_quality(means)
        return out


def study_quality(means: dict[tuple[str, str], float]) -> dict[str, float]:
    """Mean test AUROC of each cell and the study's three directional gaps."""
    q = {f"auroc.{pk}+{fk}": v for (pk, fk), v in means.items()}
    best = means.get(("ipirm", "meta-fine-same"))
    if best is None:
        return q
    q["auroc"] = best
    for name, cell in (
        ("gain.pretrain", ("none", "meta-fine-same")),
        ("gain.fine_over_coarse", ("ipirm", "meta-coarse-same")),
        ("gain.same_over_other", ("ipirm", "meta-fine-other")),
    ):
        if cell in means:
            q[name] = best - means[cell]
    return q


class Pretrain:
    """ipirm pretraining of the primary train split per unit; every unit
    repeats the seed. The unit writes its checkpoint and trace CSV, which
    are the outputs compared from unit to unit."""

    min_units = 2

    def __init__(self, seed: int, work_dir: str, cfg: ExperimentConfig = PRETRAIN_CONFIG) -> None:
        self.seed = seed
        self.cfg = cfg
        self.work_dir = work_dir

    def setup(self) -> None:
        self.primary = experiment.prepare_splits(self.cfg, "same")

    def unit(self, index: int) -> UnitOutcome:
        out = UnitOutcome(attempted=1)
        unit_dir = os.path.join(self.work_dir, f"unit{index}")
        os.makedirs(unit_dir, exist_ok=True)
        try:
            rng = SeededRng(self.seed).child(1)
            params = experiment.pretrain_encoder(self.cfg, self.primary.train, rng, unit_dir)
        except Exception as exc:  # noqa: BLE001 - a failed pretraining is counted, the run goes on
            out.failed = 1
            out.reasons.append(failure_reason(exc))
            return out
        digest = _Digest()
        digest.add(params)
        trace_rows = []
        for name in sorted(os.listdir(unit_dir)):
            with open(os.path.join(unit_dir, name), "rb") as f:
                blob = f.read()
            digest.add(name, blob)
            if name.endswith("-trace.csv"):
                trace_rows = blob.decode().splitlines()[1:]
        shutil.rmtree(unit_dir)
        out.digest = digest.hexdigest()
        out.quality = {"final_loss": last_epoch_objective(trace_rows, self.cfg, len(self.primary.train))}
        return out


def last_epoch_objective(trace_rows: list[str], cfg: ExperimentConfig, n_images: int) -> float:
    """Mean of loss + lambda1 * penalty over the last epoch's steps of a
    pretraining trace CSV (iter, partition_count, loss, penalty, lr)."""
    bs = cfg.ipirm.batch_size
    steps_per_epoch = sum(1 for b in range(0, n_images, bs) if min(bs, n_images - b) >= 2)
    rows = [line.split(",") for line in trace_rows[-steps_per_epoch:]]
    if not rows:
        raise CheckFailed("pretraining wrote an empty trace")
    return float(np.mean([float(r[2]) + cfg.ipirm.lambda1 * float(r[3]) for r in rows]))


class MetaTest:
    """test_cell at every configured shot count on a fresh parameter version
    per unit; the parameters and episodes come from a unit-derived stream."""

    min_units = 1

    def __init__(self, seed: int, cfg: ExperimentConfig = META_TEST_CONFIG) -> None:
        self.seed = seed
        self.cfg = cfg

    def setup(self) -> None:
        self.primary = experiment.prepare_splits(self.cfg, "same")

    def unit(self, index: int) -> UnitOutcome:
        cfg = self.cfg
        rng = SeededRng(self.seed).child(index)
        per_call = cfg.test_repeats * cfg.test_episodes
        out = UnitOutcome(attempted=per_call * len(cfg.k_shots))
        digest = _Digest()
        scores = []
        params = encoder.init_params(cfg.encoder, rng.child(0))
        for shots in cfg.k_shots:
            try:
                repeats = experiment.test_cell(cfg, params, self.primary, "meta-fine-same", shots, rng.child(shots))
            except Exception as exc:  # noqa: BLE001 - a failed test pass counts its episodes as failed
                out.failed += per_call
                out.reasons.append(f"{shots}-shot: {failure_reason(exc)}")
                continue
            flat = check_aurocs(f"{shots}-shot test", repeats, cfg.test_episodes)
            scores.extend(flat)
            digest.add(np.array(flat))
        out.digest = digest.hexdigest()
        if scores:
            out.quality = {"auroc": float(np.mean(scores))}
        return out
