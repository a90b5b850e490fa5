"""Tests of the benchmark's own pieces: span arithmetic, substitution and
restoration, and that tracing leaves the program's outputs unchanged."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

import metabdc.cli  # noqa: F401 - loads every metabdc module before snapshots
from metabdc.data import SyntheticConfig
from metabdc.finetune import FinetuneConfig
from metabdc.ssl import IpIrmConfig
from perfbench import run
from perfbench.spans import LAYER_METRICS, TARGETS, Tracer, self_times, unit_layer_metrics
from perfbench.workloads import META_TEST_CONFIG, STUDY_CONFIG, MetaTest, Pretrain, Study

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = replace(
    STUDY_CONFIG,
    data=SyntheticConfig(count_per_fine=16),
    other_data=replace(STUDY_CONFIG.other_data, count_per_fine=16),
    k_shots=(1,),
    q_query=2,
    ipirm=IpIrmConfig(outer_iterations=1, partition_steps=2, partition_restarts=1, epochs_per_iter=1),
    tune=FinetuneConfig(epochs=2, decay_epochs=(1,), episodes_per_epoch=2, val_episodes=2),
    test_episodes=3,
)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6] (overlapping: union [1, 6])
    # and 4 [9, 12], which covers only [9, 10] of its parent; 3 [1.5, 2.5] is
    # a grandchild under 1 and does not count against 0 a second time.
    start = [0.0, 1.0, 3.0, 1.5, 9.0]
    end = [10.0, 4.0, 6.0, 2.5, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_summary_adds_self_and_inclusive_time_per_name():
    tracer = Tracer()
    outer, inner = tracer.name_id("experiment.test_cell"), tracer.name_id("finetune.evaluate_episodes")
    leaf = tracer.name_id("bdc.bdc_matrix")
    for nid, s, e, p in ((outer, 0.0, 8.0, -1), (inner, 1.0, 7.0, 0), (leaf, 2.0, 3.0, 1), (leaf, 4.0, 6.0, 1)):
        tracer.name.append(nid)
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
    summary = tracer.summary()
    assert summary["bdc.bdc_matrix"] == {"calls": 2, "incl_s": 3.0, "self_s": 3.0}
    assert summary["finetune.evaluate_episodes"]["self_s"] == pytest.approx(3.0)
    assert summary["experiment.test_cell"]["self_s"] == pytest.approx(2.0)
    # evaluate_episodes under test_cell is the test phase, reported inclusive
    assert summary["finetune.test"]["incl_s"] == pytest.approx(6.0)
    assert summary["finetune.val"]["calls"] == 0
    metrics = unit_layer_metrics(tracer, summary, wall_s=8.0)
    assert metrics["experiment.test_cell.s"] == pytest.approx(8.0)
    assert metrics["trace.coverage_frac"] == pytest.approx(1.0)


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "metabdc" and module is not None:
            for key, value in vars(module).items():
                out[(name, key)] = value
    for module_name, attr, _ in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            out[(f"{module_name}.{cls_name}", meth)] = vars(cls)[meth]
    return out


def test_every_substituted_attribute_is_restored_to_the_original_object():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            during = _bindings()
            changed = {k for k in before if during[k] is not before[k]}
            # every module that binds forward_eval or sample_episode sees the wrapper
            for key in (
                ("metabdc.core.graph", "forward_eval"),
                ("metabdc.core", "forward_eval"),
                ("metabdc.encoder", "forward_eval"),
                ("metabdc.ssl", "forward_eval"),
                ("metabdc.finetune", "forward_eval"),
                ("metabdc.data", "sample_episode"),
                ("metabdc.finetune", "sample_episode"),
                ("metabdc.ssl", "resize_bilinear"),
                ("metabdc.data", "resize_bilinear"),
                ("metabdc.core.rng.SeededRng", "generator"),
            ):
                assert key in changed, key
            assert len(changed) > len(TARGETS)
            raise RuntimeError("raised inside the traced block")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _unit_pair(workload):
    """Outcome of one untraced and one traced unit of the same index."""
    workload.setup()
    plain = workload.unit(0)
    tracer = Tracer()
    with tracer.installed():
        traced = workload.unit(0)
    return plain, traced, unit_layer_metrics(tracer, tracer.summary(), wall_s=1.0)


def test_traced_study_unit_outputs_are_byte_identical_to_untraced():
    plain, traced, layers = _unit_pair(Study(3, cfg=TINY))
    assert plain.failed == 0 and plain.digest == traced.digest
    assert plain.quality == traced.quality
    assert layers["experiment.finetune_cell.s"] > 0 and layers["finetune.episode_steps"] == 2 * 2 * 4


def test_traced_pretrain_unit_matches_untraced_and_leaves_eval_layers_idle(tmp_path):
    plain, traced, layers = _unit_pair(Pretrain(3, str(tmp_path), cfg=replace(TINY, pretrain="ipirm")))
    assert plain.failed == 0 and plain.digest == traced.digest
    assert layers["ssl.update_representation.steps"] > 0 and layers["ssl.augment_views.images"] > 0
    for name in ("bdc.bdc_matrix.calls", "metrics.auroc_multiclass_ovr.calls", "finetune.evaluate_episode.calls"):
        assert layers[name] == 0, name


def test_traced_meta_test_unit_matches_untraced_and_leaves_training_layers_idle():
    cfg = replace(META_TEST_CONFIG, data=TINY.data, q_query=2, k_shots=(1, 2), test_episodes=3)
    plain, traced, layers = _unit_pair(MetaTest(3, cfg=cfg))
    assert plain.failed == 0 and plain.digest == traced.digest
    assert layers["finetune.test.s"] > 0 and layers["encoder.encode.images"] == 3 * 2 * (1 + 2) + 3 * 2 * (2 + 2)
    for name in ("ssl.augment_views.calls", "optim.sgd_step.calls", "core.graph.backward.calls"):
        assert layers[name] == 0, name


def test_units_of_one_seed_repeat_and_fresh_meta_test_units_differ():
    study = Study(4, cfg=TINY)
    study.setup()
    assert study.unit(0).digest == study.unit(1).digest
    meta = MetaTest(4, cfg=replace(META_TEST_CONFIG, data=TINY.data, q_query=2, k_shots=(1,), test_episodes=3))
    meta.setup()
    assert meta.unit(0).digest != meta.unit(1).digest


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
