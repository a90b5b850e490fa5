"""Runner layer: strict config parsing, per-cell orchestration with
failure isolation, grid search, report emission, and the CLI."""

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from metabdc.cli import main
from metabdc.config import (
    ExperimentConfig,
    ProxyConfig,
    apply_grid_overrides,
    apply_profile,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    train_label_space,
    train_source,
)
from metabdc.core import SeededRng
from metabdc.data import HierarchySpec, SyntheticConfig
from metabdc.encoder import EncoderConfig, init_params
from metabdc import experiment
from metabdc.experiment import (
    CellOutcome,
    RowFragment,
    cell_list,
    grid_search,
    pretrain_encoder,
    prepare_splits,
    run_experiment,
    shot_label,
)
from metabdc.finetune import FinetuneConfig
from metabdc.report import ResultsTable, column_label, emit_report
from metabdc.ssl import AugmentConfig, IpIrmConfig


def tiny_cfg(**kw):
    base = dict(
        pretrain="none",
        pretrain_kinds=("none",),
        finetune_kinds=("meta-fine-same", "fully-supervised"),
        k_shots=(1,),
        n_way=2,
        q_query=3,
        encoder=EncoderConfig(
            height=16, width=16, channels=1, stages=((4, 3, 2), (8, 3, 2)), proj_hidden=16, proj_dim=8
        ),
        data=SyntheticConfig(count_per_fine=32, image_size=16, px=6.25, py=6.25, seed=3),
        other_data=SyntheticConfig(
            count_per_fine=32, image_size=16, px=6.25, py=6.25, seed=103,
            texture_family="rings", hierarchy=HierarchySpec.nested(8, 4),
        ),
        ipirm=IpIrmConfig(
            outer_iterations=1, partition_steps=8, partition_restarts=1, epochs_per_iter=1,
            batch_size=32, base_lr=1e-3,
        ),
        proxy=ProxyConfig(epochs=1, batch_size=32),
        tune=FinetuneConfig(lr=1e-2, epochs=2, decay_epochs=(1,), episodes_per_epoch=2, val_episodes=3),
        test_episodes=3,
        test_repeats=2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def all_non_default_cfg():
    """A config in which every leaf field differs from its default."""
    return ExperimentConfig(
        pretrain="simclr",
        pretrain_kinds=("none", "simclr"),
        finetune_kinds=("meta-coarse-same", "meta-fine-same"),
        k_shots=(2,),
        n_way=3,
        q_query=4,
        encoder=EncoderConfig(
            height=12, width=12, channels=2, stages=((6, 3, 1), (12, 5, 2)), proj_hidden=24, proj_dim=8
        ),
        data=SyntheticConfig(
            count_per_fine=48, image_size=20, hierarchy=HierarchySpec.nested(9, 3), texture_family="rings",
            intensity_bias=0.5, rotation_jitter=0.2, phase_jitter=0.4, noise=0.3, domain_shift=0.5,
            confound=1.0, band_base=2.5, band_step=1.5, group_size=6, px=5.0, py=4.0, seed=8,
        ),
        other_data=SyntheticConfig(
            count_per_fine=32, image_size=24, hierarchy=HierarchySpec((0, 1, 2, 0, 1, 2)),
            texture_family="grating", intensity_bias=0.1, rotation_jitter=0.1, phase_jitter=0.2,
            noise=0.2, domain_shift=2.0, confound=0.5, band_base=4.0, band_step=2.0, group_size=8,
            px=3.0, py=3.5, seed=9,
        ),
        val_fraction=0.6,
        train_domain=1,
        eval_domain=0,
        fov_mm=80.0,
        ipirm=IpIrmConfig(
            lambda1=0.3, lambda2=0.4, tau=0.7, outer_iterations=2, partition_steps=20,
            partition_restarts=3, partition_lr=0.05, tolerance=1e-4, epochs_per_iter=2, batch_size=16,
            weight_decay=5e-4, base_lr=None,
            augment=AugmentConfig(crop_scale=(0.5, 0.9), gain=(0.9, 1.1), bias=(-0.2, 0.2), rotation=0.5, ramp=1.0),
        ),
        proxy=ProxyConfig(epochs=3, batch_size=16, lr=0.05, weight_decay=1e-3, label_space="coarse"),
        tune=FinetuneConfig(
            lr=0.003, weight_decay=1e-3, epochs=5, decay_epochs=(2, 4), episodes_per_epoch=20,
            val_episodes=10, loss="aucm", metric="inner_product", temperature=2.0, aucm_margin=0.5,
            batch_size=16, proximal=0.1,
        ),
        test_episodes=50,
        test_repeats=2,
        grid=(
            ("tune.lr", (0.01, 0.003)),
            ("tune.decay_epochs", ((1,), (2, 3))),
            ("ipirm.base_lr", (None, 0.002)),
            ("proxy.label_space", ("fine",)),
        ),
    )


class TestConfigParsing:
    def test_empty_dict_gives_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_dict_roundtrip(self):
        cfg = tiny_cfg(grid=(("tune.lr", (0.01, 0.003)), ("ipirm.tau", (0.3,))))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_cfg(grid=(("tune.lr", (0.01,)),))
        path = str(tmp_path / "cfg.json")
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_every_leaf_off_default_roundtrips(self):
        def leaves(d, prefix=""):
            for key, value in d.items():
                if isinstance(value, dict) and key != "grid":
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}", value

        cfg = all_non_default_cfg()
        raw = config_to_dict(cfg)
        default = dict(leaves(config_to_dict(ExperimentConfig())))
        assert [path for path, value in leaves(raw) if value == default[path]] == []
        assert config_from_dict(json.loads(json.dumps(raw))) == cfg

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"k_shots": "15"}, "k_shots"),
            ({"k_shots": 5}, "k_shots"),
            ({"val_fraction": "0.5"}, "val_fraction"),
            ({"val_fraction": [0.5, 0.5]}, "val_fraction"),
            ({"n_way": True}, "n_way"),
            ({"tune": {"lr": "abc"}}, "tune.lr"),
            ({"tune": {"lr": None}}, "tune.lr"),
            ({"tune": {"epochs": 2.9}}, "tune.epochs"),
            ({"tune": {"temperature": float("nan")}}, "tune.temperature"),
            ({"fov_mm": float("inf")}, "fov_mm"),
            ({"fov_mm": 10**400}, "fov_mm"),
            ({"tune": {"decay_epochs": [1, "2"]}}, "tune.decay_epochs[1]"),
            ({"data": {"seed": 7.9}}, "data.seed"),
            ({"data": {"hierarchy": "00001111"}}, "data.hierarchy"),
            ({"proxy": {"label_space": ["fine"]}}, "proxy.label_space"),
            ({"encoder": {"stages": [[8, 3]]}}, "encoder.stages[0]"),
            ({"ipirm": {"augment": {"gain": [1.0]}}}, "ipirm.augment.gain"),
            ({"ipirm": {"augment": {"crop_scale": [0.5, 2.0]}}}, "ipirm.augment"),
            ({"grid": {"tune.lr": "0.003"}}, "grid.tune.lr"),
            ({"grid": {"tune.lr": ["0.003"]}}, "grid.tune.lr[0]"),
            ({"grid": {"tune.lr": [0.01, "0.003"]}}, "grid.tune.lr[1]"),
            ({"grid": {"tune.epochs": [2.9]}}, "grid.tune.epochs[0]"),
            ({"ipirm": {"batch_size": 1}}, "ipirm"),
            ({"ipirm": {"batch_size": 0}}, "ipirm"),
            ({"ipirm": {"epochs_per_iter": 0}}, "ipirm"),
            ({"ipirm": {"outer_iterations": -1}}, "ipirm"),
            ({"ipirm": {"partition_lr": -0.1}}, "ipirm"),
            ({"ipirm": {"partition_lr": 0}}, "ipirm"),
            ({"ipirm": {"tolerance": -1e-3}}, "ipirm"),
            ({"ipirm": {"base_lr": 0.0}}, "ipirm"),
            ({"encoder": {"stages": [[8, 0, 2], [16, 3, 2]]}}, "encoder.stages[0]"),
            ({"encoder": {"stages": [[8, 3, 2], [16, -1, 2]]}}, "encoder.stages[1]"),
            ({"encoder": {"stages": [[8, 3, 0], [16, 3, 2]]}}, "encoder.stages[0]"),
            ({"ipirm": {"tau": 0.001}}, "ipirm"),
            ({"val_fraction": -0.1}, "val_fraction"),
            ({"val_fraction": 1.5}, "val_fraction"),
            ({"encoder": {"height": 16, "width": 12}}, "encoder"),
        ],
    )
    def test_mistyped_value_is_rejected_naming_its_path(self, raw, path):
        with pytest.raises(ValueError, match="^" + re.escape(path) + ":"):
            config_from_dict(raw)

    def test_integers_fill_float_fields_and_null_fills_optional_ones(self):
        cfg = config_from_dict({"tune": {"lr": 1}, "grid": {"ipirm.base_lr": [None, 2]}})
        assert type(cfg.tune.lr) is float
        assert cfg.grid == (("ipirm.base_lr", (None, 2.0)),)
        assert type(cfg.grid[0][1][1]) is float

    def test_unknown_top_level_key(self):
        # fractions and out_size were fields once; val_fraction and encoder.height replace them
        for raw in ({"epochs": 3}, {"fractions": [0.5, 0.25, 0.25]}, {"out_size": 16}):
            with pytest.raises(ValueError, match=re.escape(f"unknown config keys: {sorted(raw)}")):
                config_from_dict(raw)

    def test_unknown_nested_key(self):
        with pytest.raises(ValueError, match="unknown tune keys"):
            config_from_dict({"tune": {"momentum": 0.9}})

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="pretrain kind"):
            tiny_cfg(pretrain="dino")
        with pytest.raises(ValueError, match="fine-tune kind"):
            tiny_cfg(finetune_kinds=("linear-probe",))

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            tiny_cfg(finetune_kinds=("meta-fine-same", "meta-fine-same"))

    def test_n_way_capped_by_eval_classes(self):
        # default hierarchy has 2 coarse classes, so 3-way evaluation cannot fill
        with pytest.raises(ValueError, match="coarse classes"):
            tiny_cfg(n_way=3)

    def test_domain_clash_rejected(self):
        with pytest.raises(ValueError, match="domains must differ"):
            tiny_cfg(eval_domain=0)

    def test_encoder_size_must_match_preprocessing(self):
        # preprocessing emits encoder.height x encoder.height images
        with pytest.raises(ValueError, match="^encoder: input must be square, got 16x12$"):
            tiny_cfg(encoder=replace(tiny_cfg().encoder, width=12))

    def test_grid_paths_validated(self):
        with pytest.raises(ValueError, match="grid path"):
            tiny_cfg(grid=(("data.seed", (1,)),))
        with pytest.raises(ValueError, match="no field"):
            tiny_cfg(grid=(("tune.momentum", (0.9,)),))
        with pytest.raises(ValueError, match="no values"):
            tiny_cfg(grid=(("tune.lr", ()),))

    def test_apply_grid_overrides(self):
        cfg = tiny_cfg()
        out = apply_grid_overrides(cfg, {"tune.lr": 0.5, "ipirm.weight_decay": 0.01})
        assert out.tune.lr == 0.5
        assert out.ipirm.weight_decay == 0.01
        assert cfg.tune.lr == 0.01  # original untouched

    def test_profiles(self):
        ci = apply_profile(tiny_cfg(), "ci")
        assert (ci.tune.episodes_per_epoch, ci.tune.val_episodes) == (100, 100)
        assert (ci.test_episodes, ci.test_repeats) == (100, 3)
        paper = apply_profile(tiny_cfg(), "paper")
        assert (paper.test_episodes, paper.test_repeats) == (600, 5)
        with pytest.raises(ValueError, match="profile"):
            apply_profile(tiny_cfg(), "fast")

    def test_digest_tracks_content(self):
        assert tiny_cfg().digest() == tiny_cfg().digest()
        assert tiny_cfg().digest() != tiny_cfg(n_way=2, q_query=4).digest()

    def test_kind_helpers(self):
        assert train_label_space("meta-fine-same") == "fine"
        assert train_label_space("meta-coarse-other") == "coarse"
        assert train_label_space("fully-supervised") == "coarse"
        assert train_source("meta-fine-other") == "other"
        assert train_source("meta-coarse-same") == "same"

    def test_cell_list_and_shot_labels(self):
        cfg = tiny_cfg(finetune_kinds=("meta-fine-same", "fully-supervised"), k_shots=(1, 5))
        assert cell_list(cfg) == [("meta-fine-same", 1), ("meta-fine-same", 5), ("fully-supervised", 0)]
        assert shot_label(0) == "whole"
        assert shot_label(5) == "5shot"


class TestExperiment:
    def test_run_experiment_artifacts(self, tmp_path):
        cfg = tiny_cfg()
        out = str(tmp_path / "run")
        fragment = run_experiment(cfg, 7, out)
        assert fragment.pretrain == "none"
        assert set(fragment.cells) == {("meta-fine-same", 1), ("fully-supervised", 0)}
        assert not any(c.failed for c in fragment.cells.values())
        for outcome in fragment.cells.values():
            assert 0.0 <= outcome.mean <= 1.0

        assert os.path.exists(os.path.join(out, "pretrain-none-s7.mbcp"))
        assert os.path.exists(os.path.join(out, "cell-none-meta-fine-same-1shot-s7.mbcp"))
        assert os.path.exists(os.path.join(out, "cell-none-fully-supervised-whole-s7.mbcp"))

        with open(fragment.metrics_path) as f:
            lines = f.read().splitlines()
        assert lines[0] == "run_id,phase,episode,repeat,auroc"
        body = [line.split(",") for line in lines[1:]]
        assert {row[1] for row in body} == {"val", "test"}
        assert {row[0] for row in body} == {
            "none+meta-fine-same-1shot-s7",
            "none+fully-supervised-whole-s7",
        }
        meta_test = [r for r in body if r[0].startswith("none+meta") and r[1] == "test"]
        assert len(meta_test) == cfg.test_episodes * cfg.test_repeats
        sup_test = [r for r in body if r[0].startswith("none+fully") and r[1] == "test"]
        assert len(sup_test) == 1

    def test_same_seed_metrics_byte_identical(self, tmp_path):
        cfg = tiny_cfg()
        frag_a = run_experiment(cfg, 11, str(tmp_path / "a"))
        frag_b = run_experiment(cfg, 11, str(tmp_path / "b"))
        with open(frag_a.metrics_path, "rb") as f:
            bytes_a = f.read()
        with open(frag_b.metrics_path, "rb") as f:
            bytes_b = f.read()
        assert bytes_a == bytes_b

    def test_cell_failure_is_isolated(self, tmp_path):
        # shot count larger than any eval pool: that cell fails, the rest run
        cfg = tiny_cfg(k_shots=(1, 40), finetune_kinds=("meta-fine-same",))
        fragment = run_experiment(cfg, 5, str(tmp_path / "run"))
        good = fragment.cells[("meta-fine-same", 1)]
        bad = fragment.cells[("meta-fine-same", 40)]
        assert not good.failed
        assert bad.failed
        assert bad.reason and "," not in bad.reason and "\n" not in bad.reason
        with open(fragment.metrics_path) as f:
            content = f.read()
        assert "1shot" in content and "40shot" not in content

    def test_pretrain_dispatch_none_vs_proxy(self, tmp_path):
        cfg = tiny_cfg()
        primary = prepare_splits(cfg, "same")
        rng = SeededRng(0).child(1)
        raw = pretrain_encoder(cfg, primary.train, rng)
        assert np.array_equal(raw["conv0_w"], init_params(cfg.encoder, rng.child(0))["conv0_w"])

        proxy_cfg = replace(cfg, pretrain="supervised-proxy")
        trained = pretrain_encoder(proxy_cfg, primary.train, rng, str(tmp_path), "-s0")
        assert not np.array_equal(trained["conv0_w"], raw["conv0_w"])
        assert os.path.exists(str(tmp_path / "pretrain-supervised-proxy-s0.mbcp"))

    def test_every_pretraining_kind_starts_from_the_none_weights(self, monkeypatch):
        # a pretraining gain measured against `none` is the training's only
        # if the trained kinds start from exactly the weights `none` returns
        cfg = tiny_cfg()
        primary = prepare_splits(cfg, "same")
        rng = SeededRng(0).child(1)
        none = pretrain_encoder(cfg, primary.train, rng)
        starts = {}

        def spy_contrastive(kind, images, ipirm, encoder, kind_rng, init=None):
            starts[kind] = init
            return init, None, []

        def spy_proxy(params, *args, **kwargs):
            starts["supervised-proxy"] = params
            return params

        monkeypatch.setattr(experiment, "pretrain", spy_contrastive)
        monkeypatch.setattr(experiment, "supervised_pretrain_ce", spy_proxy)
        for kind in ("simclr", "ipirm", "supervised-proxy"):
            pretrain_encoder(replace(cfg, pretrain=kind), primary.train, rng)
            assert starts[kind].keys() == none.keys()
            for name, value in none.items():
                assert starts[kind][name].dtype == value.dtype
                assert np.array_equal(starts[kind][name], value), (kind, name)

    def test_other_source_cell_uses_other_data(self, tmp_path):
        cfg = tiny_cfg(finetune_kinds=("meta-fine-other",))
        fragment = run_experiment(cfg, 3, str(tmp_path / "run"))
        outcome = fragment.cells[("meta-fine-other", 1)]
        assert not outcome.failed


class TestGridSearch:
    def test_requires_axes(self):
        with pytest.raises(ValueError, match="grid axes"):
            grid_search(tiny_cfg(), 0)

    def test_exact_tie_keeps_earlier_point(self):
        cfg = tiny_cfg(grid=(("tune.lr", (0.01, 0.01)),), finetune_kinds=("meta-fine-same",))
        best_cfg, points = grid_search(cfg, 2)
        assert len(points) == 2
        assert points[0].score == points[1].score
        assert best_cfg.tune.lr == 0.01

    def test_selects_max_validation_score(self):
        cfg = tiny_cfg(grid=(("tune.epochs", (2, 3)),), finetune_kinds=("meta-fine-same",))
        best_cfg, points = grid_search(cfg, 2)
        assert [p.score is not None for p in points] == [True, True]
        best = max(points, key=lambda p: p.score)
        assert best_cfg.tune.epochs == dict(best.overrides)["tune.epochs"]

    def test_all_points_failing_is_an_error(self):
        cfg = tiny_cfg(grid=(("tune.lr", (-1.0,)),), finetune_kinds=("meta-fine-same",))
        with pytest.raises(RuntimeError, match="every grid point failed"):
            grid_search(cfg, 0)


class TestReport:
    def make_table(self):
        cfg = tiny_cfg()
        full = RowFragment(
            "none", 0,
            {
                ("meta-fine-same", 1): CellOutcome(mean=0.8123, std=0.0456),
                ("fully-supervised", 0): CellOutcome(mean=0.7, std=0.0),
            },
            "a.csv",
        )
        partial = RowFragment(
            "simclr", 0,
            {("meta-fine-same", 1): CellOutcome(reason="ValueError: class 5; support count != 40")},
            "b.csv",
        )
        return cfg, ResultsTable.from_fragments(cfg, [full, partial], 0)

    def test_layout_and_failure_rendering(self, tmp_path):
        cfg, table = self.make_table()
        csv_path, txt_path = emit_report(table, str(tmp_path))
        with open(csv_path) as f:
            lines = f.read().splitlines()
        assert lines[0] == f"# seed=0 config={cfg.digest()}"
        assert lines[1] == "pretrain,meta-fine-same@1shot,fully-supervised@whole"
        assert lines[2] == "none,0.8123 +- 0.0456,0.7000 +- 0.0000"
        assert lines[3].startswith("simclr,FAILED(ValueError")
        assert "FAILED(missing)" in lines[3]
        with open(txt_path) as f:
            text = f.read()
        assert "meta-fine-same@1shot" in text
        assert "0.8123 +- 0.0456" in text

    def test_reemit_is_byte_identical(self, tmp_path):
        _, table = self.make_table()
        csv_path, txt_path = emit_report(table, str(tmp_path))
        with open(csv_path, "rb") as f:
            first = f.read()
        emit_report(table, str(tmp_path))
        with open(csv_path, "rb") as f:
            assert f.read() == first

    def test_column_label(self):
        assert column_label(("meta-coarse-other", 5)) == "meta-coarse-other@5shot"
        assert column_label(("fully-supervised", 0)) == "fully-supervised@whole"

    def test_empty_fragments_rejected(self):
        with pytest.raises(ValueError, match="no result rows"):
            ResultsTable.from_fragments(tiny_cfg(), [], 0)


class TestCli:
    @pytest.fixture()
    def setup(self, tmp_path):
        cfg = tiny_cfg(grid=(("tune.lr", (0.01, 0.003)),))
        cfg_path = str(tmp_path / "cfg.json")
        save_config(cfg_path, cfg)
        return cfg, cfg_path, str(tmp_path / "out")

    def test_pretrain_finetune_evaluate_chain(self, setup):
        _, cfg_path, out = setup
        assert main(["pretrain", "--config", cfg_path, "--seed", "4", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "pretrain-none-s4.mbcp"))
        assert main(["finetune", "--config", cfg_path, "--seed", "4", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "cell-none-meta-fine-same-1shot-s4.mbcp"))
        assert os.path.exists(os.path.join(out, "val-none+meta-fine-same-1shot-s4.csv"))
        assert main(["evaluate", "--config", cfg_path, "--seed", "4", "--out", out]) == 0
        test_csv = os.path.join(out, "test-none+meta-fine-same-1shot-s4.csv")
        with open(test_csv) as f:
            lines = f.read().splitlines()
        assert lines[0] == "run_id,phase,episode,repeat,auroc"
        assert len(lines) == 1 + 3 * 2  # test_episodes x test_repeats

    def test_evaluate_without_checkpoint_fails(self, setup, capsys):
        _, cfg_path, out = setup
        assert main(["evaluate", "--config", cfg_path, "--seed", "9", "--out", out]) == 2
        assert "finetune" in capsys.readouterr().err

    def test_grid_writes_best_config(self, setup):
        cfg, cfg_path, out = setup
        assert main(["grid", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "grid.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "point,score"
        assert len(lines) == 3
        best = load_config(os.path.join(out, "best_config.json"))
        assert best.tune.lr in (0.01, 0.003)

    def test_report_full_table(self, setup):
        _, cfg_path, out = setup
        assert main(["report", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "results.csv")) as f:
            lines = f.read().splitlines()
        assert lines[1] == "pretrain,meta-fine-same@1shot,fully-supervised@whole"
        assert [line.split(",")[0] for line in lines[2:]] == ["none"]

    def test_profile_flag_applies(self, setup, tmp_path):
        cfg, cfg_path, out = setup
        # ci profile forces 100-episode validation; the val CSV row count shows it
        assert main(["finetune", "--config", cfg_path, "--profile", "ci", "--seed", "1", "--out", out]) == 0
        val_csv = os.path.join(out, "val-none+meta-fine-same-1shot-s1.csv")
        with open(val_csv) as f:
            lines = f.read().splitlines()
        assert len(lines) == 1 + cfg.tune.epochs

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump({"bogus": 1}, f)
        assert main(["report", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_mistyped_config_exits_2_naming_the_field(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump({"k_shots": 5}, f)
        assert main(["report", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "k_shots" in capsys.readouterr().err
