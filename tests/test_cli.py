import argparse
import csv
import hashlib
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import volseg
from volseg import _kernels, cli
from volseg.cli import _KEYS, build_parser, build_run_config, load_config_file, main
from volseg.network import NetworkConfig, build_unet, save_weights
from volseg.nifti import _HEADER, read_nifti, write_nifti
from volseg.volume import LabelMask, Volume3D, resample_linear, resample_nearest

from oracles import overlap_counts

README = Path(__file__).resolve().parent.parent / "README.md"
TOY_NET = ["network.base_width = 2", "network.num_stages = 2", "network.kernel_plan = 3,3"]


def write_config(tmp_path, lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def no_payload_read(path, as_mask=False):
    """Stands in for ``cli.read_nifti`` where every input must be refused on its header."""
    pytest.fail(f"{path}: payload read before every header was checked")


def toy_weights(tmp_path, seed=0, in_channels=1, name="toy.vskw"):
    cfg = NetworkConfig(in_channels=in_channels, base_width=2, num_stages=2, kernel_plan=(3, 3))
    path = tmp_path / name
    save_weights(build_unet(cfg, init_seed=seed), path)
    return str(path)


class TestConfigFile:
    def test_round_trip_of_flat_keys(self, tmp_path):
        path = write_config(tmp_path, [
            "task = task2",
            "seed = 7",
            "volume.working_spacing = 0.5,0.5,2.0",
            "inference.stride = 80,80,16",
            "inference.weighting = equal",
            "augmentation.constant_p = 0.15",
            "# a comment",
            "",
        ])
        cfg = build_run_config(path)
        assert cfg.task == "task2"
        assert cfg.seed == 7
        assert cfg.network.in_channels == 4
        assert cfg.window.exempt_channels == frozenset({2, 3})
        assert cfg.window.stride == (80, 80, 16)
        assert cfg.window.weighting == "equal"
        assert cfg.policy.constant_p == 0.15

    def test_defaults_without_file(self):
        cfg = build_run_config(None)
        assert cfg.task == "task1"
        assert cfg.network.in_channels == 1
        assert cfg.working_spacing == (0.5, 0.5, 2.0)
        assert cfg.window.patch_size == (320, 320, 64)
        assert cfg.window.stride == (80, 80, 16)
        assert cfg.policy.p_start == 0.05
        assert cfg.policy.p_end == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, ["no.such.key = 1"])
        with pytest.raises(ValueError, match="unknown config keys"):
            build_run_config(path)

    def test_cli_overrides_win(self, tmp_path):
        path = write_config(tmp_path, ["inference.weighting = equal"])
        cfg = build_run_config(path, {"inference.weighting": "gaussian"})
        assert cfg.window.weighting == "gaussian"

    def test_flag_and_file_may_both_set_a_key(self, tmp_path):
        path = write_config(tmp_path, ["task = task1", "seed = 3", "weights = a.vskw"])
        cfg = build_run_config(path, {"task": "task2", "seed": 9, "weights": ["b.vskw"]})
        assert cfg.task == "task2"
        assert cfg.seed == 9
        assert cfg.weights == ["b.vskw"]
        # the flag's task, not the file's, sets the input and exempt channels
        assert cfg.network.in_channels == 4
        assert cfg.window.exempt_channels == frozenset({2, 3})

    def test_unset_override_keeps_file_value(self, tmp_path):
        path = write_config(tmp_path, ["seed = 3", "augmentation.total_iters = 1000"])
        cfg = build_run_config(path, {"seed": None, "augmentation.total_iters": None})
        assert cfg.seed == 3
        assert cfg.policy.total_iters == 1000

    def test_empty_value_means_default_for_every_key(self, tmp_path):
        path = write_config(tmp_path, [f"{key} =" for key in _KEYS])
        assert build_run_config(path) == build_run_config(None)

    def test_readme_config_block_builds_to_the_defaults(self, tmp_path):
        text = README.read_text()
        block = text[text.index("Keys and defaults:"):].split("```")[1]
        path = write_config(tmp_path, block.splitlines())
        assert replace(build_run_config(path), weights=[]) == build_run_config(None)
        assert set(load_config_file(path)) == set(_KEYS)

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        lines = [
            "weights = /data/run#1/fold0.vskw,/data/run#2/fold0.vskw  # two folds",
            "  # an indented comment",
            "seed = 4\t# after a tab",
        ]
        path = write_config(tmp_path, lines + ["task = task1#"])
        assert load_config_file(path) == {
            "weights": "/data/run#1/fold0.vskw,/data/run#2/fold0.vskw",
            "seed": "4",
            "task": "task1#",
        }
        cfg = build_run_config(write_config(tmp_path, lines))
        assert cfg.weights == ["/data/run#1/fold0.vskw", "/data/run#2/fold0.vskw"]
        assert cfg.seed == 4

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        path = write_config(tmp_path, ["seed = 1", "task = task1", "# seed = 3", "seed = 2"])
        with pytest.raises(ValueError, match=r"run\.cfg:4: key 'seed' is already set on line 1"):
            load_config_file(path)
        assert main(["net-info", "--config", path]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_bad_value_names_its_key(self, tmp_path, capsys):
        path = write_config(tmp_path, ["network.base_width = abc"])
        assert main(["net-info", "--config", path]) == 2
        assert "network.base_width" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
    def test_constant_p_outside_unit_interval_rejected(self, tmp_path, value):
        path = write_config(tmp_path, [f"augmentation.constant_p = {value}"])
        with pytest.raises(ValueError, match="constant_p"):
            build_run_config(path)

    def test_patch_size_the_poolings_cannot_halve_fails_before_any_input_is_read(self, tmp_path, capsys):
        # a 3-stage net pools twice, so each patch dim must be divisible by 4;
        # infer fails on the config key, before it looks for its missing input
        path = write_config(tmp_path, ["network.base_width = 2", "network.num_stages = 3",
                                       "network.kernel_plan = 3,3,3", "inference.patch_size = 10,8,8",
                                       "inference.stride = 5,4,4"])
        with pytest.raises(ValueError, match=r"inference\.patch_size: \(10, 8, 8\) must be divisible by 4"):
            build_run_config(path)
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--config", path, "--weights", str(tmp_path / "missing.vskw"),
                     "--output", str(out), str(tmp_path / "missing.nii.gz")])
        err = capsys.readouterr().err
        assert code == 2 and "inference.patch_size" in err and "read-input" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("augmentation.noise_sigma = 0.1", "augmentation.noise_sigma"),
        ("augmentation.motion_shift = 3", "augmentation.motion_shift"),
        ("augmentation.contrast_range = 0,1.5", "augmentation.contrast_range"),
        ("augmentation.motion_weight = 0.1,2", "augmentation.motion_weight"),
        ("augmentation.mirror_axes = 0,3", "augmentation.mirror_axes"),
        ("augmentation.bias_order = -1", "augmentation.bias_order"),
        ("augmentation.max_rotation_deg = nan", "augmentation.max_rotation_deg"),
        ("augmentation.max_rotation_deg = -5", "augmentation.max_rotation_deg"),
    ])
    def test_bad_transform_params_fail_when_the_config_is_built(self, tmp_path, capsys, line, key):
        # augment-preview fails on the key, before it looks for its missing volume
        path = write_config(tmp_path, [line])
        with pytest.raises(ValueError, match=re.escape(key)):
            build_run_config(path)
        out_dir = tmp_path / "preview"
        code = main(["augment-preview", "--config", path, "--volume", str(tmp_path / "missing.nii.gz"),
                     "--mask", str(tmp_path / "missing_mask.nii.gz"), "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2 and key in err and "read-input" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("lines, key", [
        (["inference.stride = 16,16"], "inference.stride"),
        (["inference.patch_size = 32,32,32,32", "inference.stride = 16,16,16,16"], "inference.patch_size"),
        (["inference.patch_size = 32,32", "inference.stride = 16,16"], "inference.patch_size"),
        (["volume.working_spacing = 1,1"], "volume.working_spacing"),
        (["volume.working_spacing = 1,0,1"], "volume.working_spacing"),
    ])
    def test_window_and_spacing_arity_fail_before_any_input_is_read(self, tmp_path, capsys, lines, key):
        # infer used to load every fold, then fail in predict's unpack
        path = write_config(tmp_path, TOY_NET + lines)
        with pytest.raises(ValueError, match=re.escape(key)):
            build_run_config(path)
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--config", path, "--weights", toy_weights(tmp_path),
                     "--output", str(out), str(tmp_path / "missing.nii.gz")])
        err = capsys.readouterr().err
        assert code == 2 and key in err
        assert "read-input" not in err and "predict" not in err
        assert not out.exists()

    def test_negative_seed_fails_when_the_config_is_built(self, tmp_path, capsys):
        path = write_config(tmp_path, ["seed = -1"])
        with pytest.raises(ValueError, match=r"^seed: expected a non-negative integer, got -1$"):
            build_run_config(path)
        # infer refuses the file's seed, and augment-preview its --seed flag, which goes through
        # the same key, before any input is read
        out, out_dir = tmp_path / "labels.nii.gz", tmp_path / "preview"
        missing = str(tmp_path / "missing.nii.gz")
        for argv in (["infer", "--config", path, "--weights", str(tmp_path / "missing.vskw"),
                      "--output", str(out), missing],
                     ["augment-preview", "--seed", "-1", "--volume", missing, "--mask", missing,
                      "--out-dir", str(out_dir)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: seed: expected a non-negative integer, got -1\n"
        assert not out.exists() and not out_dir.exists()

    def test_every_config_flag_dest_is_a_key(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        checked = set()
        for command, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions}
            if "config" not in dests:
                continue
            config_dests = {d for d in dests if "." in d or d in ("task", "seed", "weights")}
            assert config_dests <= set(_KEYS), command
            checked |= config_dests
        assert {"task", "seed", "weights", "network.kernel_plan", "network.base_width",
                "inference.weighting", "augmentation.constant_p", "augmentation.total_iters"} == checked


class TestNetInfo:
    def test_default_totals_in_expected_ranges(self, capsys):
        assert main(["net-info"]) == 0
        out = capsys.readouterr().out
        total = int(re.search(r"kernel plan 3,3,3,3,1,1\): (\d+)", out).group(1))
        all3 = int(re.search(r"all 3x3x3 kernels\): (\d+)", out).group(1))
        assert 13_000_000 <= total <= 15_000_000
        assert 80_000_000 <= all3 <= 92_000_000

    def test_kernel_plan_flag_changes_configured_total(self, capsys):
        assert main(["net-info", "--kernel-plan", "3,3,3,3,3,3"]) == 0
        out = capsys.readouterr().out
        total = int(re.search(r"kernel plan 3,3,3,3,3,3\): (\d+)", out).group(1))
        assert 80_000_000 <= total <= 92_000_000

    def test_task2_reports_four_input_channels(self, capsys):
        assert main(["net-info", "--task", "task2"]) == 0
        assert "first conv in-channels: 4" in capsys.readouterr().out

    def test_counts_from_the_plan_without_building_weights(self, capsys):
        tracemalloc.start()
        try:
            assert main(["net-info"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert "kernel plan 3,3,3,3,1,1): 14034403\n" in out
        assert "all 3x3x3 kernels): 85599715\n" in out
        assert peak < 10e6, f"net-info peaked at {peak / 1e6:.1f} MB of traced allocations"

    # sha256 of the text printed before conv weights were stored channels-last
    @pytest.mark.parametrize("args,digest", [
        ([], "9f6ed0ddfc5b2a781b5ca3c8933a24ce06d3d72b758f37546ff99983e664875c"),
        (["--task", "task2"], "3950035a0da0aa973919742a9aba9dfd522f48a47bdf455007cb1934b13fed1b"),
    ])
    def test_text_unchanged(self, capsys, args, digest):
        assert main(["net-info", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_per_layer_lines_present(self, capsys):
        main(["net-info"])
        out = capsys.readouterr().out
        assert re.search(r"^\s*0\s+conv\s+3x3x3", out, re.M)
        assert "instance_norm" in out
        assert "softmax" in out


class TestFolds:
    def ids_file(self, tmp_path, n, name="ids.txt"):
        path = tmp_path / name
        path.write_text("\n".join(f"patient{i:03d}" for i in range(n)) + "\n")
        return str(path)

    def read_assignment(self, path):
        with open(path) as f:
            rows = list(csv.DictReader(f))
        return {r["patient_id"]: int(r["fold"]) for r in rows}

    def test_150_patients_split_evenly(self, tmp_path):
        out = tmp_path / "folds.csv"
        assert main(["folds", self.ids_file(tmp_path, 150), "--seed", "1", "--output", str(out)]) == 0
        assignment = self.read_assignment(out)
        sizes = [list(assignment.values()).count(f) for f in range(5)]
        assert sizes == [30] * 5

    def test_seven_patients_round_robin_remainder(self, tmp_path):
        out = tmp_path / "folds.csv"
        assert main(["folds", self.ids_file(tmp_path, 7), "--seed", "3", "--output", str(out)]) == 0
        sizes = sorted(
            (list(self.read_assignment(out).values()).count(f) for f in range(5)), reverse=True
        )
        assert sizes == [2, 2, 1, 1, 1]

    def test_same_seed_is_deterministic(self, tmp_path):
        ids = self.ids_file(tmp_path, 23)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["folds", ids, "--seed", "9", "--output", str(out_a)])
        main(["folds", ids, "--seed", "9", "--output", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        out_c = tmp_path / "c.csv"
        main(["folds", ids, "--seed", "10", "--output", str(out_c)])
        assert out_a.read_bytes() != out_c.read_bytes()

    def test_duplicate_ids_error(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("a\nb\na\nc\nd\ne\n")
        assert main(["folds", str(path), "--output", str(tmp_path / "f.csv")]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_too_few_patients_error(self, tmp_path):
        assert main(["folds", self.ids_file(tmp_path, 4), "--output", str(tmp_path / "f.csv")]) == 2

    @pytest.mark.parametrize("fault, stage", [
        ("missing ids file", "read-input"),
        ("duplicate ids", "read-input"),
        ("too few ids", "read-input"),
        ("missing output directory", "write-output"),
    ])
    def test_errors_name_their_stage(self, tmp_path, capsys, fault, stage):
        ids = self.ids_file(tmp_path, 4 if fault == "too few ids" else 6)
        if fault == "missing ids file":
            ids = str(tmp_path / "missing.txt")
        if fault == "duplicate ids":
            with open(ids, "a") as f:
                f.write("patient000\n")
        out = tmp_path / "no_dir" / "f.csv" if fault == "missing output directory" else tmp_path / "f.csv"
        assert main(["folds", ids, "--output", str(out)]) == 2
        assert f"error: {stage}: " in capsys.readouterr().err
        assert not out.exists()


    def test_negative_seed_is_refused_before_the_ids_file_is_read(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["folds", str(tmp_path / "missing.txt"), "--seed", "-1", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed: expected a non-negative integer, got -1\n"
        assert not out.exists()


class TestEvaluate:
    def write_masks(self, tmp_path, rng, names, sub):
        d = tmp_path / sub
        d.mkdir()
        masks = {}
        for name in names:
            mask = LabelMask(rng.integers(0, 3, size=(6, 6, 6)).astype(np.uint8), (1, 1, 1))
            write_nifti(mask, d / name)
            masks[name] = mask
        return d, masks

    def test_perfect_predictions_score_one(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        truth_dir, masks = self.write_masks(tmp_path, rng, ["a.nii", "b.nii"], "truth")
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for name, mask in masks.items():
            write_nifti(mask, pred_dir / name)
        csv_out = tmp_path / "report.csv"
        assert main(["evaluate", str(truth_dir), str(pred_dir), "--csv", str(csv_out)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"GTVp\s+GTVn\s+Average", out)
        rows = {r[0]: r for r in csv.reader(csv_out.read_text().splitlines())}
        assert float(rows["AGG_MEAN"][2]) == 1.0

    def test_csv_matches_counting_oracle(self, tmp_path):
        rng = np.random.default_rng(1)
        names = ["p1.nii", "p2.nii", "p3.nii"]
        truth_dir, truths = self.write_masks(tmp_path, rng, names, "truth")
        pred_dir, preds = self.write_masks(tmp_path, rng, names, "pred")
        csv_out = tmp_path / "report.csv"
        assert main(["evaluate", str(truth_dir), str(pred_dir), "--csv", str(csv_out)]) == 0
        rows = {r[0] + "/" + r[1]: r for r in csv.reader(csv_out.read_text().splitlines())}
        for class_id, class_name in ((1, "GTVp"), (2, "GTVn")):
            tp = n_t = n_p = 0
            for name in names:
                a, b, c = overlap_counts(truths[name].labels == class_id,
                                         preds[name].labels == class_id)
                tp += a
                n_t += b
                n_p += c
            agg = float(rows[f"AGG_{class_name}/{class_name}"][2])
            assert abs(agg - 2.0 * tp / (n_t + n_p)) < 1e-6

    def test_unmatched_files_warned_and_skipped(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        truth_dir, _ = self.write_masks(tmp_path, rng, ["a.nii", "only_truth.nii"], "truth")
        pred_dir, _ = self.write_masks(tmp_path, rng, ["a.nii", "only_pred.nii"], "pred")
        assert main(["evaluate", str(truth_dir), str(pred_dir)]) == 0
        err = capsys.readouterr().err
        assert "only_truth.nii" in err
        assert "only_pred.nii" in err

    def test_cases_pair_by_file_name_without_its_nifti_suffix(self, tmp_path, capsys):
        # a.nii pairs with a.nii.gz, and the CSV names the patient a
        rng = np.random.default_rng(7)
        truth_dir, masks = self.write_masks(tmp_path, rng, ["a.nii", "b.nii.gz"], "truth")
        pred_dir, _ = self.write_masks(tmp_path, rng, ["c.nii.gz"], "pred")
        write_nifti(masks["a.nii"], pred_dir / "a.nii.gz")
        write_nifti(masks["b.nii.gz"], pred_dir / "b.nii")
        csv_out = tmp_path / "report.csv"
        assert main(["evaluate", str(truth_dir), str(pred_dir), "--csv", str(csv_out)]) == 0
        assert capsys.readouterr().err == "warning: c.nii.gz has no matching ground truth file, skipped\n"
        rows = list(csv.reader(csv_out.read_text().splitlines()))
        assert [row[0] for row in rows[1:5]] == ["a", "b", "a", "b"]
        assert rows[-1][:3] == ["AGG_MEAN", "", "1.000000"]

    @pytest.mark.parametrize("side", ["truth", "pred"])
    def test_two_files_of_one_patient_id_are_refused(self, tmp_path, capsys, side):
        # case.nii beside case.nii.gz would score one case twice in the aggregated Dice
        rng = np.random.default_rng(8)
        dirs = {sub: self.write_masks(tmp_path, rng, ["case.nii.gz"], sub)[0] for sub in ("truth", "pred")}
        write_nifti(LabelMask(np.zeros((6, 6, 6), np.uint8), (1, 1, 1)), dirs[side] / "case.nii")
        csv_out = tmp_path / "report.csv"
        assert main(["evaluate", str(dirs["truth"]), str(dirs["pred"]), "--csv", str(csv_out)]) == 2
        assert capsys.readouterr().err == (f"error: read-input: {dirs[side] / 'case.nii'} and "
                                           f"{dirs[side] / 'case.nii.gz'} both hold patient id 'case'\n")
        assert not csv_out.exists()

    def test_empty_intersection_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        truth_dir, _ = self.write_masks(tmp_path, rng, ["a.nii"], "truth")
        pred_dir, _ = self.write_masks(tmp_path, rng, ["b.nii"], "pred")
        assert main(["evaluate", str(truth_dir), str(pred_dir)]) == 2

    @pytest.mark.parametrize("fault, stage", [
        ("missing truth directory", "read-input"),
        ("corrupt truth file", "read-input"),
        ("dims differ", "read-input"),
        ("missing csv directory", "write-output"),
    ])
    def test_errors_name_their_stage(self, tmp_path, capsys, fault, stage):
        rng = np.random.default_rng(5)
        truth_dir, _ = self.write_masks(tmp_path, rng, ["a.nii"], "truth")
        pred_dir, _ = self.write_masks(tmp_path, rng, ["a.nii"], "pred")
        args = ["evaluate", str(truth_dir), str(pred_dir)]
        if fault == "missing truth directory":
            args[1] = str(tmp_path / "no_truth")
        elif fault == "corrupt truth file":
            (truth_dir / "a.nii").write_bytes(b"\0" * 100)  # shorter than a NIfTI-1 header
        elif fault == "dims differ":
            write_nifti(LabelMask(np.zeros((6, 6, 5), np.uint8), (1, 1, 1)), pred_dir / "a.nii")
        else:
            args += ["--csv", str(tmp_path / "no_dir" / "report.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {stage}: " in err and "Traceback" not in err

    def test_prediction_on_another_spacing_is_read_input_error(self, tmp_path, capsys, monkeypatch):
        # equal dims at half the truth's spacing: another grid, whatever the labels say. The
        # third of three pairs is refused on the headers, before any pair's payload is read
        rng = np.random.default_rng(6)
        names = ["a.nii", "b.nii", "c.nii"]
        truth_dir, masks = self.write_masks(tmp_path, rng, names, "truth")
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for name in names:
            write_nifti(LabelMask(masks[name].labels, (0.5, 0.5, 0.5) if name == "c.nii" else (1, 1, 1)),
                        pred_dir / name)
        csv_out = tmp_path / "report.csv"
        monkeypatch.setattr(cli, "read_nifti", no_payload_read)
        assert main(["evaluate", str(truth_dir), str(pred_dir), "--csv", str(csv_out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: read-input: {pred_dir / 'c.nii'} has grid 6x6x6 at 0.5x0.5x0.5 mm but "
                       f"{truth_dir / 'c.nii'} has 6x6x6 at 1x1x1 mm; register the inputs to one grid first\n")
        assert not csv_out.exists()

    def test_truncated_gzip_mask_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        truth_dir, _ = self.write_masks(tmp_path, rng, ["a.nii.gz"], "truth")
        pred_dir, _ = self.write_masks(tmp_path, rng, ["a.nii.gz"], "pred")
        raw = (pred_dir / "a.nii.gz").read_bytes()
        (pred_dir / "a.nii.gz").write_bytes(raw[: len(raw) // 2])
        assert main(["evaluate", str(truth_dir), str(pred_dir)]) == 2
        err = capsys.readouterr().err
        assert "a.nii.gz" in err and "Traceback" not in err


class TestInfer:
    def toy_volume(self, tmp_path, seed=0, dims=(8, 8, 8), name="scan.nii.gz"):
        rng = np.random.default_rng(seed)
        vol = Volume3D(rng.normal(size=(1, *dims)).astype(np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / name
        write_nifti(vol, path)
        return str(path)

    def toy_config(self, tmp_path):
        return write_config(tmp_path, TOY_NET + [
            "volume.working_spacing = 1.0,1.0,1.0",
            "inference.patch_size = 8,8,8",
            "inference.stride = 4,4,4",
        ])

    def test_single_model_inference_writes_labels(self, tmp_path):
        scan = self.toy_volume(tmp_path)
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path), "--output", str(out), scan])
        assert code == 0
        labels = read_nifti(out, as_mask=True)
        assert labels.dims == (8, 8, 8)
        assert set(np.unique(labels.labels)) <= {0, 1, 2}

    def test_repeat_runs_byte_identical_and_ensemble_of_one_matches(self, tmp_path):
        scan = self.toy_volume(tmp_path)
        cfg = self.toy_config(tmp_path)
        w = toy_weights(tmp_path)
        digests = []
        for name in ("a.nii.gz", "b.nii.gz"):
            out = tmp_path / name
            assert main(["infer", "--config", cfg, "--weights", w, "--output", str(out), scan]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        # passing the same weights twice averages two identical fields
        out2 = tmp_path / "c.nii.gz"
        assert main(["infer", "--config", cfg, "--weights", w, "--weights", w,
                     "--output", str(out2), scan]) == 0
        assert hashlib.sha256(out2.read_bytes()).hexdigest() == digests[0]

    def test_output_independent_of_blas_thread_count(self, tmp_path):
        # the default network on one 32^3 tile, with 1 and 2 BLAS threads
        rng = np.random.default_rng(8)
        scan = tmp_path / "scan.nii.gz"
        write_nifti(Volume3D(rng.normal(size=(1, 32, 32, 32)).astype(np.float32), (1.0, 1.0, 1.0)), scan)
        weights = tmp_path / "default.vskw"
        save_weights(build_unet(NetworkConfig(), init_seed=9), weights)
        cfg = write_config(tmp_path, ["volume.working_spacing = 1,1,1",
                                      "inference.patch_size = 32,32,32", "inference.stride = 32,32,32"])
        src = str(Path(volseg.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"labels_{threads}.nii.gz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "volseg.cli", "infer", "--config", cfg,
                            "--weights", str(weights), "--output", str(out), str(scan)],
                           env=env, check=True, timeout=300, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def labels_of_plain_and_scaled_scan(self, tmp_path, slope, inter):
        """Labels ``infer`` writes for a scan and for its copy with the given scaling fields."""
        data = np.random.default_rng(9).integers(-100, 100, size=(8, 8, 8)).astype(np.float32)
        scans = [tmp_path / "plain.nii", tmp_path / "scaled.nii"]
        for scan in scans:
            write_nifti(Volume3D(data, (1.0, 1.0, 1.0)), scan)
        raw = bytearray(scans[1].read_bytes())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=_HEADER).copy()[0]
        hdr["scl_slope"], hdr["scl_inter"] = slope, inter
        raw[:348] = hdr.tobytes()
        scans[1].write_bytes(bytes(raw))
        cfg, weights = self.toy_config(tmp_path), toy_weights(tmp_path, seed=3)
        labels = []
        for scan in scans:
            out = tmp_path / f"{scan.stem}_labels.nii.gz"
            assert main(["infer", "--config", cfg, "--weights", weights, "--output", str(out), str(scan)]) == 0
            labels.append(read_nifti(out, as_mask=True).labels)
        assert len(np.unique(labels[0])) > 1
        return labels

    def test_zero_scl_slope_scan_reads_unscaled(self, tmp_path):
        # NIfTI-1: scl_slope 0 means no scaling, so scl_inter 5 must not make the scan constant
        plain, scaled = self.labels_of_plain_and_scaled_scan(tmp_path, 0.0, 5.0)
        assert np.array_equal(plain, scaled)

    def test_nan_scl_slope_scan_reads_unscaled(self, tmp_path):
        # a NaN slope reads as 0, no scaling, as nifti1_io.c reads it; multiplied in, it made the scan all NaN
        plain, scaled = self.labels_of_plain_and_scaled_scan(tmp_path, np.nan, 5.0)
        assert np.array_equal(plain, scaled)

    def scan_in_units(self, tmp_path, units, mm_per_unit):
        """A (12, 10, 8) scan at (1, 1, 2) mm, and its copy whose header gives pixdim in ``units``."""
        data = np.random.default_rng(10).normal(size=(1, 12, 10, 8)).astype(np.float32)
        scans = [tmp_path / "mm.nii", tmp_path / f"units{units}.nii"]
        for scan in scans:
            write_nifti(Volume3D(data, (1.0, 1.0, 2.0)), scan)
        raw = bytearray(scans[1].read_bytes())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=_HEADER).copy()[0]
        hdr["pixdim"][1:4] = np.array([1.0, 1.0, 2.0]) / mm_per_unit
        hdr["xyzt_units"] = units
        raw[:348] = hdr.tobytes()
        scans[1].write_bytes(bytes(raw))
        return scans

    @pytest.mark.parametrize("units, mm_per_unit", [(1 | 8, 1000.0), (3, 0.001)], ids=["metre", "micron"])
    def test_scan_in_metres_or_microns_gets_the_mm_scans_labels(self, tmp_path, units, mm_per_unit):
        # the time unit bits (8: seconds) do not change the spatial unit
        cfg, weights = self.toy_config(tmp_path), toy_weights(tmp_path, seed=4)
        labels = []
        for scan in self.scan_in_units(tmp_path, units, mm_per_unit):
            out = tmp_path / f"{scan.stem}_labels.nii.gz"
            assert main(["infer", "--config", cfg, "--weights", weights, "--output", str(out), str(scan)]) == 0
            mask = read_nifti(out, as_mask=True)
            assert mask.spacing == (1.0, 1.0, 2.0)
            labels.append(mask.labels)
        assert len(np.unique(labels[0])) > 1
        assert np.array_equal(labels[0], labels[1])

    def test_unknown_spatial_unit_is_read_input_error(self, tmp_path, capsys):
        scan = self.scan_in_units(tmp_path, 5, 1.0)[1]
        out = tmp_path / "x.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path), "--output", str(out), str(scan)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: read-input: " in err and str(scan) in err and "unit code 5" in err
        assert not out.exists()

    def test_output_restored_to_input_grid(self, tmp_path):
        rng = np.random.default_rng(5)
        vol = Volume3D(rng.normal(size=(1, 10, 9, 7)).astype(np.float32), (1.3, 0.9, 1.1))
        scan = tmp_path / "aniso.nii.gz"
        write_nifti(vol, scan)
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path), "--output", str(out), str(scan)])
        assert code == 0
        labels = read_nifti(out, as_mask=True)
        assert labels.dims == (10, 9, 7)
        # pixdim is float32 in the header, so spacing only round-trips approximately
        assert labels.spacing == pytest.approx((1.3, 0.9, 1.1), abs=1e-6)

    def test_task2_consumes_four_channels(self, tmp_path):
        rng = np.random.default_rng(6)
        paths = [self.toy_volume(tmp_path, seed=6, name="mid.nii.gz"),
                 self.toy_volume(tmp_path, seed=7, name="pre.nii.gz")]
        for name in ("gtvp.nii.gz", "gtvn.nii.gz"):
            mask = LabelMask(rng.integers(0, 2, size=(8, 8, 8)).astype(np.uint8), (1, 1, 1))
            write_nifti(mask, tmp_path / name)
            paths.append(str(tmp_path / name))
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--task", "task2", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path, in_channels=4), "--output", str(out)] + paths)
        assert code == 0
        assert read_nifti(out, as_mask=True).dims == (8, 8, 8)

    def task2_inputs(self, tmp_path):
        rng = np.random.default_rng(6)
        paths = [self.toy_volume(tmp_path, seed=6, name="mid.nii.gz"),
                 self.toy_volume(tmp_path, seed=7, name="pre.nii.gz")]
        for name in ("gtvp.nii.gz", "gtvn.nii.gz"):
            mask = LabelMask(rng.integers(0, 2, size=(8, 8, 8)).astype(np.uint8), (1, 1, 1))
            write_nifti(mask, tmp_path / name)
            paths.append(str(tmp_path / name))
        return paths

    @staticmethod
    def shift(path, as_mask):
        # at 0.95 mm the input still resamples to 8^3 on the 1 mm working grid
        shifted = read_nifti(path, as_mask=as_mask)
        shifted.spacing = (0.95, 1.0, 1.0)
        write_nifti(shifted, path)

    @pytest.mark.parametrize("odd", [1, 3])
    def test_task2_inputs_off_the_first_grid_are_read_input_error(self, tmp_path, capsys, monkeypatch, odd):
        # refused on the headers: no payload is read, the first input's included
        paths = self.task2_inputs(tmp_path)
        self.shift(paths[odd], as_mask=odd == 3)
        out = tmp_path / "labels.nii.gz"
        monkeypatch.setattr(cli, "read_nifti", no_payload_read)
        code = main(["infer", "--task", "task2", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path, in_channels=4), "--output", str(out)] + paths)
        assert code == 2
        assert capsys.readouterr().err == (f"error: read-input: {paths[odd]} has grid 8x8x8 at 0.95x1x1 mm but "
                                           f"{paths[0]} has 8x8x8 at 1x1x1 mm; register the inputs to one grid first\n")
        assert not out.exists()

    def test_task2_input_replaced_after_its_header_was_checked_is_read_input_error(self, tmp_path, capsys,
                                                                                    monkeypatch):
        # the last input passes the header checks, then is rewritten off the grid before its payload is
        # read; it must be refused, not resampled as if it had the first input's spacing
        paths = self.task2_inputs(tmp_path)

        def read_then_shift(path, as_mask=False):
            image = read_nifti(path, as_mask=as_mask)
            if path == paths[0]:
                self.shift(paths[3], as_mask=True)
            return image

        monkeypatch.setattr(cli, "read_nifti", read_then_shift)
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--task", "task2", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path, in_channels=4), "--output", str(out)] + paths)
        assert code == 2
        assert capsys.readouterr().err == (f"error: read-input: {paths[3]} has grid 8x8x8 at 0.95x1x1 mm but "
                                           f"{paths[0]} has 8x8x8 at 1x1x1 mm; register the inputs to one grid first\n")
        assert not out.exists()

    @pytest.mark.parametrize("task, multi", [("task1", 0), ("task2", 2)])
    def test_input_with_two_channels_is_refused_on_its_header(self, tmp_path, capsys, monkeypatch, task, multi):
        paths = self.task2_inputs(tmp_path)[:1 if task == "task1" else 4]
        two = np.random.default_rng(9).integers(0, 2, size=(2, 8, 8, 8)).astype(np.float32)
        write_nifti(Volume3D(two, (1.0, 1.0, 1.0)), paths[multi])
        out = tmp_path / "labels.nii.gz"
        monkeypatch.setattr(cli, "read_nifti", no_payload_read)
        code = main(["infer", "--task", task, "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path, in_channels=4 if task == "task2" else 1),
                     "--output", str(out)] + paths)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: read-input: {paths[multi]}: expected a single-channel input, got 2 channels\n"
        assert not out.exists()

    def test_task2_input_with_other_dims_is_read_input_error(self, tmp_path, capsys):
        paths = [self.toy_volume(tmp_path, seed=6, name="mid.nii.gz"),
                 self.toy_volume(tmp_path, seed=7, dims=(8, 8, 7), name="pre.nii.gz")]
        for name in ("gtvp.nii.gz", "gtvn.nii.gz"):
            write_nifti(LabelMask(np.zeros((8, 8, 8), np.uint8), (1, 1, 1)), tmp_path / name)
            paths.append(str(tmp_path / name))
        out = tmp_path / "labels.nii.gz"
        code = main(["infer", "--task", "task2", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path, in_channels=4), "--output", str(out)] + paths)
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: read-input: {paths[1]} has grid 8x8x7 at 1x1x1 mm but {paths[0]} has 8x8x8 at 1x1x1 mm" in err
        assert not out.exists()

    def test_task2_inputs_within_the_spacing_tolerance_get_the_exact_spacing_labels(self, tmp_path):
        # 1.000005 mm agrees with 1.0 mm within the tolerance, and 10 voxels of it take 10 on a 1 mm grid
        rng = np.random.default_rng(12)
        mid, pre = (rng.normal(size=(1, 10, 8, 8)).astype(np.float32) for _ in range(2))
        write_nifti(Volume3D(mid, (1.0, 1.0, 1.0)), tmp_path / "mid.nii")
        for name in ("gtvp.nii", "gtvn.nii"):
            write_nifti(LabelMask(rng.integers(0, 2, size=(10, 8, 8)).astype(np.uint8), (1, 1, 1)), tmp_path / name)
        cfg, weights = self.toy_config(tmp_path), toy_weights(tmp_path, in_channels=4)
        digests = []
        for pre_spacing in ((1.0, 1.0, 1.0), (1.000005, 1.0, 1.0)):
            write_nifti(Volume3D(pre, pre_spacing), tmp_path / "pre.nii")
            out = tmp_path / "labels.nii.gz"
            paths = [str(tmp_path / name) for name in ("mid.nii", "pre.nii", "gtvp.nii", "gtvn.nii")]
            assert main(["infer", "--task", "task2", "--config", cfg, "--weights", weights,
                         "--output", str(out)] + paths) == 0
            assert read_nifti(out, as_mask=True).dims == (10, 8, 8)
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert read_nifti(tmp_path / "pre.nii").spacing[0] != 1.0  # the header really holds the off spacing
        assert digests[0] == digests[1]

    def test_task2_channels_are_resampled_into_one_stack(self, tmp_path, monkeypatch):
        """The stacked input equals per-channel resampling plus np.stack, bit for bit; no second stack is
        held, and no native scan outlives the call."""
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", 64 << 10)
        # 96x80x32 on the 1 mm working grid; one native scan (491,520 B) outweighs the
        # scratch and small allowances below (327,680 B), so a kept one would break the peak bound
        native, spacing = (96, 80, 16), (1.0, 1.0, 2.0)
        rng = np.random.default_rng(13)
        scans = [Volume3D(rng.normal(size=(1, *native)).astype(np.float32), spacing) for _ in range(2)]
        masks = [LabelMask(rng.integers(0, 2, size=native).astype(np.uint8), spacing) for _ in range(2)]
        paths = []
        for idx, image in enumerate(scans + masks):
            write_nifti(image, tmp_path / f"input{idx}.nii")
            paths.append(str(tmp_path / f"input{idx}.nii"))
        cfg = build_run_config(None, {"task": "task2", "volume.working_spacing": "1,1,1"})
        expected = np.stack([resample_linear(scan, (1, 1, 1)).data[0] for scan in scans]
                            + [resample_nearest(mask, (1, 1, 1)).labels.astype(np.float32) for mask in masks])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stacked, grid = cli._load_channels(cfg, paths)
            retained, peak = (traced - before for traced in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert stacked.spacing == (1.0, 1.0, 1.0)
        assert stacked.data.dtype == np.float32 and stacked.data.tobytes() == expected.tobytes()
        stack = expected.nbytes
        # only the stack outlives the call: a native scan kept for the restore would hold 491,520 B more
        assert retained - stack < scans[0].data.nbytes, retained - stack
        assert grid == (native, spacing)
        # one read at a time: the file's payload and its (X, Y, Z) array
        native_reads = 2 * scans[0].data.nbytes
        scratch = 3 * (64 << 10)  # a slab of trilinear input planes and the lower and upper corner slabs
        small = 128 << 10  # numpy's buffers, the nearest gather's uint8 grid and Python objects
        # a second stack (3.9 MB), a native scan held across the next read, or the channels listed
        # before stacking would exceed this
        assert peak <= stack + native_reads + scratch + small, peak

    def test_wrong_input_count_is_data_error(self, tmp_path, capsys):
        scan = self.toy_volume(tmp_path)
        code = main(["infer", "--task", "task2", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path, in_channels=4),
                     "--output", str(tmp_path / "x.nii.gz"), scan])
        assert code == 2
        assert "read-input" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scan_is_read_input_error(self, tmp_path, capsys, bad):
        data = np.random.default_rng(8).normal(size=(1, 8, 8, 8)).astype(np.float32)
        data[0, 3, 4, 5] = bad
        scan = tmp_path / "scan.nii.gz"
        write_nifti(Volume3D(data, (1.0, 1.0, 1.0)), scan)
        out = tmp_path / "x.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path), "--output", str(out), str(scan)])
        assert code == 2
        err = capsys.readouterr().err
        assert "read-input" in err and "1 non-finite" in err
        assert not out.exists()

    def test_failure_leaves_no_partial_output(self, tmp_path, capsys):
        scan = self.toy_volume(tmp_path)
        bad_weights = tmp_path / "bad.vskw"
        bad_weights.write_bytes(b"VSKW1" + b"\x01" * 10)
        out = tmp_path / "x.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", str(bad_weights), "--output", str(out), scan])
        assert code == 2
        assert "load-weights" in capsys.readouterr().err
        assert not out.exists()

    def test_symlinked_output_is_written_through(self, tmp_path):
        scan, cfg, weights = self.toy_volume(tmp_path), self.toy_config(tmp_path), toy_weights(tmp_path)
        target = tmp_path / "target.nii.gz"
        target.write_bytes(b"old labels")
        link = tmp_path / "link.nii.gz"
        link.symlink_to(target)
        assert main(["infer", "--config", cfg, "--weights", weights, "--output", str(link), scan]) == 0
        assert main(["infer", "--config", cfg, "--weights", weights,
                     "--output", str(tmp_path / "direct.nii.gz"), scan]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "direct.nii.gz").read_bytes()

    def test_fifo_output_is_write_output_error(self, tmp_path, capsys):
        scan = self.toy_volume(tmp_path)
        out = tmp_path / "labels.nii.gz"
        os.mkfifo(out)
        # an open read end, so a writer that opens the FIFO does not block waiting for one
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = main(["infer", "--config", self.toy_config(tmp_path),
                         "--weights", toy_weights(tmp_path), "--output", str(out), scan])
            assert os.read(reader, 1) == b""
        finally:
            os.close(reader)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: write-output: ") and str(out) in err
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["labels.nii.gz", "run.cfg", "scan.nii.gz", "toy.vskw"]

    def test_output_name_of_250_bytes_is_written(self, tmp_path):
        scan = self.toy_volume(tmp_path)
        out = tmp_path / ("x" * (250 - len(".nii.gz")) + ".nii.gz")
        assert main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path), "--output", str(out), scan]) == 0
        assert read_nifti(out, as_mask=True).dims == (8, 8, 8)

    def test_non_finite_weights_are_load_weights_error(self, tmp_path, capsys):
        scan = self.toy_volume(tmp_path)
        model = build_unet(NetworkConfig(base_width=2, num_stages=2, kernel_plan=(3, 3)), init_seed=0)
        model.layers[0].weights.reshape(-1)[5] = np.nan
        weights = tmp_path / "nan.vskw"
        save_weights(model, weights)
        out = tmp_path / "x.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", str(weights), "--output", str(out), scan])
        assert code == 2
        err = capsys.readouterr().err
        assert "load-weights" in err and "layer 0 has NaN or Inf" in err
        assert not out.exists()

    def test_nan_probabilities_are_extract_labels_error(self, tmp_path, capsys, monkeypatch):
        def nan_forward(model, patch):
            return np.full((3, *patch.shape[1:]), np.nan, np.float32)

        monkeypatch.setattr(cli, "forward", nan_forward)
        scan = self.toy_volume(tmp_path)
        out = tmp_path / "x.nii.gz"
        code = main(["infer", "--config", self.toy_config(tmp_path),
                     "--weights", toy_weights(tmp_path), "--output", str(out), scan])
        assert code == 2
        assert "extract-labels: probabilities contain NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_weights_is_data_error(self, tmp_path):
        scan = self.toy_volume(tmp_path)
        assert main(["infer", "--config", self.toy_config(tmp_path),
                     "--output", str(tmp_path / "x.nii.gz"), scan]) == 2


class TestAugmentPreview:
    def inputs(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = Volume3D(rng.normal(size=(1, 8, 8, 4)).astype(np.float32), (1, 1, 1))
        mask = LabelMask(rng.integers(0, 3, size=(8, 8, 4)).astype(np.uint8), (1, 1, 1))
        write_nifti(vol, tmp_path / "vol.nii.gz")
        write_nifti(mask, tmp_path / "mask.nii.gz")
        return str(tmp_path / "vol.nii.gz"), str(tmp_path / "mask.nii.gz")

    def test_log_reports_schedule_start_probability(self, tmp_path):
        vol, mask = self.inputs(tmp_path)
        out_dir = tmp_path / "preview"
        assert main(["augment-preview", "--volume", vol, "--mask", mask,
                     "--iter", "0", "--seed", "1", "--out-dir", str(out_dir)]) == 0
        log = (out_dir / "augment_log.txt").read_text()
        assert "p=0.0500" in log
        assert (out_dir / "augmented_volume.nii.gz").exists()
        assert (out_dir / "augmented_mask.nii.gz").exists()

    def test_constant_p_flag_reported(self, tmp_path):
        vol, mask = self.inputs(tmp_path)
        out_dir = tmp_path / "preview_const"
        assert main(["augment-preview", "--volume", vol, "--mask", mask, "--iter", "0",
                     "--constant-p", "0.15", "--out-dir", str(out_dir)]) == 0
        log = (out_dir / "augment_log.txt").read_text()
        assert "p=0.1500" in log
        assert "constant baseline" in log

    def test_task2_mask_channels_stay_binary(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 8, 8, 4)).astype(np.float32)
        data[2:] = rng.integers(0, 2, size=(2, 8, 8, 4))
        write_nifti(Volume3D(data, (1, 1, 1)), tmp_path / "vol.nii.gz")
        write_nifti(LabelMask(rng.integers(0, 3, size=(8, 8, 4)).astype(np.uint8), (1, 1, 1)),
                    tmp_path / "mask.nii.gz")
        out_dir = tmp_path / "preview_task2"
        assert main(["augment-preview", "--task", "task2", "--volume", str(tmp_path / "vol.nii.gz"),
                     "--mask", str(tmp_path / "mask.nii.gz"), "--constant-p", "1",
                     "--seed", "2", "--out-dir", str(out_dir)]) == 0
        out = read_nifti(out_dir / "augmented_volume.nii.gz").data
        assert not np.array_equal(out[:2], data[:2])  # the scan channels were augmented
        assert set(np.unique(out[2:])) <= {0.0, 1.0}

    def test_total_flag_overrides_file_total(self, tmp_path):
        vol, mask = self.inputs(tmp_path)
        cfg = write_config(tmp_path, ["augmentation.total_iters = 1000", "augmentation.step = 10"])
        out_dir = tmp_path / "preview_total"
        assert main(["augment-preview", "--config", cfg, "--volume", vol, "--mask", mask,
                     "--total", "100", "--iter", "50", "--out-dir", str(out_dir)]) == 0
        # the ramp at 50 of 100 iterations, not at 50 of the file's 1000 (p=0.0600)
        assert "p=0.1500 (scheduled)" in (out_dir / "augment_log.txt").read_text()

    def test_iter_beyond_total_is_augment_error(self, tmp_path, capsys):
        vol, mask = self.inputs(tmp_path)
        assert main(["augment-preview", "--volume", vol, "--mask", mask, "--total", "100",
                     "--iter", "150", "--out-dir", str(tmp_path / "preview")]) == 2
        assert capsys.readouterr().err == "error: --iter: iteration 150 outside [0, 100]\n"
        assert not (tmp_path / "preview").exists()

    @pytest.mark.parametrize("iteration", ["999999999", "-1"])
    def test_iter_outside_the_schedule_is_refused_before_any_read(self, tmp_path, capsys, iteration):
        missing, out_dir = str(tmp_path / "missing.nii.gz"), tmp_path / "preview"
        assert main(["augment-preview", "--volume", missing, "--mask", missing,
                     "--iter", iteration, "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: --iter: iteration {iteration} outside [0, 100000]\n"
        assert not out_dir.exists()

    def test_volume_and_mask_on_other_spacings_are_read_input_error(self, tmp_path, capsys, monkeypatch):
        vol, mask = self.inputs(tmp_path)
        coarse = read_nifti(mask, as_mask=True)
        coarse.spacing = (2.0, 2.0, 2.0)
        write_nifti(coarse, mask)
        out_dir = tmp_path / "preview"
        monkeypatch.setattr(cli, "read_nifti", no_payload_read)  # refused on the headers
        assert main(["augment-preview", "--volume", vol, "--mask", mask, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: read-input: ") and vol in err and mask in err
        assert not out_dir.exists()

    def test_constant_p_above_one_is_data_error(self, tmp_path, capsys):
        vol, mask = self.inputs(tmp_path)
        assert main(["augment-preview", "--volume", vol, "--mask", mask, "--constant-p", "1.5",
                     "--out-dir", str(tmp_path / "preview")]) == 2
        assert "constant_p" in capsys.readouterr().err

    def test_fixed_seed_outputs_identical(self, tmp_path):
        vol, mask = self.inputs(tmp_path)
        digests = []
        for sub in ("p1", "p2"):
            out_dir = tmp_path / sub
            assert main(["augment-preview", "--volume", vol, "--mask", mask, "--iter",
                         "40000", "--seed", "3", "--out-dir", str(out_dir)]) == 0
            digests.append(hashlib.sha256((out_dir / "augmented_volume.nii.gz").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestExitCodes:
    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["infer"])  # missing required --output and inputs
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["net-info"], ["infer", "--weights", "w.vskw", "--output", "o.nii", "in.nii"]],
                             ids=["net-info", "infer"])
    def test_seed_flag_only_where_it_seeds(self, capsys, argv):
        # net-info and infer draw no random numbers; their config file may still set seed
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "no_truth"), str(tmp_path / "no_pred")]) == 2
