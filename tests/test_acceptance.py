"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py`` (add ``-s`` to watch the lines
stream); the criterion lines are also written to the real stdout so they
survive pytest's capture.
"""

import hashlib
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from volseg.augmentation import (
    AugmentationPolicy,
    TransformParams,
    add_gaussian_noise,
    apply_augmentations,
    apply_bias_field,
    apply_motion_ghost,
    adjust_contrast,
    cosine_lr,
    mirror,
    rotate_z,
    scheduled_probability,
)
from volseg.inference import (
    SlidingWindowConfig,
    equal_weight_kernel,
    gaussian_weight_kernel,
    sliding_window_predict,
    tile_offsets,
)
from volseg.metrics import dice_loss, dice_loss_grad, dsc, dsc_agg, precision, recall
from volseg.network import NetworkConfig, build_unet, count_parameters, forward, save_weights
from volseg.nifti import read_nifti, write_nifti
from volseg.sampling import PatchSample, normalize_patchwise
from volseg.volume import Volume3D

from oracles import naive_forward_two_stage, overlap_counts
from test_network import analytic_tally


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {label}: FAIL", file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] {label}: PASS ({elapsed:.2f}s)",
          file=sys.__stdout__, flush=True)


def test_criterion_01_parameter_count_claim():
    with criterion(1, "parameter-count claim"):
        start = time.perf_counter()
        default = NetworkConfig()
        total = count_parameters(build_unet(default, init_seed=0))
        all_cubic = NetworkConfig(kernel_plan=(3,) * 6)
        total_all3 = count_parameters(build_unet(all_cubic, init_seed=0))
        elapsed = time.perf_counter() - start

        assert 13_000_000 <= total <= 15_000_000
        assert 80_000_000 <= total_all3 <= 92_000_000
        assert total == analytic_tally(default)
        assert total_all3 == analytic_tally(all_cubic)
        assert elapsed < 1.0, f"parameter accounting took {elapsed:.2f}s"


def test_criterion_02_forward_pass_oracle():
    with criterion(2, "toy forward pass vs direct-computation oracle"):
        start = time.perf_counter()
        cfg = NetworkConfig(in_channels=1, base_width=2, num_stages=2, kernel_plan=(3, 3))
        model = build_unet(cfg, init_seed=42)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
            probs = forward(model, x)
            expected = naive_forward_two_stage(model, x)
            np.testing.assert_allclose(probs, expected, atol=1e-4)
            assert probs.min() >= 0.0
            np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-5)
        assert time.perf_counter() - start < 10.0


def test_criterion_03_metric_oracle():
    with criterion(3, "metrics vs brute-force voxel counting"):
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(100):
            truth = rng.random((6, 6, 6)) < 0.3
            pred = rng.random((6, 6, 6)) < 0.3
            pairs.append((truth, pred))
            tp, n_t, n_p = overlap_counts(truth, pred)
            expect_dsc = 1.0 if n_t + n_p == 0 else 2.0 * tp / (n_t + n_p)
            assert abs(dsc(truth, pred) - expect_dsc) < 1e-9
            if n_p:
                assert abs(precision(truth, pred) - tp / n_p) < 1e-9
            if n_t:
                assert abs(recall(truth, pred) - tp / n_t) < 1e-9

        # single-pair reduction and concatenation additivity hold exactly
        for truth, pred in pairs[:10]:
            assert dsc_agg([(truth, pred)]) == dsc(truth, pred)
        merged = (
            np.concatenate([t.ravel() for t, _ in pairs]),
            np.concatenate([p.ravel() for _, p in pairs]),
        )
        assert dsc_agg(pairs) == dsc_agg([merged])

        tp = sum(overlap_counts(t, p)[0] for t, p in pairs)
        denom = sum(sum(overlap_counts(t, p)[1:]) for t, p in pairs)
        assert abs(dsc_agg(pairs) - 2.0 * tp / denom) < 1e-9


def test_criterion_04_loss_and_gradient():
    with criterion(4, "dice loss zero/presence rules and finite-difference gradient"):
        start = time.perf_counter()
        rng = np.random.default_rng(13)

        def one_hot(labels):
            out = np.zeros((labels.shape[0], 3, *labels.shape[1:]), np.float64)
            for c in range(3):
                out[:, c] = labels == c
            return out

        exact = one_hot(rng.integers(0, 3, size=(2, 2, 2, 2)))
        assert dice_loss(exact, exact) == pytest.approx(0.0, abs=1e-12)

        # a batch missing one class averages over the present classes only
        labels = np.zeros((1, 2, 2, 2), np.int64)
        labels[0, 0, 0, 0] = 1  # class 2 absent
        truth = one_hot(labels)
        probs = np.full_like(truth, 1.0 / 3.0)
        per_class = [1.0 - 2.0 * (truth[:, c].sum() / 3.0) / (truth[:, c].sum() + 8.0 / 3.0)
                     for c in (0, 1)]
        assert dice_loss(truth, probs) == pytest.approx(np.mean(per_class), abs=1e-12)
        assert (dice_loss_grad(truth, probs)[:, 2] == 0.0).all()

        h = 1e-4
        worst = 0.0
        for _ in range(50):
            labels = rng.integers(0, 3, size=(1, 2, 2, 2))
            truth = one_hot(labels)
            raw = rng.random((1, 3, 2, 2, 2)) + 0.1
            probs = raw / raw.sum(axis=1, keepdims=True)
            grad = dice_loss_grad(truth, probs)
            for idx in np.ndindex(probs.shape):
                plus = probs.copy()
                plus[idx] += h
                minus = probs.copy()
                minus[idx] -= h
                fd = (dice_loss(truth, plus) - dice_loss(truth, minus)) / (2 * h)
                scale = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(grad[idx] - fd) / scale)
        assert worst < 1e-3, f"max relative gradient error {worst:.2e}"
        assert time.perf_counter() - start < 30.0


def test_criterion_05_gaussian_kernel():
    with criterion(5, "Gaussian weight kernel profile and weighting equivalence"):
        kernel = gaussian_weight_kernel((9, 7, 5), edge_value=0.1).weights
        cx, cy, cz = 4, 3, 2
        assert kernel[cx, cy, cz] == 1.0
        for face in (kernel[0, cy, cz], kernel[-1, cy, cz], kernel[cx, 0, cz],
                     kernel[cx, -1, cz], kernel[cx, cy, 0], kernel[cx, cy, -1]):
            assert abs(face - 0.1) < 1e-9
        for corner in (kernel[0, 0, 0], kernel[-1, -1, -1], kernel[0, -1, 0]):
            assert abs(corner - 1e-3) < 1e-9
        for axis, center in ((0, cx), (1, cy), (2, cz)):
            profile = np.moveaxis(kernel, axis, 0)
            profile = profile[(slice(None),) + tuple(
                c for a, c in ((0, cx), (1, cy), (2, cz)) if a != axis)]
            assert (np.diff(profile[: center + 1]) >= -1e-12).all()
            assert (np.diff(profile[center:]) <= 1e-12).all()
        assert (equal_weight_kernel((4, 4, 4)).weights == 1.0).all()

        # with a constant predictor the weighting scheme cannot matter
        rng = np.random.default_rng(17)
        vol = Volume3D(rng.normal(size=(1, 8, 6, 6)).astype(np.float32), (1, 1, 1))

        def const(patch):
            out = np.empty((3, *patch.shape[1:]), np.float32)
            out[:] = np.array([0.5, 0.3, 0.2], np.float32)[:, None, None, None]
            return out

        base = dict(patch_size=(4, 4, 4), stride=(2, 2, 2))
        out_eq = sliding_window_predict(vol, [const], SlidingWindowConfig(weighting="equal", **base))
        out_ga = sliding_window_predict(vol, [const], SlidingWindowConfig(weighting="gaussian", **base))
        np.testing.assert_allclose(out_eq.data, out_ga.data, atol=1e-6)


def test_criterion_06_sliding_window_geometry(monkeypatch):
    with criterion(6, "tiling coverage, flush offsets, order invariance"):
        cfg = SlidingWindowConfig(patch_size=(4, 1, 1), stride=(3, 1, 1))
        assert [o[0] for o in tile_offsets((10, 1, 1), cfg)] == [0, 3, 6]
        assert [o[0] for o in tile_offsets((11, 1, 1), cfg)] == [0, 3, 6, 7]

        rng = np.random.default_rng(19)
        for _ in range(20):
            patch = tuple(int(rng.integers(2, 6)) for _ in range(3))
            stride = tuple(int(rng.integers(1, p + 1)) for p in patch)
            dims = tuple(int(rng.integers(p, 14)) for p in patch)
            cfg = SlidingWindowConfig(patch_size=patch, stride=stride)
            denom = np.zeros(dims)
            kernel = gaussian_weight_kernel(patch).weights
            for ox, oy, oz in tile_offsets(dims, cfg):
                denom[ox:ox + patch[0], oy:oy + patch[1], oz:oz + patch[2]] += kernel
            assert (denom > 0).all(), f"uncovered voxels for dims={dims} patch={patch} stride={stride}"

        def soft(patch):
            logits = np.stack([patch[0], -patch[0], 0.5 * patch[0]]).astype(np.float64)
            e = np.exp(logits - logits.max(axis=0, keepdims=True))
            return (e / e.sum(axis=0, keepdims=True)).astype(np.float32)

        vol = Volume3D(rng.normal(size=(1, 4, 4, 4)).astype(np.float32), (1, 1, 1))
        single = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(4, 4, 4), weighting="equal")
        out = sliding_window_predict(vol, [soft], single)
        np.testing.assert_allclose(out.data, soft(normalize_patchwise(vol.data)), atol=1e-6)

        vol = Volume3D(rng.normal(size=(1, 8, 6, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 2), stride=(2, 2, 2), weighting="gaussian")
        offsets = tile_offsets(vol.dims, cfg)
        out_a = sliding_window_predict(vol, [soft], cfg)
        shuffled = [offsets[i] for i in rng.permutation(len(offsets))]
        assert shuffled != offsets
        calls = []

        def shuffled_tiles(volume_dims, config):
            calls.append((tuple(volume_dims), config))
            return shuffled

        monkeypatch.setattr("volseg.inference.tile_offsets", shuffled_tiles)
        out_b = sliding_window_predict(vol, [soft], cfg)
        assert calls == [(vol.dims, cfg)]  # the window took its tiles from the substitute
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-6)


def test_criterion_07_patchwise_normalization():
    with criterion(7, "patch-wise normalization statistics and exemptions"):
        rng = np.random.default_rng(23)
        patch = rng.normal(40.0, 9.0, size=(4, 6, 6, 6)).astype(np.float32)
        out = normalize_patchwise(patch, exempt_channels={2, 3})
        for c in (0, 1):
            assert abs(out[c].mean(dtype=np.float64)) < 1e-5
            assert abs(out[c].std(dtype=np.float64) - 1.0) < 1e-4
        assert np.array_equal(out[2], patch[2])
        assert np.array_equal(out[3], patch[3])

        base = rng.normal(size=(1, 6, 6, 6)).astype(np.float32)
        scaled = (2.5 * base + 17.0).astype(np.float32)
        np.testing.assert_allclose(
            normalize_patchwise(scaled), normalize_patchwise(base), atol=1e-4)

        holder = np.full((1, 5, 5, 5), 42.0, np.float32)
        assert (normalize_patchwise(holder) == 0.0).all()


def test_criterion_08_schedules():
    with criterion(8, "augmentation probability ramp and cosine learning rate"):
        policy = AugmentationPolicy()
        assert scheduled_probability(0, policy) == 0.05
        assert scheduled_probability(policy.total_iters, policy) == 0.25
        first_plateau = {scheduled_probability(i, policy) for i in range(1000)}
        assert first_plateau == {0.05}
        values = [scheduled_probability(i, policy) for i in range(0, policy.total_iters + 1, 250)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        changes = [i for i in range(1, 5001) if
                   scheduled_probability(i, policy) != scheduled_probability(i - 1, policy)]
        assert all(i % policy.step == 0 for i in changes)

        assert cosine_lr(0, 100_000) == pytest.approx(1e-3, abs=1e-15)
        assert cosine_lr(100_000, 100_000) == pytest.approx(1e-5, abs=1e-15)
        assert cosine_lr(50_000, 100_000) == pytest.approx(5.05e-4, abs=1e-12)


def test_criterion_09_augmentation_identities():
    with criterion(9, "augmentation identities, replay, label validity"):
        rng = np.random.default_rng(29)
        data = rng.normal(size=(2, 7, 7, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=(7, 7, 4)).astype(np.uint8)
        patch = PatchSample((0, 0, 0), data, labels, "random")

        out = mirror(mirror(patch, (0, 2)), (0, 2))
        assert np.array_equal(out.data, patch.data)
        assert np.array_equal(out.mask_patch, patch.mask_patch)

        np.testing.assert_allclose(rotate_z(patch, 0.0).data, patch.data, atol=1e-6)
        np.testing.assert_allclose(adjust_contrast(patch, 1.0).data, patch.data, atol=1e-6)
        assert np.array_equal(apply_bias_field(patch, np.zeros((4, 4, 4))).data, patch.data)
        assert np.array_equal(add_gaussian_noise(patch, 0.0, np.random.default_rng(1)).data, patch.data)
        assert np.array_equal(apply_motion_ghost(patch, 2, 0.0).data, patch.data)

        turned = rotate_z(patch, 90.0)
        np.testing.assert_allclose(
            turned.data, patch.data.transpose(0, 2, 1, 3)[:, ::-1], atol=1e-5)

        policy = AugmentationPolicy(constant_p=1.0)
        a = apply_augmentations(patch, TransformParams(), policy, 0, np.random.default_rng(5))
        b = apply_augmentations(patch, TransformParams(), policy, 0, np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.mask_patch, b.mask_patch)
        assert set(np.unique(a.mask_patch)) <= {0, 1, 2}


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "CLI inference determinism on a synthetic volume"):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        vol = Volume3D(rng.normal(size=(1, 64, 64, 64)).astype(np.float32), (0.5, 0.5, 2.0))
        scan = tmp_path / "scan.nii.gz"
        write_nifti(vol, scan)

        net = NetworkConfig(in_channels=1, base_width=2, num_stages=2, kernel_plan=(3, 3))
        weights = tmp_path / "toy.vskw"
        save_weights(build_unet(net, init_seed=3), weights)

        config = tmp_path / "run.cfg"
        config.write_text("\n".join([
            "task = task1",
            "volume.working_spacing = 0.5,0.5,2.0",
            "network.base_width = 2",
            "network.num_stages = 2",
            "network.kernel_plan = 3,3",
            "inference.patch_size = 32,32,32",
            "inference.stride = 16,16,16",
            "inference.weighting = gaussian",
        ]) + "\n")

        digests = []
        for name in ("run1.nii.gz", "run2.nii.gz"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "volseg.cli", "infer", "--config", str(config),
                 "--weights", str(weights), "--output", str(out), str(scan)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1], "outputs differ between runs"

        labels = read_nifti(tmp_path / "run1.nii.gz", as_mask=True)
        assert labels.dims == (64, 64, 64)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"end-to-end check took {elapsed:.1f}s"
