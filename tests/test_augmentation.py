import numpy as np
import pytest

from volseg.augmentation import (
    AugmentationPolicy,
    TransformParams,
    _bias_field,
    _rotation_coords,
    add_gaussian_noise,
    adjust_contrast,
    apply_augmentations,
    apply_bias_field,
    apply_motion_ghost,
    cosine_lr,
    mirror,
    rotate_z,
    scheduled_probability,
)
from volseg.sampling import PatchSample

from oracles import bias_field_triple_loop, bilinear_xy_where


def make_patch(rng, channels=1, dims=(6, 6, 4)):
    data = rng.normal(size=(channels, *dims)).astype(np.float32)
    labels = rng.integers(0, 3, size=dims).astype(np.uint8)
    return PatchSample((0, 0, 0), data, labels, "random")


class TestSchedules:
    def test_ramp_endpoints(self):
        policy = AugmentationPolicy()
        assert scheduled_probability(0, policy) == 0.05
        assert scheduled_probability(policy.total_iters, policy) == 0.25

    def test_first_plateau_spans_one_thousand_iterations(self):
        policy = AugmentationPolicy()
        assert {scheduled_probability(i, policy) for i in range(0, 1000, 37)} == {0.05}
        assert scheduled_probability(1000, policy) > 0.05

    def test_plateaus_have_step_length_and_never_decrease(self):
        policy = AugmentationPolicy(total_iters=10_000, step=1000)
        values = [scheduled_probability(i, policy) for i in range(0, 10_001)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # piecewise constant: changes only at multiples of step
        changes = [i for i in range(1, 10_001) if values[i] != values[i - 1]]
        assert all(i % 1000 == 0 for i in changes)

    def test_constant_mode_overrides_ramp(self):
        policy = AugmentationPolicy(constant_p=0.15)
        assert scheduled_probability(0, policy) == 0.15
        assert scheduled_probability(50_000, policy) == 0.15

    def test_out_of_range_iteration_rejected(self):
        policy = AugmentationPolicy()
        with pytest.raises(ValueError):
            scheduled_probability(-1, policy)
        with pytest.raises(ValueError):
            scheduled_probability(policy.total_iters + 1, policy)

    def test_cosine_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100_000) == pytest.approx(1e-3, abs=1e-15)
        assert cosine_lr(100_000, 100_000) == pytest.approx(1e-5, abs=1e-15)
        assert cosine_lr(50_000, 100_000) == pytest.approx(5.05e-4, abs=1e-12)

    def test_cosine_monotone_and_bounded(self):
        values = [cosine_lr(i, 1000) for i in range(0, 1001)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(1e-5 <= v <= 1e-3 for v in values)

    def test_cosine_rejects_bad_total(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0)


class TestTransformIdentities:
    def test_double_mirror_is_exact_identity(self):
        patch = make_patch(np.random.default_rng(0), channels=2)
        for axes in [(0,), (1,), (2,), (0, 2), (0, 1, 2)]:
            out = mirror(mirror(patch, axes), axes)
            np.testing.assert_array_equal(out.data, patch.data)
            np.testing.assert_array_equal(out.mask_patch, patch.mask_patch)

    def test_zero_angle_rotation_is_identity(self):
        patch = make_patch(np.random.default_rng(1))
        out = rotate_z(patch, 0.0)
        np.testing.assert_allclose(out.data, patch.data, atol=1e-6)
        np.testing.assert_array_equal(out.mask_patch, patch.mask_patch)

    def test_neutral_gamma_is_identity(self):
        patch = make_patch(np.random.default_rng(2))
        np.testing.assert_allclose(adjust_contrast(patch, 1.0).data, patch.data, atol=1e-6)

    def test_zero_coefficients_bias_field_is_identity(self):
        patch = make_patch(np.random.default_rng(3))
        out = apply_bias_field(patch, np.zeros((4, 4, 4)))
        np.testing.assert_array_equal(out.data, patch.data)

    def test_zero_sigma_noise_is_identity(self):
        patch = make_patch(np.random.default_rng(4))
        out = add_gaussian_noise(patch, 0.0, np.random.default_rng(5))
        np.testing.assert_array_equal(out.data, patch.data)

    def test_zero_weight_motion_is_identity(self):
        patch = make_patch(np.random.default_rng(6))
        out = apply_motion_ghost(patch, 2, 0.0)
        np.testing.assert_array_equal(out.data, patch.data)


class TestTransformBehavior:
    def test_quarter_turn_matches_index_permutation(self):
        # 90 degree counterclockwise turn on a square patch permutes the grid:
        # out[x, y] = in[y, n-1-x]
        rng = np.random.default_rng(7)
        patch = make_patch(rng, dims=(7, 7, 3))
        out = rotate_z(patch, 90.0)
        expected = patch.data.transpose(0, 2, 1, 3)[:, ::-1]
        np.testing.assert_allclose(out.data, expected, atol=1e-5)
        expected_mask = patch.mask_patch.transpose(1, 0, 2)[::-1]
        np.testing.assert_array_equal(out.mask_patch, expected_mask)

    def test_rotation_keeps_labels_in_range(self):
        patch = make_patch(np.random.default_rng(8), dims=(9, 9, 2))
        for angle in (13.0, -27.5, 101.0):
            out = rotate_z(patch, angle)
            assert set(np.unique(out.mask_patch)) <= {0, 1, 2}

    def test_rotation_nearest_channels_stay_binary(self):
        rng = np.random.default_rng(9)
        data = np.stack([
            rng.normal(size=(8, 8, 2)).astype(np.float32),
            rng.integers(0, 2, size=(8, 8, 2)).astype(np.float32),
        ])
        patch = PatchSample((0, 0, 0), data, np.zeros((8, 8, 2), np.uint8), "random")
        out = rotate_z(patch, 30.0, nearest_channels={1})
        assert set(np.unique(out.data[1])) <= {0.0, 1.0}

    def test_contrast_preserves_range_and_monotonicity(self):
        rng = np.random.default_rng(10)
        patch = make_patch(rng)
        out = adjust_contrast(patch, 1.4)
        assert out.data.min() >= patch.data.min() - 1e-5
        assert out.data.max() <= patch.data.max() + 1e-5
        flat_in = patch.data[0].ravel()
        flat_out = out.data[0].ravel()
        order = np.argsort(flat_in)
        assert (np.diff(flat_out[order]) >= -1e-6).all()

    def test_bias_field_stays_within_amplitude(self):
        patch = PatchSample((0, 0, 0), np.ones((1, 8, 8, 8), np.float32),
                            np.zeros((8, 8, 8), np.uint8), "random")
        coeffs = np.random.default_rng(11).uniform(-0.5, 0.5, size=(4, 4, 4))
        out = apply_bias_field(patch, coeffs, amplitude=(0.9, 1.1))
        assert out.data.min() >= 0.9 - 1e-6
        assert out.data.max() <= 1.1 + 1e-6

    def test_noise_changes_values_at_expected_scale(self):
        patch = make_patch(np.random.default_rng(12), dims=(16, 16, 4))
        out = add_gaussian_noise(patch, 0.1, np.random.default_rng(13))
        diff = (out.data - patch.data).astype(np.float64)
        assert 0.05 < diff.std() < 0.2

    def test_motion_ghost_blends_shifted_copy(self):
        data = np.zeros((1, 4, 6, 2), np.float32)
        data[0, :, 1, :] = 1.0
        patch = PatchSample((0, 0, 0), data, np.zeros((4, 6, 2), np.uint8), "random")
        out = apply_motion_ghost(patch, 2, 0.2)
        np.testing.assert_allclose(out.data[0, :, 1, :], 0.8)
        np.testing.assert_allclose(out.data[0, :, 3, :], 0.2)
        np.testing.assert_array_equal(out.mask_patch, patch.mask_patch)

    def test_exempt_channels_skip_intensity_transforms(self):
        rng = np.random.default_rng(14)
        patch = make_patch(rng, channels=4)
        for fn in (
            lambda p: adjust_contrast(p, 1.3, exempt_channels={2, 3}),
            lambda p: apply_bias_field(p, np.full((4, 4, 4), 0.02), exempt_channels={2, 3}),
            lambda p: add_gaussian_noise(p, 0.1, np.random.default_rng(1), exempt_channels={2, 3}),
            lambda p: apply_motion_ghost(p, 1, 0.1, exempt_channels={2, 3}),
        ):
            out = fn(patch)
            np.testing.assert_array_equal(out.data[2], patch.data[2])
            np.testing.assert_array_equal(out.data[3], patch.data[3])

    def test_parameter_validation(self):
        patch = make_patch(np.random.default_rng(15))
        with pytest.raises(ValueError):
            mirror(patch, (3,))
        with pytest.raises(ValueError):
            adjust_contrast(patch, -1.0)
        with pytest.raises(ValueError):
            add_gaussian_noise(patch, -0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_motion_ghost(patch, 1, 1.5)

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", (0.1,)),           # one value: uniform(0.1) would draw from [0.1, 1)
        ("motion_shift", (3,)),            # one value: the draw would index past it
        ("contrast_range", (1.5, 0.7)),    # low > high
        ("bias_amplitude", (0.9, 1.0, 1.1)),
        ("noise_sigma", (float("nan"), 0.1)),
        ("contrast_range", (0.0, 1.5)),    # gamma must be positive
        ("noise_sigma", (-0.1, 0.1)),      # sigma must be non-negative
        ("motion_weight", (0.5, 1.5)),     # a blend weight lies in [0, 1]
        ("motion_weight", (-0.1, 0.2)),
        ("bias_order", -1),
        ("mirror_axes", (0, 3)),
        ("max_rotation_deg", float("nan")),  # the draw's range would be NaN
        ("max_rotation_deg", float("inf")),
        ("max_rotation_deg", -5.0),
    ])
    def test_transform_params_checked_when_built(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} "):
            TransformParams(**{field: value})

    def test_edge_transform_params_accepted_as_tuples(self):
        # a zero-width sigma range and no mirror axes are valid
        params = TransformParams(noise_sigma=[0.0, 0.0], mirror_axes=[])
        assert params.noise_sigma == (0.0, 0.0) and params.mirror_axes == ()


class TestFastPathOracles:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_separable_bias_field_matches_triple_loop(self, order):
        rng = np.random.default_rng(20 + order)
        for dims in ((9, 6, 4), (7, 5, 1), (1, 8, 3)):
            coeffs = rng.uniform(-0.5, 0.5, size=(order + 1,) * 3)
            np.testing.assert_allclose(_bias_field(dims, coeffs), bias_field_triple_loop(dims, coeffs),
                                       rtol=0, atol=1e-12)

    def test_rotation_matches_four_corner_oracle_bit_identically(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(3, 13, 11, 5)).astype(np.float32) * 40.0 + 7.0
        data[1] = rng.integers(0, 2, size=(13, 11, 5))
        patch = PatchSample((0, 0, 0), data, rng.integers(0, 3, size=(13, 11, 5)).astype(np.uint8), "random")
        for angle in (7.3, -15.0, 33.0, 90.0, 180.0):
            out = rotate_z(patch, angle, nearest_channels={1})
            xi, yi = _rotation_coords(13, 11, angle)
            for c in (0, 2):
                expected = bilinear_xy_where(data[c], xi, yi).astype(np.float32)
                np.testing.assert_array_equal(out.data[c].view(np.uint32), expected.view(np.uint32))


class TestApplyAugmentations:
    def test_zero_probability_is_bitwise_noop(self):
        patch = make_patch(np.random.default_rng(16))
        policy = AugmentationPolicy(constant_p=0.0)
        out = apply_augmentations(patch, TransformParams(), policy, 0, np.random.default_rng(17))
        np.testing.assert_array_equal(out.data, patch.data)
        np.testing.assert_array_equal(out.mask_patch, patch.mask_patch)

    def test_mirror_twice_with_same_draw_restores_patch(self):
        patch = make_patch(np.random.default_rng(18))
        policy = AugmentationPolicy(constant_p=1.0, transforms=("mirror",))
        once = apply_augmentations(patch, TransformParams(), policy, 0, np.random.default_rng(19))
        twice = apply_augmentations(once, TransformParams(), policy, 0, np.random.default_rng(19))
        np.testing.assert_array_equal(twice.data, patch.data)
        np.testing.assert_array_equal(twice.mask_patch, patch.mask_patch)

    def test_fixed_seed_replay_is_bit_identical(self):
        patch = make_patch(np.random.default_rng(20), channels=2)
        policy = AugmentationPolicy(constant_p=1.0)
        a = apply_augmentations(patch, TransformParams(), policy, 500, np.random.default_rng(21))
        b = apply_augmentations(patch, TransformParams(), policy, 500, np.random.default_rng(21))
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.mask_patch, b.mask_patch)

    def test_labels_stay_valid_under_full_pipeline(self):
        rng = np.random.default_rng(22)
        policy = AugmentationPolicy(constant_p=1.0)
        for seed in range(5):
            patch = make_patch(rng, dims=(8, 8, 4))
            out = apply_augmentations(patch, TransformParams(), policy, 0, np.random.default_rng(seed))
            assert set(np.unique(out.mask_patch)) <= {0, 1, 2}

    def test_log_records_applied_transforms(self):
        patch = make_patch(np.random.default_rng(23))
        policy = AugmentationPolicy(constant_p=1.0)
        log = []
        apply_augmentations(patch, TransformParams(), policy, 0, np.random.default_rng(24), log=log)
        assert [name for name, _ in log] == list(policy.transforms)
