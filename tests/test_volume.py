import numpy as np
import pytest

from volseg.inference import SlidingWindowConfig, tile_offsets
from volseg.volume import (LabelMask, Volume3D, _output_dims, resample_linear, resample_nearest, restore_resolution,
                           same_grid)

from oracles import resample_linear_pointwise, resample_nearest_pointwise


def random_volume(rng, dims=(5, 4, 3), channels=1, spacing=(1.0, 1.0, 1.0)):
    data = rng.normal(size=(channels, *dims)).astype(np.float32)
    return Volume3D(data, spacing)


class TestVolumeTypes:
    def test_data_length_matches_dims(self):
        vol = Volume3D(np.zeros((2, 3, 4, 5), np.float32), (1, 1, 1))
        assert vol.channels == 2
        assert vol.dims == (3, 4, 5)
        assert vol.data.size == 2 * 3 * 4 * 5

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((1, 2, 2, 2), np.float32), (1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            Volume3D(np.zeros((1, 2, 2, 2), np.float32), (1.0, -2.0, 1.0))

    def test_mask_label_range_enforced(self):
        LabelMask(np.full((2, 2, 2), 2, np.uint8), (1, 1, 1))
        with pytest.raises(ValueError):
            LabelMask(np.full((2, 2, 2), 3, np.uint8), (1, 1, 1))

    # each of these wraps into a class under a uint8 cast (258 -> 2, -255 -> 1)
    @pytest.mark.parametrize("dtype, value", [(np.int16, 258), (np.int16, -255), (np.int64, 2**40 + 2)])
    def test_mask_range_checked_before_the_uint8_cast(self, dtype, value):
        labels = np.ones((3, 3, 3), dtype)
        labels[1, 2, 0] = value
        with pytest.raises(ValueError, match=rf"mask values \[{value}\] outside"):
            LabelMask(labels, (1, 1, 1))

    def test_out_of_range_message_lists_each_bad_value_once(self):
        labels = np.array([-1, 0, 1, 2, 3, 3, 7, -1]).reshape(2, 2, 2)
        with pytest.raises(ValueError, match=r"mask values \[-1, 3, 7\] outside \{0, 1, 2\}"):
            LabelMask(labels, (1, 1, 1))


def float32_spacing(*spacing):
    # the spacing as a NIfTI header's float32 pixdim holds it
    return tuple(float(np.float32(s)) for s in spacing)


class TestOutputDims:
    def test_float32_pixdim_noise_adds_no_plane(self):
        dims = _output_dims((250, 250, 40), float32_spacing(0.8, 0.8, 3.2), (0.5, 0.5, 2.0))
        assert dims == (400, 400, 64)  # float32 0.8 and 3.2 round up: 400.000006 and 64.000001
        assert len(tile_offsets(dims, SlidingWindowConfig())) == 4

    def test_spacing_within_the_tolerance_keeps_the_voxel_count(self):
        assert _output_dims((10, 10, 10), float32_spacing(1.000005, 1, 1), (1, 1, 1)) == (10, 10, 10)

    def test_fractional_field_of_view_is_covered(self):
        assert _output_dims((10, 10, 10), (1, 1, 1), (3, 3, 3)) == (4, 4, 4)  # ceil(10/3)
        assert _output_dims((10, 10, 10), (1.05, 1, 1), (1, 1, 1)) == (11, 10, 10)  # 10.5 voxels

    def test_dyadic_spacings_are_exact(self):
        assert _output_dims((64, 64, 16), (1, 1, 4), (0.5, 0.5, 2)) == (128, 128, 32)
        assert _output_dims((128, 128, 32), (0.5, 0.5, 2), (1, 1, 4)) == (64, 64, 16)
        assert _output_dims((7, 5, 3), (0.5, 0.5, 2), (0.5, 0.5, 2)) == (7, 5, 3)


class TestSameGrid:
    def test_spacings_within_the_tolerance_are_one_grid(self):
        assert same_grid(((8, 8, 4), (1.0, 1.0, 2.0)), ((8, 8, 4), (1.000001, 1.0, 2.000002)))  # 1e-6 apart

    def test_differing_dims_are_two_grids(self):
        assert not same_grid(((8, 8, 4), (1.0, 1.0, 2.0)), ((8, 8, 5), (1.0, 1.0, 2.0)))

    def test_spacings_beyond_the_tolerance_are_two_grids(self):
        assert not same_grid(((8, 8, 4), (1.0, 1.0, 2.0)), ((8, 8, 4), (1.0001, 1.0, 2.0)))  # 1e-4 apart


class TestResampleLinear:
    def test_identity_spacing_is_identity(self):
        rng = np.random.default_rng(0)
        vol = random_volume(rng, spacing=(0.5, 0.5, 2.0))
        out = resample_linear(vol, (0.5, 0.5, 2.0))
        assert out.dims == vol.dims
        assert np.array_equal(out.data, vol.data)

    def test_constant_volume_stays_constant(self):
        vol = Volume3D(np.full((1, 6, 5, 4), 3.25, np.float32), (1, 1, 1))
        out = resample_linear(vol, (0.7, 1.3, 2.1))
        np.testing.assert_allclose(out.data, 3.25, atol=1e-6)

    def test_output_dims_cover_field_of_view(self):
        vol = random_volume(np.random.default_rng(1), dims=(10, 10, 10))
        out = resample_linear(vol, (2.0, 2.0, 2.0))
        assert out.dims == (5, 5, 5)
        out = resample_linear(vol, (3.0, 3.0, 3.0))
        assert out.dims == (4, 4, 4)  # ceil(10/3)

    def test_ramp_downsample_matches_pointwise_oracle(self):
        xs = 8
        ramp = np.tile(np.arange(xs, dtype=np.float32)[:, None, None], (1, 1, 1))
        vol = Volume3D(ramp[None], (1.0, 1.0, 1.0))
        out = resample_linear(vol, (2.0, 1.0, 1.0))
        expected = resample_linear_pointwise(vol.data, vol.spacing, (2.0, 1.0, 1.0), out.dims)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_random_resample_matches_pointwise_oracle(self):
        rng = np.random.default_rng(2)
        vol = random_volume(rng, dims=(5, 4, 6), channels=2, spacing=(0.8, 1.0, 1.7))
        for target in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.9), (1.9, 0.7, 3.2)]:
            out = resample_linear(vol, target)
            expected = resample_linear_pointwise(vol.data, vol.spacing, target, out.dims)
            np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_values_bounded_by_input_range(self):
        rng = np.random.default_rng(3)
        vol = random_volume(rng, dims=(6, 6, 6))
        out = resample_linear(vol, (0.4, 1.1, 2.3))
        assert out.data.min() >= vol.data.min() - 1e-6
        assert out.data.max() <= vol.data.max() + 1e-6

    def test_rejects_nonpositive_target(self):
        vol = random_volume(np.random.default_rng(4))
        with pytest.raises(ValueError):
            resample_linear(vol, (1.0, 0.0, 1.0))


class TestResampleNearest:
    def test_identity_spacing_is_identity(self):
        rng = np.random.default_rng(5)
        mask = LabelMask(rng.integers(0, 3, size=(4, 5, 6)).astype(np.uint8), (1, 2, 0.5))
        out = resample_nearest(mask, (1, 2, 0.5))
        assert np.array_equal(out.labels, mask.labels)

    def test_upsample_then_downsample_round_trips(self):
        rng = np.random.default_rng(6)
        mask = LabelMask(rng.integers(0, 3, size=(5, 4, 3)).astype(np.uint8), (1.0, 1.0, 1.0))
        up = resample_nearest(mask, (0.5, 0.5, 0.5))
        assert up.dims == (10, 8, 6)
        down = resample_nearest(up, (1.0, 1.0, 1.0))
        assert np.array_equal(down.labels, mask.labels)

    def test_never_invents_labels(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, size=(5, 5, 5)).astype(np.uint8) * 2  # only {0, 2}
        mask = LabelMask(labels, (1, 1, 1))
        out = resample_nearest(mask, (0.6, 1.4, 0.9))
        assert set(np.unique(out.labels)) <= set(np.unique(labels))

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(8)
        mask = LabelMask(rng.integers(0, 3, size=(6, 5, 4)).astype(np.uint8), (0.9, 1.1, 2.0))
        target = (1.3, 0.8, 1.5)
        out = resample_nearest(mask, target)
        expected = resample_nearest_pointwise(mask.labels, mask.spacing, target, out.dims)
        assert np.array_equal(out.labels, expected)

    def test_rejects_nonpositive_target(self):
        mask = LabelMask(np.zeros((3, 3, 3), np.uint8), (1, 1, 1))
        with pytest.raises(ValueError):
            resample_nearest(mask, (-1.0, 1.0, 1.0))


class TestRestoreResolution:
    def test_same_grid_is_identity(self):
        rng = np.random.default_rng(9)
        mask = LabelMask(rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8), (1, 1, 1))
        out = restore_resolution(mask, (4, 4, 4), (1, 1, 1))
        assert np.array_equal(out.labels, mask.labels)

    def test_constant_mask_restores_constant(self):
        mask = LabelMask(np.full((6, 6, 3), 1, np.uint8), (0.5, 0.5, 2.0))
        dims = (3, 3, 6)
        out = restore_resolution(mask, dims, (1.0, 1.0, 1.0))
        assert out.dims == dims
        assert (out.labels == 1).all()

    def test_matches_pointwise_oracle_on_random_mask(self):
        rng = np.random.default_rng(10)
        mask = LabelMask(rng.integers(0, 3, size=(6, 6, 6)).astype(np.uint8), (0.5, 0.5, 2.0))
        dims, spacing = (4, 5, 9), (0.8, 0.7, 1.4)
        out = restore_resolution(mask, dims, spacing)
        expected = resample_nearest_pointwise(mask.labels, mask.spacing, spacing, dims)
        assert out.dims == dims
        assert np.array_equal(out.labels, expected)
