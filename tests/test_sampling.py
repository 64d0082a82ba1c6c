import numpy as np
import pytest
from scipy import stats

from volseg.sampling import (
    PatchSpec,
    extract_patch,
    normalize_imagewise,
    normalize_patchwise,
    sample_patch_position,
)
from volseg.volume import LabelMask, Volume3D

from oracles import patch_position_argwhere


def empty_mask(dims):
    return LabelMask(np.zeros(dims, np.uint8), (1, 1, 1))


class TestSamplePosition:
    def test_uniform_when_targeting_disabled(self):
        # chi-square uniformity check over all valid offsets at alpha = 0.01
        rng = np.random.default_rng(0)
        mask = empty_mask((8, 8, 8))
        spec = PatchSpec(size=(4, 4, 4), target_fraction=0.0)
        counts = np.zeros((5, 5, 5))
        n_draws = 10_000
        for _ in range(n_draws):
            off, prov = sample_patch_position(mask, spec, rng)
            assert prov == "random"
            counts[off] += 1
        expected = n_draws / counts.size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        threshold = stats.chi2.ppf(0.99, counts.size - 1)
        assert chi2 < threshold

    def test_targeted_patch_contains_the_voxel(self):
        rng = np.random.default_rng(1)
        labels = np.zeros((10, 10, 10), np.uint8)
        labels[7, 2, 9] = 1
        mask = LabelMask(labels, (1, 1, 1))
        spec = PatchSpec(size=(4, 4, 4), target_fraction=1.0)
        for _ in range(200):
            off, prov = sample_patch_position(mask, spec, rng)
            assert prov == "targeted"
            assert all(o <= v < o + s for o, v, s in zip(off, (7, 2, 9), spec.size))
            assert all(0 <= o <= 10 - s for o, s in zip(off, spec.size))

    def test_all_background_forces_random(self):
        rng = np.random.default_rng(2)
        spec = PatchSpec(size=(4, 4, 4), target_fraction=0.9)
        for _ in range(50):
            _, prov = sample_patch_position(empty_mask((8, 8, 8)), spec, rng)
            assert prov == "random"

    def test_targeted_fraction_roughly_honored(self):
        rng = np.random.default_rng(3)
        labels = np.zeros((8, 8, 8), np.uint8)
        labels[4, 4, 4] = 2
        mask = LabelMask(labels, (1, 1, 1))
        spec = PatchSpec(size=(2, 2, 2), target_fraction=0.9)
        draws = [sample_patch_position(mask, spec, rng)[1] for _ in range(2000)]
        frac = draws.count("targeted") / len(draws)
        assert 0.85 < frac < 0.95

    def test_volume_smaller_than_patch_uses_offset_zero(self):
        rng = np.random.default_rng(4)
        labels = np.zeros((3, 3, 3), np.uint8)
        labels[1, 1, 1] = 1
        mask = LabelMask(labels, (1, 1, 1))
        spec = PatchSpec(size=(8, 8, 8), target_fraction=1.0)
        off, _ = sample_patch_position(mask, spec, rng)
        assert off == (0, 0, 0)


    def test_offsets_match_argwhere_oracle(self):
        labels = np.random.default_rng(5).integers(0, 3, size=(20, 17, 9)).astype(np.uint8)
        labels[np.random.default_rng(6).random(labels.shape) < 0.97] = 0
        mask = LabelMask(labels, (1, 1, 1))
        spec = PatchSpec(size=(8, 8, 4), target_fraction=0.9)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            assert sample_patch_position(mask, spec, rng) == \
                patch_position_argwhere(labels, spec.size, spec.target_fraction, ref_rng)


class TestExtractPatch:
    def test_full_cover_copies_everything(self):
        rng = np.random.default_rng(5)
        vol = Volume3D(rng.normal(size=(2, 4, 4, 4)).astype(np.float32), (1, 1, 1))
        mask = LabelMask(rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8), (1, 1, 1))
        patch = extract_patch(vol, mask, (0, 0, 0), PatchSpec(size=(4, 4, 4)))
        np.testing.assert_array_equal(patch.data, vol.data)
        np.testing.assert_array_equal(patch.mask_patch, mask.labels)

    def test_overhang_is_zero_padded(self):
        vol = Volume3D(np.ones((1, 4, 4, 4), np.float32), (1, 1, 1))
        mask = LabelMask(np.ones((4, 4, 4), np.uint8), (1, 1, 1))
        patch = extract_patch(vol, mask, (2, 0, 0), PatchSpec(size=(4, 4, 4)))
        assert (patch.data[:, :2] == 1).all()
        assert (patch.data[:, 2:] == 0).all()
        assert (patch.mask_patch[2:] == 0).all()

    def test_interior_copy_is_bit_exact(self):
        rng = np.random.default_rng(6)
        vol = Volume3D(rng.normal(size=(1, 10, 9, 8)).astype(np.float32), (1, 1, 1))
        mask = LabelMask(rng.integers(0, 3, size=(10, 9, 8)).astype(np.uint8), (1, 1, 1))
        off = (3, 2, 1)
        spec = PatchSpec(size=(4, 4, 4))
        patch = extract_patch(vol, mask, off, spec)
        expected = np.empty((1, 4, 4, 4), np.float32)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    expected[0, i, j, k] = vol.data[0, off[0] + i, off[1] + j, off[2] + k]
        np.testing.assert_array_equal(patch.data, expected)

    def test_never_reads_outside_requested_block(self):
        # poison everything outside the patch; none of it may leak in
        data = np.full((1, 8, 8, 8), np.nan, np.float32)
        data[:, 2:6, 2:6, 2:6] = 1.0
        vol = Volume3D(data, (1, 1, 1))
        mask = LabelMask(np.zeros((8, 8, 8), np.uint8), (1, 1, 1))
        patch = extract_patch(vol, mask, (2, 2, 2), PatchSpec(size=(4, 4, 4)))
        assert np.isfinite(patch.data).all()

    def test_offset_errors(self):
        vol = Volume3D(np.zeros((1, 4, 4, 4), np.float32), (1, 1, 1))
        mask = LabelMask(np.zeros((4, 4, 4), np.uint8), (1, 1, 1))
        spec = PatchSpec(size=(2, 2, 2))
        with pytest.raises(ValueError, match="non-negative"):
            extract_patch(vol, mask, (-1, 0, 0), spec)
        with pytest.raises(ValueError, match="beyond"):
            extract_patch(vol, mask, (4, 0, 0), spec)

    def test_provenance_recorded(self):
        vol = Volume3D(np.zeros((1, 4, 4, 4), np.float32), (1, 1, 1))
        mask = LabelMask(np.zeros((4, 4, 4), np.uint8), (1, 1, 1))
        patch = extract_patch(vol, mask, (0, 0, 0), PatchSpec(size=(2, 2, 2)), provenance="targeted")
        assert patch.provenance == "targeted"


class TestNormalizePatchwise:
    def test_outputs_zero_mean_unit_std(self):
        rng = np.random.default_rng(7)
        patch = rng.normal(10.0, 5.0, size=(3, 6, 6, 6)).astype(np.float32)
        out = normalize_patchwise(patch)
        for c in range(3):
            assert abs(out[c].mean(dtype=np.float64)) < 1e-5
            assert abs(out[c].std(dtype=np.float64) - 1.0) < 1e-4

    def test_exempt_channels_pass_through_bit_identical(self):
        rng = np.random.default_rng(8)
        patch = rng.normal(size=(4, 5, 5, 5)).astype(np.float32)
        out = normalize_patchwise(patch, exempt_channels={2, 3})
        np.testing.assert_array_equal(out[2], patch[2])
        np.testing.assert_array_equal(out[3], patch[3])
        assert abs(out[0].mean(dtype=np.float64)) < 1e-5

    def test_constant_channel_becomes_zeros(self):
        patch = np.full((1, 4, 4, 4), 42.0, np.float32)
        out = normalize_patchwise(patch)
        np.testing.assert_array_equal(out, np.zeros_like(patch))

    def test_constant_channel_is_exact_zero_and_input_untouched(self):
        rng = np.random.default_rng(12)
        patch = np.stack([np.full((5, 4, 3), 1e4 + 0.5, np.float32),
                          rng.normal(size=(5, 4, 3)).astype(np.float32)])
        before = patch.copy()
        out = normalize_patchwise(patch)
        assert out.dtype == np.float32
        assert (out[0] == 0.0).all()
        np.testing.assert_array_equal(patch, before)

    def test_channel_far_from_zero_matches_float64_oracle(self):
        rng = np.random.default_rng(13)
        patch = rng.normal(1e4, 1.0, size=(2, 16, 12, 8)).astype(np.float32)
        patch[1] = rng.normal(-1e4, 1.0, size=(16, 12, 8))
        out = normalize_patchwise(patch)
        for c in range(2):
            x = patch[c].astype(np.float64)
            np.testing.assert_allclose(out[c], (x - x.mean()) / x.std(), atol=1e-5)

    def test_affine_rescale_invariance(self):
        rng = np.random.default_rng(9)
        patch = rng.normal(size=(1, 5, 5, 5)).astype(np.float32)
        shifted = (3.7 * patch + 11.0).astype(np.float32)
        np.testing.assert_allclose(
            normalize_patchwise(shifted), normalize_patchwise(patch), atol=1e-4
        )

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(10)
        patch = rng.normal(size=(2, 5, 5, 5)).astype(np.float32)
        once = normalize_patchwise(patch)
        twice = normalize_patchwise(once)
        np.testing.assert_allclose(twice, once, atol=1e-4)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            normalize_patchwise(np.zeros((1, 2, 2, 2), np.float32), eps=0.0)


class TestNormalizeImagewise:
    def test_constant_volume_becomes_zeros(self):
        vol = Volume3D(np.full((1, 4, 4, 4), 9.0, np.float32), (1, 1, 1))
        np.testing.assert_array_equal(normalize_imagewise(vol).data, np.zeros((1, 4, 4, 4), np.float32))

    def test_patch_statistics_shift_with_location(self):
        # a bright corner keeps image-wise-normalized patches from being centered
        data = np.zeros((1, 8, 8, 8), np.float32)
        data[0, :4, :4, :4] = 10.0
        vol = Volume3D(data, (1, 1, 1))
        normed = normalize_imagewise(vol)
        corner = normed.data[0, :4, :4, :4]
        assert abs(corner.mean(dtype=np.float64)) > 0.1

    def test_matches_patchwise_when_patch_is_whole_image(self):
        rng = np.random.default_rng(11)
        vol = Volume3D(rng.normal(size=(1, 4, 4, 4)).astype(np.float32), (1, 1, 1))
        np.testing.assert_array_equal(normalize_imagewise(vol).data, normalize_patchwise(vol.data))
