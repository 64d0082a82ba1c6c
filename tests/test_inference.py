import tracemalloc
import weakref

import numpy as np
import pytest

from volseg import _kernels, inference
from volseg.inference import (
    SlidingWindowConfig,
    argmax_labels,
    ensemble_predict,
    equal_weight_kernel,
    gaussian_weight_kernel,
    sliding_window_predict,
    tile_offsets,
)
from volseg.sampling import normalize_patchwise
from volseg.volume import Volume3D


def constant_predictor(probs):
    probs = np.asarray(probs, np.float64)

    def predict(patch):
        out = np.empty((len(probs), *patch.shape[1:]), np.float32)
        out[:] = probs[:, None, None, None]
        return out

    return predict


def mean_predictor(patch):
    """Input-dependent toy predictor: softmax over channel-0 statistics."""
    m = float(patch[0].mean())
    logits = np.stack([
        np.full(patch.shape[1:], m, np.float64),
        patch[0].astype(np.float64),
        -patch[0].astype(np.float64),
    ])
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return (e / e.sum(axis=0, keepdims=True)).astype(np.float32)


def channel_predictor(channels, shift):
    """Input-dependent toy predictor with ``channels`` softmax outputs."""
    def predict(patch):
        x = patch[0].astype(np.float64)
        logits = np.stack([np.sin((c + 1) * x + shift) for c in range(channels)])
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        return (e / e.sum(axis=0, keepdims=True)).astype(np.float32)

    return predict


class TestWeightKernels:
    def test_gaussian_center_face_and_corner_values(self):
        kernel = gaussian_weight_kernel((9, 7, 5), edge_value=0.1)
        w = kernel.weights
        assert w[4, 3, 2] == 1.0
        assert abs(w[0, 3, 2] - 0.1) < 1e-9
        assert abs(w[4, 0, 2] - 0.1) < 1e-9
        assert abs(w[4, 3, 0] - 0.1) < 1e-9
        assert abs(w[0, 0, 0] - 1e-3) < 1e-9

    def test_gaussian_monotone_from_center(self):
        w = gaussian_weight_kernel((11, 9, 7)).weights
        cx, cy, cz = 5, 4, 3
        for axis, center in ((0, cx), (1, cy), (2, cz)):
            profile = np.moveaxis(w, axis, 0)[:, cy if axis != 1 else cx, cz if axis != 2 else cx]
            left = profile[: center + 1]
            right = profile[center:]
            assert (np.diff(left) >= -1e-12).all()
            assert (np.diff(right) <= 1e-12).all()

    def test_gaussian_size_one_axis_is_flat(self):
        w = gaussian_weight_kernel((5, 1, 1)).weights
        assert w[2, 0, 0] == 1.0
        assert w.shape == (5, 1, 1)

    def test_gaussian_rejects_bad_edge_value(self):
        with pytest.raises(ValueError):
            gaussian_weight_kernel((4, 4, 4), edge_value=0.0)
        with pytest.raises(ValueError):
            gaussian_weight_kernel((4, 4, 4), edge_value=1.0)

    def test_equal_kernel_is_all_ones(self):
        kernel = equal_weight_kernel((3, 4, 5))
        assert (kernel.weights == 1.0).all()
        assert kernel.weights.sum() == 3 * 4 * 5


    def test_slab_is_the_outer_product_cut_to_any_planes(self):
        """Any X slab, cut in Y and Z, equals that part of (gx * gy) * gz bit for bit, with or without ``out``."""
        kernel = gaussian_weight_kernel((9, 7, 5), edge_value=0.2)
        gx, gy, gz = kernel.profiles
        whole = gx[:, None, None] * gy[None, :, None] * gz[None, None, :]
        assert kernel.weights.tobytes() == whole.tobytes()
        buf = np.empty((9, 7, 5))
        for x0, x1, ny, nz in [(0, 9, 7, 5), (2, 5, 7, 5), (8, 9, 3, 1), (0, 4, 6, 2)]:
            expected = whole[x0:x1, :ny, :nz]
            assert kernel.slab(x0, x1, ny, nz).tobytes() == expected.tobytes()
            out = buf[:x1 - x0, :ny, :nz]
            assert kernel.slab(x0, x1, ny, nz, out=out) is out
            assert out.tobytes() == expected.tobytes()

class TestTileOffsets:
    def cfg(self, patch, stride):
        return SlidingWindowConfig(patch_size=patch, stride=stride)

    def test_single_tile_when_volume_equals_patch(self):
        cfg = self.cfg((4, 4, 4), (2, 2, 2))
        assert tile_offsets((4, 4, 4), cfg) == [(0, 0, 0)]

    def test_exact_fit_has_no_extra_flush_offset(self):
        cfg = self.cfg((4, 1, 1), (3, 1, 1))
        offs = [o[0] for o in tile_offsets((10, 1, 1), cfg)]
        assert offs == [0, 3, 6]

    def test_overshoot_appends_flush_offset(self):
        cfg = self.cfg((4, 1, 1), (3, 1, 1))
        offs = [o[0] for o in tile_offsets((11, 1, 1), cfg)]
        assert offs == [0, 3, 6, 7]

    def test_order_is_z_outer_x_inner(self):
        cfg = self.cfg((2, 2, 2), (2, 2, 2))
        offs = tile_offsets((4, 4, 4), cfg)
        assert offs[0] == (0, 0, 0)
        assert offs[1] == (2, 0, 0)   # x moves first
        assert offs[2] == (0, 2, 0)   # then y
        assert offs[4] == (0, 0, 2)   # z last

    def test_full_coverage_for_random_geometry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            patch = tuple(int(rng.integers(2, 6)) for _ in range(3))
            stride = tuple(int(rng.integers(1, p + 1)) for p in patch)
            dims = tuple(int(rng.integers(p, 14)) for p in patch)
            cfg = self.cfg(patch, stride)
            covered = np.zeros(dims, bool)
            for ox, oy, oz in tile_offsets(dims, cfg):
                assert ox + patch[0] <= dims[0]
                assert oy + patch[1] <= dims[1]
                assert oz + patch[2] <= dims[2]
                covered[ox:ox + patch[0], oy:oy + patch[1], oz:oz + patch[2]] = True
            assert covered.all()


class TestSlidingWindow:
    def test_single_tile_equals_direct_prediction(self):
        rng = np.random.default_rng(1)
        vol = Volume3D(rng.normal(size=(1, 4, 4, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(4, 4, 4), weighting="equal")
        out = sliding_window_predict(vol, [mean_predictor], cfg)
        direct = mean_predictor(normalize_patchwise(vol.data))
        np.testing.assert_allclose(out.data, direct, atol=1e-6)

    def test_constant_predictor_ignores_overlap_and_weighting(self):
        rng = np.random.default_rng(2)
        vol = Volume3D(rng.normal(size=(1, 8, 6, 4)).astype(np.float32), (1, 1, 1))
        probs = (0.5, 0.3, 0.2)
        for weighting in ("equal", "gaussian"):
            cfg = SlidingWindowConfig(patch_size=(4, 4, 2), stride=(2, 3, 1), weighting=weighting)
            out = sliding_window_predict(vol, [constant_predictor(probs)], cfg)
            for c, value in enumerate(probs):
                np.testing.assert_allclose(out.data[c], value, atol=1e-6)

    def test_equal_and_gaussian_agree_for_constant_predictor(self):
        rng = np.random.default_rng(3)
        vol = Volume3D(rng.normal(size=(1, 6, 6, 6)).astype(np.float32), (1, 1, 1))
        base = dict(patch_size=(4, 4, 4), stride=(2, 2, 2))
        out_eq = sliding_window_predict(vol, [constant_predictor((0.2, 0.3, 0.5))],
                                        SlidingWindowConfig(weighting="equal", **base))
        out_ga = sliding_window_predict(vol, [constant_predictor((0.2, 0.3, 0.5))],
                                        SlidingWindowConfig(weighting="gaussian", **base))
        np.testing.assert_allclose(out_eq.data, out_ga.data, atol=1e-6)

    def test_output_stays_channel_normalized(self):
        rng = np.random.default_rng(4)
        vol = Volume3D(rng.normal(size=(1, 8, 8, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 2), stride=(3, 2, 2), weighting="gaussian")
        out = sliding_window_predict(vol, [mean_predictor], cfg)
        np.testing.assert_allclose(out.data.sum(axis=0), 1.0, atol=1e-5)

    def test_tile_order_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(5)
        vol = Volume3D(rng.normal(size=(1, 8, 6, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 2), stride=(2, 2, 2), weighting="gaussian")
        offsets = tile_offsets(vol.dims, cfg)
        out_fwd = sliding_window_predict(vol, [mean_predictor], cfg)
        shuffled = [offsets[i] for i in rng.permutation(len(offsets))]
        assert shuffled != offsets
        calls = []

        def shuffled_tiles(volume_dims, config):
            calls.append((tuple(volume_dims), config))
            return shuffled

        monkeypatch.setattr(inference, "tile_offsets", shuffled_tiles)
        out_shuf = sliding_window_predict(vol, [mean_predictor], cfg)
        assert calls == [(vol.dims, cfg)]  # the window took its tiles from the substitute
        np.testing.assert_allclose(out_fwd.data, out_shuf.data, atol=1e-6)

    def test_matches_manual_two_patch_accumulation(self):
        rng = np.random.default_rng(6)
        vol = Volume3D(rng.normal(size=(1, 6, 4, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(2, 4, 4), weighting="gaussian")
        out = sliding_window_predict(vol, [mean_predictor], cfg)

        from volseg.inference import gaussian_weight_kernel as gk
        kernel = gk((4, 4, 4), 0.1).weights
        num = np.zeros((3, 6, 4, 4))
        den = np.zeros((6, 4, 4))
        for ox in (0, 2):
            patch = normalize_patchwise(vol.data[:, ox:ox + 4])
            pred = mean_predictor(patch).astype(np.float64)
            num[:, ox:ox + 4] += pred * kernel
            den[ox:ox + 4] += kernel
        np.testing.assert_allclose(out.data, (num / den).astype(np.float32), atol=1e-5)

    def test_small_volume_padded_then_cropped(self):
        rng = np.random.default_rng(7)
        vol = Volume3D(rng.normal(size=(1, 3, 3, 3)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(4, 4, 4), weighting="equal")
        out = sliding_window_predict(vol, [constant_predictor((0.6, 0.3, 0.1))], cfg)
        assert out.dims == (3, 3, 3)
        np.testing.assert_allclose(out.data[0], 0.6, atol=1e-6)

    def test_bad_predictor_shape_raises(self):
        vol = Volume3D(np.zeros((1, 4, 4, 4), np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(4, 4, 4))

        def broken(patch):
            return np.zeros((3, 2, 2, 2), np.float32)

        with pytest.raises(ValueError, match="predictor returned"):
            sliding_window_predict(vol, [broken], cfg)

    def test_exempt_channels_skip_normalization(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        vol = Volume3D(data, (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(4, 4, 4),
                                  weighting="equal", exempt_channels=frozenset({1}))
        seen = {}

        def spy(patch):
            seen["patch"] = patch.copy()
            return constant_predictor((1 / 3, 1 / 3, 1 / 3))(patch)

        sliding_window_predict(vol, [spy], cfg)
        np.testing.assert_array_equal(seen["patch"][1], data[1])
        assert abs(seen["patch"][0].mean(dtype=np.float64)) < 1e-5

    @pytest.mark.parametrize("weighting", ["equal", "gaussian"])
    def test_two_members_match_full_volume_oracle_on_random_grids(self, weighting):
        """Separable weight sum and member blend against a float64 num/den volume pair."""
        rng = np.random.default_rng(20)

        def reversed_predictor(patch):
            return mean_predictor(patch)[::-1].copy()

        for _ in range(12):
            patch = tuple(int(rng.integers(2, 6)) for _ in range(3))
            stride = tuple(int(rng.integers(1, p + 1)) for p in patch)
            dims = tuple(int(rng.integers(p, 11)) for p in patch)
            cfg = SlidingWindowConfig(patch_size=patch, stride=stride, weighting=weighting)
            vol = Volume3D(rng.normal(size=(1, *dims)).astype(np.float32), (1, 1, 1))
            out = sliding_window_predict(vol, [mean_predictor, reversed_predictor], cfg)

            make_kernel = gaussian_weight_kernel if weighting == "gaussian" else equal_weight_kernel
            kernel = make_kernel(patch).weights
            num = np.zeros((3, *dims))
            den = np.zeros(dims)
            for ox, oy, oz in tile_offsets(dims, cfg):
                region = (slice(ox, ox + patch[0]), slice(oy, oy + patch[1]), slice(oz, oz + patch[2]))
                tile = normalize_patchwise(vol.data[(slice(None),) + region])
                mean = (mean_predictor(tile).astype(np.float64) + reversed_predictor(tile)) / 2
                num[(slice(None),) + region] += mean * kernel
                den[region] += kernel
            np.testing.assert_allclose(out.data, (num / den).astype(np.float32), atol=1e-6)

    def test_one_member_output_alive_at_a_time(self):
        rng = np.random.default_rng(21)
        vol = Volume3D(rng.normal(size=(1, 8, 6, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 2), stride=(2, 3, 2))
        outputs = []

        def member(patch):
            alive = sum(ref() is not None for ref in outputs)
            probs = mean_predictor(patch)
            outputs.append(weakref.ref(probs))
            if alive:
                raise AssertionError(f"{alive} earlier member outputs still alive")
            return probs

        sliding_window_predict(vol, [member, member, member], cfg)
        assert len(outputs) == 3 * len(tile_offsets(vol.dims, cfg))

    # A slab budget smaller than a tile, as at the paper's 320x320x64 patch,
    # so a kernel volume (256 KB here, twice the slack) would show in the peak.
    SLAB_BYTES = 64 << 10

    def test_traced_peak_is_num_plus_one_member(self, monkeypatch):
        """tracemalloc peak of a 2-member window: no fold list, float64 tile, kernel or den volume."""
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", self.SLAB_BYTES)
        vol = Volume3D(np.random.default_rng(22).normal(size=(1, 48, 32, 32)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(32, 32, 32), stride=(16, 32, 32))  # 2 tiles

        def member(patch):
            probs = np.empty((3, *patch.shape[1:]), np.float32)
            probs.fill(1 / 3)
            return probs

        voxels, patch_voxels = 48 * 32 * 32, 32 * 32 * 32
        num = 3 * voxels * 8
        one_member = 3 * patch_voxels * 4
        normalized_patch = patch_voxels * 4
        # the blend's float64 product and weight slabs, or the divide's float64 den and first num slab copy
        slabs = 3 * self.SLAB_BYTES // 2
        small = 128 << 10  # numpy's casting buffers (8192 elements) and Python objects
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = sliding_window_predict(vol, [member, member], cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(out.data, 1 / 3, rtol=1e-6)
        assert peak <= num + one_member + normalized_patch + slabs + small, peak

    @pytest.mark.parametrize("dims", [(64, 48, 16), (12, 64, 64)], ids=["short-z", "short-x"])
    def test_traced_peak_of_a_scan_shorter_than_the_patch_holds_no_padded_grid(self, monkeypatch, dims):
        """tracemalloc peak of a 2-member window whose tiles overhang the scan: num on the scan's own grid."""
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", self.SLAB_BYTES)
        patch = (32, 32, 32)
        vol = Volume3D(np.random.default_rng(25).normal(size=(1, *dims)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=patch, stride=(16, 16, 16))

        def member(patch):
            return np.full((3, *patch.shape[1:]), 1 / 3, np.float32)

        voxels, patch_voxels = int(np.prod(dims)), int(np.prod(patch))
        num = 3 * voxels * 8
        one_member = 3 * patch_voxels * 4
        normalized_patch = patch_voxels * 4
        # the blend's float64 product and weight slabs, or the divide's float64 den and first num slab copy
        slabs = 3 * self.SLAB_BYTES // 2
        small = 128 << 10  # numpy's casting buffers (8192 elements) and Python objects
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = sliding_window_predict(vol, [member, member], cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.dims == dims
        np.testing.assert_allclose(out.data, 1 / 3, rtol=1e-6)
        # a padded copy of the scan, or a numerator over the padded grid, would exceed this
        assert peak <= num + one_member + normalized_patch + slabs + small, peak

    @pytest.mark.parametrize("planes", [None, 1, 3])
    def test_in_place_divide_matches_full_volume_division_bit_for_bit(self, monkeypatch, planes):
        """The window's float32 result over its own numerator equals float32(num / den) of whole volumes."""
        rng = np.random.default_rng(23)
        cases = [((9, 7, 5), 1), ((3, 7, 5), 2), ((3, 2, 5), 3), ((2, 3, 1), 4), ((11, 6, 4), 3)]
        for dims, channels in cases:
            cfg = SlidingWindowConfig(patch_size=(4, 4, 4), stride=(3, 2, 4))
            if planes is not None:
                monkeypatch.setattr(_kernels, "_SLAB_BYTES", planes * 8 * dims[1] * dims[2])
            vol = Volume3D(rng.normal(size=(1, *dims)).astype(np.float32), (1, 1, 1))
            members = [channel_predictor(channels, shift) for shift in (0.0, 0.5)]
            out = sliding_window_predict(vol, members, cfg)

            work_dims = tuple(max(d, p) for d, p in zip(dims, cfg.patch_size))
            data = np.pad(vol.data, [(0, 0)] + [(0, w - d) for w, d in zip(work_dims, dims)])
            kernel = gaussian_weight_kernel(cfg.patch_size)
            num = np.zeros((channels, *work_dims))
            for ox, oy, oz in tile_offsets(work_dims, cfg):
                region = (slice(None), slice(ox, ox + 4), slice(oy, oy + 4), slice(oz, oz + 4))
                tile = normalize_patchwise(data[region])
                for member in members:
                    num[region] += member(tile) * (kernel.weights / len(members))
            dx, dy, dz = inference._axis_weight_sums(inference._axis_offsets(work_dims, cfg), kernel, work_dims)
            den = dx[:, None, None] * np.multiply.outer(dy, dz)
            expected = (num / den)[:, :dims[0], :dims[1], :dims[2]].astype(np.float32)
            assert out.data.shape == (channels, *dims)
            assert out.data.tobytes() == expected.tobytes(), (dims, channels, planes)

    def test_window_and_argmax_hold_no_float32_probability_volume(self, monkeypatch):
        """tracemalloc peak of a 2-member window plus argmax on a volume 6x3 tiles wide."""
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", 64 << 10)
        dims, patch = (192, 96, 16), (32, 32, 16)
        vol = Volume3D(np.random.default_rng(24).normal(size=(1, *dims)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=patch, stride=patch)

        def member(patch):
            return np.full((3, *patch.shape[1:]), 1 / 3, np.float32)

        voxels, patch_voxels = int(np.prod(dims)), int(np.prod(patch))
        num = 3 * voxels * 8
        kernel = patch_voxels * 8
        one_member = 3 * patch_voxels * 4
        normalized_patch = patch_voxels * 4
        slabs = 3 * (64 << 10)  # the blend's float64 slab, or the divide's float64 den and first num slab copy
        argmax = voxels * (4 + 1 + 1)  # float32 running maximum, uint8 labels, one bool mask
        small = 128 << 10  # numpy's casting buffers (8192 elements) and Python objects
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            labels = argmax_labels(sliding_window_predict(vol, [member, member], cfg))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert labels.dims == dims
        # a float32 probability volume (3 * voxels * 4 bytes) beside num would exceed this
        assert peak <= num + kernel + one_member + normalized_patch + slabs + argmax + small, peak


class TestEnsembleAndArgmax:
    def prob_volume(self, rng, dims=(4, 4, 4)):
        raw = rng.random((3, *dims))
        return Volume3D((raw / raw.sum(axis=0)).astype(np.float32), (1, 1, 1))

    def blend(self, members):
        """Equal-weight fold mean: the members' sum through ``ensemble_predict``, one member at a
        time, divided by the member count."""
        out = np.zeros(members[0].shape)
        kernel = equal_weight_kernel(members[0].shape[1:])
        for probs in members:
            ensemble_predict(probs, kernel, out)
        return out / len(members)

    def test_mean_of_identical_inputs_is_identity(self):
        vol = self.prob_volume(np.random.default_rng(9))
        out = self.blend([vol.data, vol.data, vol.data])
        np.testing.assert_allclose(out, vol.data, atol=1e-7)

    def test_two_member_hand_average(self):
        a = np.array([1.0, 0.0, 0.0], np.float32).reshape(3, 1, 1, 1)
        b = np.array([0.0, 1.0, 0.0], np.float32).reshape(3, 1, 1, 1)
        out = self.blend([a, b])
        np.testing.assert_allclose(out.ravel(), [0.5, 0.5, 0.0])

    def test_matches_scalar_loop_average(self):
        rng = np.random.default_rng(10)
        vols = [self.prob_volume(rng) for _ in range(5)]
        out = self.blend([v.data for v in vols])
        expected = np.zeros((3, 4, 4, 4))
        for idx in np.ndindex(expected.shape):
            expected[idx] = sum(float(v.data[idx]) for v in vols) / 5.0
        np.testing.assert_allclose(out, expected, atol=1e-7)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-5)

    @pytest.mark.parametrize("members", [1, 2, 3])
    def test_bit_identical_to_float64_copy_and_add(self, members):
        rng = np.random.default_rng(12 + members)
        probs = [self.prob_volume(rng).data for _ in range(members)]
        weights = np.ones((4, 4, 4))
        expected = np.zeros((3, 4, 4, 4))
        for p in probs:
            expected += p.astype(np.float64) * weights
        expected /= members
        out = self.blend(probs)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)

    def test_blend_adds_into_a_view_and_ignores_slab_size(self, monkeypatch):
        rng = np.random.default_rng(15)
        probs = self.prob_volume(rng, dims=(7, 5, 3)).data
        kernel = gaussian_weight_kernel((7, 5, 3))
        results = []
        # one, two and all seven X planes of the float64 products (3 channels) and weights
        for slab_bytes in (1, 8 * 4 * 5 * 3 * 2, 1 << 20):
            monkeypatch.setattr(_kernels, "_SLAB_BYTES", slab_bytes)
            num = np.ones((3, 9, 6, 3))
            assert ensemble_predict(probs, kernel, num[:, 1:8, 1:]) is not None
            results.append(num)
        expected = np.ones((3, 9, 6, 3))
        expected[:, 1:8, 1:] += probs.astype(np.float64) * kernel.weights
        for num in results:
            np.testing.assert_array_equal(num, expected)

    def test_kernel_cut_to_a_tile_inside_the_volume(self):
        """A tile cut by the volume's edge takes the front of the kernel, bit for bit."""
        probs = self.prob_volume(np.random.default_rng(16), dims=(5, 4, 2)).data
        kernel = gaussian_weight_kernel((7, 5, 3))
        out = ensemble_predict(probs, kernel, np.zeros((3, 5, 4, 2)))
        expected = probs.astype(np.float64) * kernel.weights[:5, :4, :2]
        assert out.tobytes() == expected.tobytes()

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        out = np.zeros((3, 4, 4, 4))
        kernel = equal_weight_kernel((4, 4, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            ensemble_predict(self.prob_volume(rng, dims=(3, 3, 3)).data, kernel, out)
        with pytest.raises(ValueError, match="shape mismatch"):  # a kernel smaller than the tile
            ensemble_predict(self.prob_volume(rng).data, equal_weight_kernel((4, 4, 3)), out)
        with pytest.raises(ValueError, match="shape mismatch"):
            ensemble_predict(self.prob_volume(rng).data, kernel, out.astype(np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_empty_rejected(self):
        vol = Volume3D(np.zeros((1, 4, 4, 4), np.float32), (1, 1, 1))
        with pytest.raises(ValueError, match="at least one"):
            sliding_window_predict(vol, [], SlidingWindowConfig(patch_size=(4, 4, 4), stride=(4, 4, 4)))

    def test_window_over_fold_mean_is_mean_of_windows(self):
        rng = np.random.default_rng(13)
        vol = Volume3D(rng.normal(size=(1, 8, 6, 4)).astype(np.float32), (1, 1, 1))
        cfg = SlidingWindowConfig(patch_size=(4, 4, 2), stride=(2, 3, 1), weighting="gaussian")

        def reversed_predictor(patch):
            return mean_predictor(patch)[::-1].copy()

        out = sliding_window_predict(vol, [mean_predictor, reversed_predictor], cfg)
        one = sliding_window_predict(vol, [mean_predictor], cfg).data.astype(np.float64)
        two = sliding_window_predict(vol, [reversed_predictor], cfg).data.astype(np.float64)
        np.testing.assert_allclose(out.data, (one + two) / 2, atol=1e-6)

    def test_argmax_rejects_nan(self):
        for c in range(3):
            probs = np.full((3, 2, 3, 2), 1.0 / 3.0, np.float32)
            probs[c, 1, 2, 0] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                argmax_labels(Volume3D(probs, (1, 1, 1)))

    def test_argmax_one_hot(self):
        probs = np.zeros((3, 2, 2, 2), np.float32)
        probs[1] = 1.0
        out = argmax_labels(Volume3D(probs, (1, 1, 1)))
        assert (out.labels == 1).all()

    def test_argmax_tie_prefers_background(self):
        probs = np.full((3, 2, 2, 2), 1.0 / 3.0, np.float32)
        out = argmax_labels(Volume3D(probs, (1, 1, 1)))
        assert (out.labels == 0).all()

    def test_argmax_matches_scan_oracle(self):
        rng = np.random.default_rng(12)
        vol = self.prob_volume(rng, dims=(5, 4, 3))
        out = argmax_labels(vol)
        for idx in np.ndindex((5, 4, 3)):
            values = [float(vol.data[c][idx]) for c in range(3)]
            best = max(range(3), key=lambda c: (values[c], -c))
            assert out.labels[idx] == best

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_argmax_memory_six_bytes_per_voxel(self, num_classes):
        """float32 running maximum, uint8 labels and one bool mask reused for every class."""
        dims = (128, 128, 64)  # 1M voxels
        probs = np.random.default_rng(15).random((num_classes, *dims), dtype=np.float32)
        vol = Volume3D(probs, (1, 1, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = argmax_labels(vol)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out.labels, np.argmax(probs, axis=0))
        # a second mask of the volume's size (NaN check, or a fresh mask per class) adds 1 byte per voxel
        assert peak <= probs[0].size * 6 + (64 << 10), peak / probs[0].size

    def test_argmax_matches_numpy_argmax_with_ties(self):
        rng = np.random.default_rng(14)
        for num_classes, levels in ((2, 2), (3, 3), (3, 2)):
            probs = rng.integers(0, levels, size=(num_classes, 6, 5, 4)).astype(np.float32)
            out = argmax_labels(Volume3D(probs, (1, 1, 1)))
            assert out.labels.dtype == np.uint8
            np.testing.assert_array_equal(out.labels, np.argmax(probs, axis=0))
