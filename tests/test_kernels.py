import tracemalloc

import numpy as np
import pytest

from volseg import _kernels
from volseg._kernels import center_channels, conv3d_core, trilinear_core
from volseg.network import conv3d, halo_buffer, nearest_upsample_2x

from oracles import naive_conv3d, trilinear_eight_corner


def _conv_case(rng, cin, cout, k, dims):
    x = rng.normal(size=(cin, *dims)).astype(np.float32)
    weights = rng.normal(size=(cout, cin, k, k, k)).astype(np.float32)
    p = k // 2
    padded = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    return x, padded, weights


def _plane_bytes(cin, dims, k=3):
    """Bytes of one X plane of columns: Y * Z rows of k*k*cin floats (k**3 taps with one channel)."""
    return 4 * (k ** 3 if cin == 1 else k * k * cin) * dims[1] * dims[2]


def _im2col(padded, weights):
    """Every voxel's full window (dx, dy, dz, cin) as a row, and W to match."""
    cout, cin, k = weights.shape[:3]
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k, k), axis=(1, 2, 3))
    cols = windows.transpose(1, 2, 3, 4, 5, 6, 0).reshape(-1, k ** 3 * cin)
    return cols, weights.transpose(2, 3, 4, 1, 0).reshape(k ** 3 * cin, cout)


def _stored(weights):
    """``weights`` in the memory order load_weights gives a kxkxk kernel."""
    return np.ascontiguousarray(weights.transpose(2, 4, 1, 3, 0)).transpose(4, 2, 0, 3, 1)


ORACLE_CASES = [
    (1, 3, 3, (5, 4, 6)),
    (3, 2, 3, (4, 6, 3)),
    (2, 4, 3, (8, 2, 2)),
    (1, 2, 1, (3, 5, 4)),
    (5, 3, 1, (4, 2, 6)),
    # Y = 1 and Y = 2 (every output row is at a Y edge), odd Z, and 2 to
    # 5 input channels
    (2, 3, 3, (3, 1, 5)),
    (3, 2, 3, (4, 2, 3)),
    (4, 5, 3, (2, 1, 1)),
    (5, 2, 3, (3, 2, 7)),
    (2, 4, 3, (1, 3, 5)),
    (5, 3, 3, (2, 5, 3)),
]


class TestConv3dCore:
    @pytest.mark.parametrize("cin,cout,k,dims", ORACLE_CASES)
    def test_matches_naive_oracle(self, cin, cout, k, dims):
        rng = np.random.default_rng(cin * 100 + cout * 10 + k)
        x, padded, weights = _conv_case(rng, cin, cout, k, dims)
        out = conv3d_core(padded, weights)
        assert out.dtype == np.float32 and out.shape == (cout, *dims)
        expected = naive_conv3d(x, weights, np.zeros(cout))
        np.testing.assert_allclose(out, expected, atol=1e-5)

    @pytest.mark.parametrize("cout", [1, 2, 3])
    def test_single_input_channel_pointwise_equals_gemm(self, cout):
        # one product per output, so the outer product rounds exactly as the GEMM
        rng = np.random.default_rng(20 + cout)
        x, padded, weights = _conv_case(rng, 1, cout, 1, (6, 5, 4))
        out = conv3d_core(padded, weights)
        gemm = (weights.reshape(cout, 1) @ padded.reshape(1, -1)).reshape(out.shape)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, gemm)
        np.testing.assert_allclose(out, naive_conv3d(x, weights, np.zeros(cout)), atol=1e-5)

    # Each GEMM block's columns are copied just before its GEMM. The next
    # three tests shrink the block to 1, 2, 3 or all X planes, so a conv
    # runs several blocks with a ragged last one, and check every output
    # plane against the oracle. Their names are kept from the separate copy
    # chunk these cases were written for.

    @pytest.mark.parametrize("block_planes", [1, 2, 3])
    def test_chunked_equals_single_chunk(self, monkeypatch, block_planes):
        # 7 X planes in blocks of 1, 2 or 3 planes (the last one partial)
        rng = np.random.default_rng(5)
        cin, cout, dims = 4, 8, (7, 4, 8)
        x, padded, weights = _conv_case(rng, cin, cout, 3, dims)
        monkeypatch.setattr(_kernels, "_GEMM_BLOCK_BYTES", block_planes * _plane_bytes(cin, dims))
        np.testing.assert_allclose(conv3d_core(padded, weights),
                                   naive_conv3d(x, weights, np.zeros(cout)), atol=1e-5)

    @pytest.mark.parametrize("block_planes", [1, 2, 3])
    @pytest.mark.parametrize("dims", [(6, 5, 4), (9, 7, 5), (10, 7, 5)])
    @pytest.mark.parametrize("cin", [1, 2, 3, 4])
    def test_ragged_chunks_equal_single_chunk(self, monkeypatch, cin, dims, block_planes):
        # Y * Z is not a multiple of 16 here, and X is not always a multiple
        # of the block: both the channels-last and the K-major (cin = 1)
        # copies run ragged multi-plane blocks
        rng = np.random.default_rng(cin * 1000 + dims[0] * 10 + block_planes)
        cout = cin + 1
        x, padded, weights = _conv_case(rng, cin, cout, 3, dims)
        monkeypatch.setattr(_kernels, "_GEMM_BLOCK_BYTES", block_planes * _plane_bytes(cin, dims))
        out = conv3d_core(padded, weights)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_allclose(out, naive_conv3d(x, weights, np.zeros(cout)), atol=1e-5)

    @pytest.mark.parametrize("block_planes", [1, 2, 3, 10])
    def test_copy_chunk_of_several_gemm_blocks_equals_one_block(self, monkeypatch, block_planes):
        # a channels-last input, read without a copy, and weights in
        # load_weights' order, in blocks of 1, 2, 3 or all 10 planes
        rng = np.random.default_rng(40 + block_planes)
        cin, cout, dims = 3, 4, (10, 7, 5)
        x, padded, weights = _conv_case(rng, cin, cout, 3, dims)
        padded = np.ascontiguousarray(padded.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        monkeypatch.setattr(_kernels, "_GEMM_BLOCK_BYTES", block_planes * _plane_bytes(cin, dims))
        np.testing.assert_allclose(conv3d_core(padded, _stored(weights)),
                                   naive_conv3d(x, weights, np.zeros(cout)), atol=1e-5)

    @pytest.mark.parametrize("block_planes", [1, 2, 3, 10])
    def test_single_input_channel_k_major_blocks(self, monkeypatch, block_planes):
        # cin = 1 copies each GEMM block's columns K-major; ragged blocks of
        # 1, 2, 3 or all 10 planes match the oracle and stay channels-last
        rng = np.random.default_rng(70 + block_planes)
        dims = (10, 7, 5)
        x, padded, weights = _conv_case(rng, 1, 6, 3, dims)
        monkeypatch.setattr(_kernels, "_GEMM_BLOCK_BYTES", block_planes * 4 * 27 * dims[1] * dims[2])
        out = conv3d_core(padded, weights)
        assert out.shape == (6, *dims) and out.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_allclose(out, naive_conv3d(x, weights, np.zeros(6)), atol=1e-5)

    def test_error_against_float64_no_worse_than_im2col(self):
        # c32-32 at 16^3 with He-uniform weights, as in the network: the
        # largest error against a float64 conv is at most that of one
        # float32 GEMM over every voxel's full 27-tap window
        rng = np.random.default_rng(90)
        cin = cout = 32
        dims = (16, 16, 16)
        x = rng.normal(size=(cin, *dims)).astype(np.float32)
        bound = np.sqrt(6.0 / (27 * cin))
        weights = rng.uniform(-bound, bound, size=(cout, cin, 3, 3, 3)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
        cols, w2d = _im2col(padded, weights)
        exact = cols.astype(np.float64) @ w2d.astype(np.float64)
        im2col_error = cols @ w2d - exact
        out = conv3d_core(padded, _stored(weights)).transpose(1, 2, 3, 0).reshape(-1, cout)
        error = out - exact
        # about 3.6e-6 against 3.9e-6; the RMS error is about 18% lower
        assert np.abs(error).max() <= np.abs(im2col_error).max()
        assert np.sqrt(np.mean(error ** 2)) <= np.sqrt(np.mean(im2col_error ** 2))

    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("cin, cout, dims", [(32, 96, (10, 8, 8)), (1, 32, (10, 32, 32))])
    def test_scratch_memory_is_output_plus_shape_fixed_buffers(self, monkeypatch, cin, cout, dims, accumulate):
        # A channels-last input and weights in load_weights' order are read
        # without a copy, so the kernel allocates only its output (none when
        # it adds into an accumulator), one GEMM block of columns and that
        # block's T. With one input channel, dy is in K and T has one tap; with
        # no accumulator T is the output block itself, so there is no T. The
        # slack holds numpy's iterator buffers (25 to 90 KB by shape, whatever
        # the size); a copy of the weights (332 KB at cin = 32), a second T
        # (147 or 262 KB), a second block of columns (147 or 221 KB) or the
        # output (245 KB or 1.3 MB) would exceed it.
        rng = np.random.default_rng(91)
        _, padded, weights = _conv_case(rng, cin, cout, 3, dims)
        padded = np.ascontiguousarray(padded.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        weights = _stored(weights)
        plane_rows = dims[1] * dims[2]
        monkeypatch.setattr(_kernels, "_GEMM_BLOCK_BYTES", 2 * _plane_bytes(cin, dims))
        cols, w2d = _im2col(padded, weights)
        expected = (cols.astype(np.float64) @ w2d).reshape(*dims, cout).transpose(3, 0, 1, 2)
        del cols, w2d
        start = rng.normal(size=(*dims, cout)).astype(np.float32).transpose(3, 0, 1, 2)
        acc = start.copy(order="K") if accumulate else None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv3d_core(padded, weights, out=acc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = 0 if accumulate else out.nbytes
        columns = 2 * _plane_bytes(cin, dims)
        taps = 1 if cin == 1 else 3
        t_block = 4 * 2 * plane_rows * taps * cout if accumulate or taps > 1 else 0
        assert output + columns + t_block <= peak <= output + columns + t_block + (96 << 10), peak
        np.testing.assert_allclose(out, expected + start if accumulate else expected, atol=1e-4)

    @pytest.mark.parametrize("k", [1, 3])
    def test_memory_order_of_inputs_and_output(self, k):
        # any input and weight order gives the same values; the output is
        # channels-last for a 3x3x3 kernel and channels-first for 1x1x1
        rng = np.random.default_rng(50 + k)
        x, padded, weights = _conv_case(rng, 3, 4, k, (6, 5, 4))
        expected = conv3d_core(padded, weights)
        padded_last = np.ascontiguousarray(padded.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        weights_last = np.ascontiguousarray(weights.transpose(0, 2, 3, 4, 1)).transpose(0, 4, 1, 2, 3)
        for p in (padded, padded_last):
            for w in (weights, weights_last, _stored(weights)):
                out = conv3d_core(p, w)
                np.testing.assert_array_equal(out, expected)
                if k == 3:
                    assert out.transpose(1, 2, 3, 0).flags.c_contiguous
                else:
                    assert out.flags.c_contiguous
        np.testing.assert_allclose(expected, naive_conv3d(x, weights, np.zeros(4)), atol=1e-5)


def _float64_conv(x, weights):
    """Zero-padded 3x3x3 cross-correlation in float64, one tap at a time."""
    cout, cin, k = weights.shape[:3]
    dims = x.shape[1:]
    padded = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros((cout, *dims))
    for dx in range(k):
        for dy in range(k):
            for dz in range(k):
                window = padded[:, dx:dx + dims[0], dy:dy + dims[1], dz:dz + dims[2]]
                out += np.tensordot(weights[:, :, dx, dy, dz].astype(np.float64), window, axes=1)
    return out


class TestAccumulator:
    """conv3d(..., out=acc) adds its result into acc, in acc's memory order."""

    def _check(self, rng, cin, cout, k, dims):
        x, _, weights = _conv_case(rng, cin, cout, k, dims)
        # a conv's own output as the accumulator: channels-last for 3x3x3
        start = conv3d(rng.normal(size=(2, *dims)).astype(np.float32),
                       rng.normal(size=(cout, 2, k, k, k)).astype(np.float32), None)
        acc = np.copy(start)  # order K: the copy keeps the memory order
        halo, interior = halo_buffer(cin, dims, (k // 2,) * 3)
        interior[...] = x
        out = conv3d(interior, weights, None, halo=halo, out=acc)
        assert out is acc
        np.testing.assert_allclose(acc, start + naive_conv3d(x, weights, np.zeros(cout)), atol=1e-5)

    @pytest.mark.parametrize("cin,cout,k,dims", ORACLE_CASES)
    def test_conv3d_adds_into_an_accumulator(self, cin, cout, k, dims):
        self._check(np.random.default_rng(cin * 100 + cout * 10 + k + 2), cin, cout, k, dims)

    @pytest.mark.parametrize("block_planes", [1, 2, 3])
    @pytest.mark.parametrize("dims", [(7, 5, 4), (5, 1, 3), (5, 2, 3)])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_accumulator_in_ragged_gemm_blocks(self, monkeypatch, cin, dims, block_planes):
        # several GEMM blocks, the last one partial, for the K-major (cin =
        # 1) and the channels-last copies, at Y = 1, 2 and 5
        monkeypatch.setattr(_kernels, "_GEMM_BLOCK_BYTES", block_planes * _plane_bytes(cin, dims))
        self._check(np.random.default_rng(cin * 1000 + dims[1] * 10 + block_planes), cin, cin + 2, 3, dims)

    def test_rejects_a_channels_first_accumulator_or_a_wrong_shape(self):
        x = np.zeros((2, 4, 4, 4), np.float32)
        weights = np.zeros((3, 2, 3, 3, 3), np.float32)
        with pytest.raises(ValueError, match="channels-last"):
            conv3d(x, weights, None, out=np.zeros((3, 4, 4, 4), np.float32))
        with pytest.raises(ValueError, match="accumulator shape"):
            conv3d(x, weights, None, out=np.zeros((3, 4, 4, 2), np.float32))

    @pytest.mark.parametrize("low_sign", ["relu", "signed"])
    def test_split_decoder_conv_error_close_to_concat(self, low_sign):
        # the decoder's first stage-1 conv: 32 channels at 16^3, upsampled,
        # and a 32-channel 32^3 skip, to 32 channels with He-uniform weights.
        # Its skip half into a fresh output plus its upsampled half added
        # into it rounds three partial sums more than one conv over the
        # 64-channel concat. With ReLU'd halves, as the network gives them,
        # over 16 seeds its RMS error against a float64 conv was 0.98 to
        # 1.02 times the concat's and its largest error 0.84 to 1.25 times;
        # with signed low-res features, 1.04 to 1.06 and 0.91 to 1.48 times
        rng = np.random.default_rng(92)
        low = rng.normal(size=(32, 16, 16, 16)).astype(np.float32)
        if low_sign == "relu":
            low = np.maximum(low, 0)
        skip = np.maximum(rng.normal(size=(32, 32, 32, 32)), 0).astype(np.float32)
        bound = np.sqrt(6.0 / (27 * 64))
        weights = rng.uniform(-bound, bound, size=(32, 64, 3, 3, 3)).astype(np.float32)
        concat = np.concatenate([nearest_upsample_2x(low), skip])
        exact = _float64_conv(concat, weights)
        concat_error = conv3d(concat, weights, None) - exact
        acc = conv3d(skip, weights[:, 32:], None)
        split_error = conv3d(nearest_upsample_2x(low), weights[:, :32], None, out=acc) - exact
        assert np.abs(split_error).max() <= 1.6 * np.abs(concat_error).max()
        assert np.sqrt(np.mean(split_error ** 2)) <= 1.1 * np.sqrt(np.mean(concat_error ** 2))


class TestHaloBuffer:
    @pytest.mark.parametrize("cin,cout,k,dims", ORACLE_CASES)
    def test_conv3d_on_a_written_halo_equals_its_own_copy(self, cin, cout, k, dims):
        # the input written into a halo_buffer's interior, as forward's
        # producers do, gives the same bits as conv3d padding it itself
        rng = np.random.default_rng(cin * 100 + cout * 10 + k + 1)
        x, _, weights = _conv_case(rng, cin, cout, k, dims)
        bias = rng.normal(size=cout).astype(np.float32)
        halo, interior = halo_buffer(cin, dims, (k // 2,) * 3)
        interior[...] = x
        out = conv3d(interior, weights, bias, halo=halo)
        np.testing.assert_array_equal(out, conv3d(x, weights, bias))
        np.testing.assert_allclose(out, naive_conv3d(x, weights, bias), atol=1e-5)

    def test_conv3d_rejects_a_halo_of_the_wrong_shape(self):
        x = np.zeros((2, 4, 4, 4), np.float32)
        halo, _ = halo_buffer(2, (4, 4, 3), (1, 1, 1))
        with pytest.raises(ValueError, match="halo"):
            conv3d(x, np.zeros((1, 2, 3, 3, 3), np.float32), None, halo=halo)

    @pytest.mark.parametrize("dims,pad", [((3, 4, 5), (1, 1, 1)), ((2, 1, 3), (1, 0, 2)), ((1, 2, 1), (0, 1, 0))])
    def test_six_faces_are_zero_and_interior_is_untouched(self, monkeypatch, dims, pad):
        # memory from np.empty is filled with NaN here, so a face the
        # helper does not zero keeps its NaN
        monkeypatch.setattr(np, "empty", lambda shape, dtype: np.full(shape, np.nan, dtype))
        halo, interior = halo_buffer(3, dims, pad)
        assert halo.shape == (3, *(d + 2 * p for d, p in zip(dims, pad)))
        assert halo.transpose(1, 2, 3, 0).flags.c_contiguous and interior.shape == (3, *dims)
        assert np.isnan(interior).all()
        border = ~np.isnan(halo)
        assert border.sum() == halo.size - interior.size
        assert not halo[border].any()


class TestCenterChannels:
    def test_channels_last_rows_equal_channels_first_rows(self):
        # the (X*Y, Z*C) rows with reps = Z hold the same channels as the
        # (voxels, C) transpose with reps = 1
        rng = np.random.default_rng(30)
        c, xs, ys, zs = 3, 6, 5, 4
        x = (rng.normal(size=(c, xs, ys, zs)) + [[[[1e3]]], [[[-2e3]]], [[[0.5]]]]).astype(np.float32)
        first = x.reshape(c, -1).T
        res_first = np.empty_like(first)
        rmean_first, var_first = center_channels(first, 1, res_first)
        last = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(xs * ys, zs * c)
        res_last = np.empty_like(last)
        rmean_last, var_last = center_channels(last, zs, res_last)
        np.testing.assert_allclose(rmean_last, rmean_first, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(var_last, var_first, rtol=1e-12)
        np.testing.assert_array_equal(res_last.reshape(-1, c), res_first)
        x64 = x.reshape(c, -1).astype(np.float64)
        mean = x64.mean(axis=1)
        np.testing.assert_allclose(rmean_first, mean - mean.astype(np.float32), atol=1e-12)
        np.testing.assert_allclose(var_first, x64.var(axis=1), rtol=1e-6)  # float32 residual


class TestTrilinearCore:
    @pytest.mark.parametrize("shape", [(6, 5, 4), (1, 7, 3), (9, 1, 1), (2, 2, 2)])
    def test_bit_identical_to_eight_corner_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        src = rng.normal(size=shape).astype(np.float32)
        coords = [np.clip(rng.uniform(-0.5, d - 0.5, size=n), 0, d - 1)
                  for d, n in zip(shape, (7, 6, 5))]
        out = trilinear_core(src, *coords)
        assert out.dtype == np.float32 and out.shape == (7, 6, 5)
        np.testing.assert_array_equal(out, trilinear_eight_corner(src, *coords))
