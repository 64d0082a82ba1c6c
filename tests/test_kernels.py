import numpy as np
import pytest

from volseg import _kernels
from volseg._kernels import conv3d_core, trilinear_core

from oracles import naive_conv3d, trilinear_eight_corner


def _conv_case(rng, cin, cout, k, dims):
    x = rng.normal(size=(cin, *dims)).astype(np.float32)
    weights = rng.normal(size=(cout, cin, k, k, k)).astype(np.float32)
    p = k // 2
    padded = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    return x, padded, weights


class TestConv3dCore:
    @pytest.mark.parametrize("cin,cout,k,dims", [
        (1, 3, 3, (5, 4, 6)),
        (3, 2, 3, (4, 6, 3)),
        (2, 4, 3, (8, 2, 2)),
        (1, 2, 1, (3, 5, 4)),
        (5, 3, 1, (4, 2, 6)),
    ])
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

    @pytest.mark.parametrize("planes_per_chunk", [1, 2, 3])
    def test_chunked_equals_single_chunk(self, monkeypatch, planes_per_chunk):
        # 7 X planes split into chunks of 1, 2 or 3 planes (the last one
        # partial). Each chunk's column count (planes * Y * Z) is a multiple
        # of 16, as in the default network (patch sides divisible by 32):
        # BLAS kernels may round a matrix's trailing ragged columns differently.
        rng = np.random.default_rng(5)
        cin, cout, dims = 4, 8, (7, 4, 8)
        _, padded, weights = _conv_case(rng, cin, cout, 3, dims)
        whole = conv3d_core(padded, weights)
        plane_bytes = 4 * cin * 27 * dims[1] * dims[2]
        monkeypatch.setattr(_kernels, "_IM2COL_CHUNK_BYTES", planes_per_chunk * plane_bytes)
        chunked = conv3d_core(padded, weights)
        np.testing.assert_array_equal(chunked, whole)


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
