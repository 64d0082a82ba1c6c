"""Hot numeric kernels: 3D convolution and trilinear sampling, in numpy.

The convolution is an im2col matrix product (Chellapilla et al. 2006): the
kernel windows of a slab of X planes are unrolled into the columns of one
contiguous buffer, and a single float32 GEMM against the flattened weights
produces that slab's outputs. Trilinear sampling is separable: one 1-D
linear interpolation per axis, in float64.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Size of the im2col buffer for one chunk of X planes. It bounds the extra
# memory a conv needs beyond its input and output (a whole-volume im2col of
# the paper's 320x320x64 patch would take ~22 GB). A chunk holds at least
# one X plane, whatever its size.
_IM2COL_CHUNK_BYTES = 8 << 20


# ---------------------------------------------------------------------------
# 3D cross-correlation on an already zero-padded input.
# padded: (Cin, X+kx-1, Y+ky-1, Z+kz-1) float32
# weights: (Cout, Cin, kx, ky, kz) float32
# returns: (Cout, X, Y, Z) float32
# ---------------------------------------------------------------------------

def conv3d_core(padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    cout, cin, kx, ky, kz = weights.shape
    xs = padded.shape[1] - kx + 1
    ys = padded.shape[2] - ky + 1
    zs = padded.shape[3] - kz + 1
    w2d = weights.reshape(cout, -1)
    if (kx, ky, kz) == (1, 1, 1):
        # pointwise: the input already is the column matrix. With one input
        # channel the product has a single term, so an outer product gives
        # the GEMM's result bit for bit without the K = 1 GEMM overhead.
        cols = padded.reshape(cin, -1)
        out2d = np.multiply(w2d, cols) if cin == 1 else w2d @ cols
        return out2d.reshape(cout, xs, ys, zs)

    # (Cin, X, Y, Z, kx, ky, kz) view of every kernel window, no copy
    windows = sliding_window_view(padded, (kx, ky, kz), axis=(1, 2, 3))
    rows = w2d.shape[1]
    plane = ys * zs
    planes_per_chunk = min(xs, max(1, _IM2COL_CHUNK_BYTES // (4 * rows * plane)))
    buf = np.empty(rows * planes_per_chunk * plane, dtype=np.float32)
    out = np.empty((cout, xs, ys, zs), dtype=np.float32)
    out2d = out.reshape(cout, xs * plane)
    for x0 in range(0, xs, planes_per_chunk):
        n = min(planes_per_chunk, xs - x0)
        cols = buf[:rows * n * plane]
        # rows ordered (cin, dx, dy, dz) to match w2d; columns (x, y, z)
        np.copyto(
            cols.reshape(cin, kx, ky, kz, n, ys, zs),
            windows[:, x0:x0 + n].transpose(0, 4, 5, 6, 1, 2, 3),
        )
        np.matmul(w2d, cols.reshape(rows, n * plane), out=out2d[:, x0 * plane:(x0 + n) * plane])
    return out


# ---------------------------------------------------------------------------
# Trilinear sampling of a 3D grid at separable per-axis coordinates.
# src: (X, Y, Z) float32; cx/cy/cz: float64 coordinates already clamped to
# the valid domain [0, dim-1]. Returns (len(cx), len(cy), len(cz)) float32.
# ---------------------------------------------------------------------------

def _axis_corners(coord: np.ndarray, dim: int):
    if dim == 1:
        lo = np.zeros(coord.shape, dtype=np.int64)
        frac = np.zeros(coord.shape, dtype=np.float64)
        return lo, lo, frac
    lo = np.floor(coord).astype(np.int64)
    np.clip(lo, 0, dim - 2, out=lo)
    frac = coord - lo
    return lo, lo + 1, frac


def _lerp_axis(t: np.ndarray, coord: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of ``t`` (float64) along one axis."""
    lo, hi, frac = _axis_corners(coord, t.shape[axis])
    shape = [1, 1, 1]
    shape[axis] = len(coord)
    frac = frac.reshape(shape)
    out = np.take(t, lo, axis=axis)
    out *= 1.0 - frac
    upper = np.take(t, hi, axis=axis)
    upper *= frac
    out += upper
    return out


def trilinear_core(src: np.ndarray, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray) -> np.ndarray:
    t = _lerp_axis(src.astype(np.float64), cx, 0)
    t = _lerp_axis(t, cy, 1)
    t = _lerp_axis(t, cz, 2)
    return t.astype(np.float32)
