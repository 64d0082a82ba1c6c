"""Hot numeric kernels: 3D convolution, trilinear sampling and channel centering.

The convolution is an im2col matrix product (Chellapilla et al. 2006). A
kernel larger than 1x1x1 reads a zero-padded channels-last input. Each
GEMM row is one output voxel and holds its (dx, dz * cin) window at its
own y: kx contiguous runs of ``kz * cin`` floats. The ky taps sit side by
side in the GEMM's N, so ``columns (voxels, kx*kz*cin) @ W (kx*kz*cin,
ky*cout)`` gives T, and output voxel (x, y, z) is the sum over dy of T's
row (x, y + dy - ky//2, z) in column block dy, written channels-last; a
row past the Y edge would read only zero padding and is left out. The
copy is a third of a full 27-tap window's, and N is three times cout.
Given an accumulator, each output block adds these sums instead of taking
them, so a conv over a channel concat can run as one conv per part.
Every kernel larger than 1x1x1 runs one loop of GEMMs over blocks of
whole X planes, and each block's columns are copied into one reused buffer
just before its GEMM, so the copy never holds more than one block. Only
the copy and the GEMM's orientation depend on the input channels: with one
channel the runs would be kz floats long, so the columns are copied
K-major instead, one shifted slab per kernel tap with dy moved into K, and
the GEMM is ``columns.T @ W``. T then has one tap and, with no
accumulator, is the output block itself. A 1x1x1 kernel needs no copy:
``W @ X`` on the input as it is, which gives a channels-first output.
Trilinear sampling is separable: one 1-D linear interpolation per axis, in
float64, run over one slab of output X planes at a time.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Rows of one GEMM: whole X planes, about this many bytes of columns and at
# least one plane. The rule reads only the conv's shape, so the GEMM calls,
# and the output bits, do not depend on anything else (BLAS may round a
# matrix's rows differently for different row counts). Each block's columns
# are copied just before its GEMM, so one block of columns and its T are
# the only memory a conv needs beyond its input and output (a whole-volume
# im2col of the paper's 320x320x64 patch would take ~7.5 GB at 32 input
# channels). Larger blocks run small grids' GEMMs a few percent faster, but
# OpenBLAS keeps more of its buffer resident for a GEMM with more rows: 4
# MB blocks left infer-net's peak RSS about 4 MB higher than 1 MB blocks.
_GEMM_BLOCK_BYTES = 1 << 20

# Bytes of the float64 slab of whole X planes (at least one) that a
# slab-wise pass works through: trilinear sampling here, and the window's
# blend and division in ``volseg.inference``.
_SLAB_BYTES = 1 << 20


def _slab_planes(*plane_shape) -> int:
    """X planes of ``plane_shape`` float64 values that fit the slab budget, at least one."""
    return max(1, _SLAB_BYTES // (8 * int(np.prod(plane_shape))))


# ---------------------------------------------------------------------------
# 3D cross-correlation on an already zero-padded input.
# padded: (Cin, X+kx-1, Y+ky-1, Z+kz-1) float32, any memory order; it is
#   read without a copy when stored channels-last, (X', Y', Z', Cin). Its Y
#   padding must be zero: only the X and Z padding is read.
# weights: (Cout, Cin, kx, ky, kz) float32, any memory order; read without a
#   copy when stored as (kx, kz, Cin, ky, Cout), the GEMM operand.
# out: None, or an accumulator of the output's shape that the result is
#   added into; stored channels-last unless the kernel is 1x1x1.
# returns: (Cout, X, Y, Z) float32, stored channels-last unless the kernel
#   is 1x1x1; ``out`` when given.
# ---------------------------------------------------------------------------

def conv3d_core(padded: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    cout, cin, kx, ky, kz = weights.shape
    xs = padded.shape[1] - kx + 1
    ys = padded.shape[2] - ky + 1
    zs = padded.shape[3] - kz + 1
    if (kx, ky, kz) == (1, 1, 1):
        # pointwise: the input already is the column matrix (a transposed
        # operand when it is channels-last). With one input channel the
        # product has a single term, so an outer product gives the GEMM's
        # result bit for bit without the K = 1 GEMM overhead.
        w2d = weights.reshape(cout, cin)
        cols = padded.reshape(cin, -1)
        result = (np.multiply(w2d, cols) if cin == 1 else w2d @ cols).reshape(cout, xs, ys, zs)
        if out is None:
            return result
        out += result
        return out

    acc = None if out is None else out.transpose(1, 2, 3, 0)  # (X, Y, Z, Cout)
    if acc is not None and not acc.flags.c_contiguous:
        raise ValueError("the accumulator of a conv larger than 1x1x1 must be stored channels-last")
    halo = np.ascontiguousarray(padded.transpose(1, 2, 3, 0))
    # strides of the channels-last halo from its shape; numpy may report any
    # stride for an axis of size 1
    sc = halo.itemsize
    sz = cin * sc
    sy = halo.shape[2] * sz
    sx = halo.shape[1] * sy
    # rows (dx, dz, cin), columns (dy, cout)
    w2d = weights.transpose(2, 4, 1, 3, 0).reshape(kx * kz * cin, ky * cout)
    k_major = cin == 1
    if k_major:
        # a window row would be runs of kz floats, so the columns are copied
        # K-major instead: one shifted (n, Y, Z) slab per kernel tap, in W's
        # row order (dx, dz, dy). dy moves into K, and T has one tap.
        src = as_strided(halo, (kx, kz, ky, xs, ys, zs), (sx, sz, sy, sx, sy, sz), writeable=False)
        w2d = w2d.reshape(kx * kz * ky, cout)
    else:
        # (X, Y, Z, kx, kz * Cin) view of every output voxel's window at its own
        # y, no copy: the innermost run covers the window's dz and channel axes
        src = as_strided(halo[:, ky // 2:], (xs, ys, zs, kx, kz * cin), (sx, sy, sz, sx, sc), writeable=False)
    rows, t_cols = w2d.shape
    t_taps = t_cols // cout
    py = t_taps // 2  # T's column block of the output's own row
    plane = ys * zs
    gemm_planes = min(xs, max(1, _GEMM_BLOCK_BYTES // (4 * rows * plane)))
    direct = t_taps == 1 and acc is None  # T is the output block itself
    # buffers before the output: the other order left infer-net's peak RSS
    # about 2 MB higher
    buf = np.empty(gemm_planes * plane * rows, dtype=np.float32)
    tbuf = None if direct else np.empty(gemm_planes * plane * t_cols, dtype=np.float32)
    res = np.empty((xs, ys, zs, cout), dtype=np.float32) if acc is None else acc
    for x0 in range(0, xs, gemm_planes):
        n = min(gemm_planes, xs - x0)
        cols = buf[:n * plane * rows]
        if k_major:
            np.copyto(cols.reshape(kx, kz, ky, n, ys, zs), src[:, :, :, x0:x0 + n])
            cols = cols.reshape(rows, n * plane).T
        else:
            np.copyto(cols.reshape(n, ys, zs, kx, kz * cin), src[x0:x0 + n])
            cols = cols.reshape(n * plane, rows)
        block = res[x0:x0 + n]
        t = block if direct else tbuf[:n * plane * t_cols]
        np.matmul(cols, w2d, out=t.reshape(n * plane, t_cols))
        if direct:
            continue
        t = t.reshape(n, ys, zs, t_taps, cout)
        if acc is None:
            np.copyto(block, t[:, :, :, py])
        else:
            block += t[:, :, :, py]
        for dy in range(t_taps):
            # output row y takes tap dy from T's row y + s; rows past the
            # edge would read only the zero padding
            s = dy - py
            n_rows = ys - abs(s)
            if s == 0 or n_rows <= 0:
                continue
            lo = max(0, -s)
            block[:, lo:lo + n_rows] += t[:, lo + s:lo + s + n_rows, :, dy]
    return res.transpose(3, 0, 1, 2) if out is None else out


# ---------------------------------------------------------------------------
# Trilinear sampling of a 3D grid at separable per-axis coordinates.
# src: (X, Y, Z) float32; cx/cy/cz: float64 coordinates already clamped to
# the valid domain [0, dim-1]. Returns (len(cx), len(cy), len(cz)) float32,
# written into ``out`` when given. The three passes run on one slab of
# output X planes at a time, so no float64 copy of src or of a whole pass
# is made.
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
    """Linear interpolation of ``t`` along one axis, in float64."""
    lo, hi, frac = _axis_corners(coord, t.shape[axis])
    shape = [1, 1, 1]
    shape[axis] = len(coord)
    frac = frac.reshape(shape)
    out = np.take(t, lo, axis=axis).astype(np.float64, copy=False)
    out *= 1.0 - frac
    upper = np.take(t, hi, axis=axis).astype(np.float64, copy=False)
    upper *= frac
    out += upper
    return out


def trilinear_core(src: np.ndarray, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty((len(cx), len(cy), len(cz)), dtype=np.float32)
    step = _slab_planes(max(src.shape[1], len(cy)), max(src.shape[2], len(cz)))
    for x0 in range(0, len(cx), step):
        t = _lerp_axis(src, cx[x0:x0 + step], 0)
        t = _lerp_axis(t, cy, 1)
        out[x0:x0 + step] = _lerp_axis(t, cz, 2)
    return out


# ---------------------------------------------------------------------------
# Per-channel centering for instance norm and patch-wise z-scoring. rows: 2-D
# float32, any strides, whose columns are ``reps`` runs of the C channels.
# ---------------------------------------------------------------------------

def center_channels(rows: np.ndarray, reps: int, out: np.ndarray):
    """Write ``rows - float32(mean)`` into ``out`` (may be ``rows``); return
    each channel's float64 residual mean and variance.

    Sums are float64, so a channel far from zero keeps its precision and no
    float64 array of the rows' size is made. The residual's mean is what
    rounding the mean to float32 left over, so it takes no second pass.
    """
    c, n = rows.shape[1] // reps, rows.shape[0] * reps
    mean = np.einsum("nk->k", rows, dtype=np.float64).reshape(reps, c).sum(axis=0) / n
    mean32 = mean.astype(np.float32)
    np.subtract(rows, np.tile(mean32, reps), out=out)
    rmean = mean - mean32
    sq = np.einsum("nk,nk->k", out, out, dtype=np.float64).reshape(reps, c).sum(axis=0)
    return rmean, sq / n - rmean * rmean
