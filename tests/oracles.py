"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (nested loops, two-pass
statistics, pointwise interpolation) and deliberately shares no code with
the package.
"""

import numpy as np


def naive_conv3d(x, weights, bias):
    """Zero-padded cross-correlation via seven nested loops."""
    cout, cin, kx, ky, kz = weights.shape
    _, xs, ys, zs = x.shape
    px, py, pz = kx // 2, ky // 2, kz // 2
    out = np.zeros((cout, xs, ys, zs), dtype=np.float64)
    for co in range(cout):
        for ox in range(xs):
            for oy in range(ys):
                for oz in range(zs):
                    acc = 0.0
                    for ci in range(cin):
                        for dx in range(kx):
                            for dy in range(ky):
                                for dz in range(kz):
                                    ix, iy, iz = ox + dx - px, oy + dy - py, oz + dz - pz
                                    if 0 <= ix < xs and 0 <= iy < ys and 0 <= iz < zs:
                                        acc += float(weights[co, ci, dx, dy, dz]) * float(x[ci, ix, iy, iz])
                    out[co, ox, oy, oz] = acc + float(bias[co])
    return out


def naive_instance_norm(x, gamma, beta, eps=1e-5):
    """Two-pass per-channel standardization."""
    out = np.empty(x.shape, dtype=np.float64)
    for c in range(x.shape[0]):
        vals = x[c].astype(np.float64)
        mean = vals.sum() / vals.size
        var = ((vals - mean) ** 2).sum() / vals.size
        out[c] = float(gamma[c]) * (vals - mean) / np.sqrt(var + eps) + float(beta[c])
    return out


def naive_max_pool(x):
    c, xs, ys, zs = x.shape
    out = np.empty((c, xs // 2, ys // 2, zs // 2), dtype=x.dtype)
    for ci in range(c):
        for i in range(xs // 2):
            for j in range(ys // 2):
                for k in range(zs // 2):
                    out[ci, i, j, k] = x[ci, 2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * k:2 * k + 2].max()
    return out


def naive_upsample(x):
    c, xs, ys, zs = x.shape
    out = np.empty((c, 2 * xs, 2 * ys, 2 * zs), dtype=x.dtype)
    for i in range(2 * xs):
        for j in range(2 * ys):
            for k in range(2 * zs):
                out[:, i, j, k] = x[:, i // 2, j // 2, k // 2]
    return out


def naive_softmax(x):
    x = x.astype(np.float64)
    e = np.exp(x - x.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def naive_forward_two_stage(model, x):
    """Direct computation of a num_stages=2, convs_per_stage=2 network.

    Walks the 25-record layer layout with literal indices:
      0-5   encoder stage 1 (conv, norm, relu) x2
      6     max pool
      7-12  encoder stage 2 (bottleneck)
      13-15 decoder channel-halving conv block
      16    nearest upsample (then concat: upsampled first, then skip)
      17-22 decoder stage 1 conv blocks
      23    final 1x1x1 conv
      24    softmax
    """
    lay = model.layers
    assert len(lay) == 25

    def block(t, i):
        t = naive_conv3d(t, lay[i].weights, lay[i].bias)
        t = naive_instance_norm(t, lay[i + 1].weights, lay[i + 1].bias)
        return np.maximum(t, 0.0)

    t = x.astype(np.float64)
    t = block(t, 0)
    t = block(t, 3)
    skip = t
    t = naive_max_pool(t)
    t = block(t, 7)
    t = block(t, 10)
    t = block(t, 13)
    t = naive_upsample(t)
    t = np.concatenate([t, skip], axis=0)
    t = block(t, 17)
    t = block(t, 20)
    t = naive_conv3d(t, lay[23].weights, lay[23].bias)
    return naive_softmax(t)


def trilinear_point(grid, x, y, z):
    """Interpolate one clamped physical-coordinate point of a 3D grid."""
    xs, ys, zs = grid.shape
    x = min(max(x, 0.0), xs - 1.0)
    y = min(max(y, 0.0), ys - 1.0)
    z = min(max(z, 0.0), zs - 1.0)
    x0 = min(int(np.floor(x)), max(xs - 2, 0))
    y0 = min(int(np.floor(y)), max(ys - 2, 0))
    z0 = min(int(np.floor(z)), max(zs - 2, 0))
    fx, fy, fz = x - x0, y - y0, z - z0
    acc = 0.0
    for dx, wx in ((0, 1 - fx), (1, fx)):
        for dy, wy in ((0, 1 - fy), (1, fy)):
            for dz, wz in ((0, 1 - fz), (1, fz)):
                xi = min(x0 + dx, xs - 1)
                yi = min(y0 + dy, ys - 1)
                zi = min(z0 + dz, zs - 1)
                acc += wx * wy * wz * float(grid[xi, yi, zi])
    return acc


def trilinear_eight_corner(src, cx, cy, cz):
    """Trilinear sampling at per-axis coordinates as a weighted sum of eight
    gathered corner grids, in float64; coordinates are already clamped."""

    def corners(coord, dim):
        if dim == 1:
            zero = np.zeros(len(coord), dtype=np.int64)
            return zero, zero, np.zeros(len(coord))
        lo = np.clip(np.floor(coord).astype(np.int64), 0, dim - 2)
        return lo, lo + 1, coord - lo

    x0, x1, fx = corners(cx, src.shape[0])
    y0, y1, fy = corners(cy, src.shape[1])
    z0, z1, fz = corners(cz, src.shape[2])
    fx, fy, fz = fx[:, None, None], fy[None, :, None], fz[None, None, :]
    grid = src.astype(np.float64)
    out = np.zeros((len(cx), len(cy), len(cz)))
    for xi, wx in ((x0, 1.0 - fx), (x1, fx)):
        for yi, wy in ((y0, 1.0 - fy), (y1, fy)):
            for zi, wz in ((z0, 1.0 - fz), (z1, fz)):
                out += (wx * wy * wz) * grid[np.ix_(xi, yi, zi)]
    return out.astype(np.float32)


def resample_linear_pointwise(vol_data, spacing_in, spacing_out, out_dims):
    """Per-voxel trilinear resample of a (C, X, Y, Z) array."""
    c = vol_data.shape[0]
    out = np.zeros((c,) + tuple(out_dims), dtype=np.float64)
    for ci in range(c):
        for i in range(out_dims[0]):
            for j in range(out_dims[1]):
                for k in range(out_dims[2]):
                    x = ((i + 0.5) * spacing_out[0]) / spacing_in[0] - 0.5
                    y = ((j + 0.5) * spacing_out[1]) / spacing_in[1] - 0.5
                    z = ((k + 0.5) * spacing_out[2]) / spacing_in[2] - 0.5
                    out[ci, i, j, k] = trilinear_point(vol_data[ci], x, y, z)
    return out


def nearest_index(coord, dim):
    """Nearest voxel center for a continuous index, ties to the lower index."""
    idx = int(np.ceil(coord - 0.5))
    return min(max(idx, 0), dim - 1)


def resample_nearest_pointwise(labels, spacing_in, spacing_out, out_dims):
    out = np.zeros(tuple(out_dims), dtype=labels.dtype)
    for i in range(out_dims[0]):
        for j in range(out_dims[1]):
            for k in range(out_dims[2]):
                x = ((i + 0.5) * spacing_out[0]) / spacing_in[0] - 0.5
                y = ((j + 0.5) * spacing_out[1]) / spacing_in[1] - 0.5
                z = ((k + 0.5) * spacing_out[2]) / spacing_in[2] - 0.5
                out[i, j, k] = labels[
                    nearest_index(x, labels.shape[0]),
                    nearest_index(y, labels.shape[1]),
                    nearest_index(z, labels.shape[2]),
                ]
    return out


def overlap_counts(truth, pred):
    """Voxel-by-voxel TP / truth / pred counts via explicit loops."""
    t = np.asarray(truth).ravel()
    p = np.asarray(pred).ravel()
    tp = n_t = n_p = 0
    for a, b in zip(t, p):
        if a:
            n_t += 1
        if b:
            n_p += 1
        if a and b:
            tp += 1
    return tp, n_t, n_p


def dice_loss_float64(truth, prob):
    """Batch Dice loss over present classes and its gradient from float64
    copies of (N, C, X, Y, Z) inputs, class by class."""
    truth = np.asarray(truth, dtype=np.float64)
    prob = np.asarray(prob, dtype=np.float64)
    axes = (0, 2, 3, 4)
    s_y = truth.sum(axis=axes)
    s_p = prob.sum(axis=axes)
    inter = (truth * prob).sum(axis=axes)
    present = s_y > 0
    n_present = int(present.sum())
    losses = [1.0 - 2.0 * inter[c] / (s_y[c] + s_p[c]) for c in np.nonzero(present)[0]]
    grad = np.zeros_like(prob)
    for c in np.nonzero(present)[0]:
        denom = s_y[c] + s_p[c]
        grad[:, c] = -2.0 * (truth[:, c] * denom - inter[c]) / denom**2 / n_present
    return float(np.mean(losses)), grad


def bias_field_triple_loop(dims, coeffs):
    """1 + sum c_ijk x^i y^j z^k over 0 < i + j + k <= order on [-1, 1]
    coordinates, one full-volume term per coefficient, unclamped float64."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    order = coeffs.shape[0] - 1
    axes = []
    for n in dims:
        u = np.zeros(n) if n == 1 else 2.0 * np.arange(n) / (n - 1) - 1.0
        axes.append(np.stack([u ** p for p in range(order + 1)]))
    ux, uy, uz = axes
    field = np.ones(tuple(dims), dtype=np.float64)
    for i in range(order + 1):
        for j in range(order + 1):
            for k in range(order + 1):
                if i + j + k == 0 or i + j + k > order or coeffs[i, j, k] == 0.0:
                    continue
                field += coeffs[i, j, k] * ux[i][:, None, None] * uy[j][None, :, None] * uz[k][None, None, :]
    return field


def bilinear_xy_where(plane_src, xi, yi):
    """Bilinear (X, Y, Z) sampling at per-(x, y) coordinates shared across Z,
    zero outside: four gathered corner grids masked with np.where, float64."""
    xs, ys = plane_src.shape[:2]
    x0 = np.floor(xi).astype(np.int64)
    y0 = np.floor(yi).astype(np.int64)
    fx = (xi - x0)[..., None]
    fy = (yi - y0)[..., None]
    out = np.zeros(xi.shape + plane_src.shape[2:], dtype=np.float64)
    for xo, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
        for yo, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
            inside = ((xo >= 0) & (xo < xs) & (yo >= 0) & (yo < ys))[..., None]
            vals = plane_src[xo.clip(0, xs - 1), yo.clip(0, ys - 1)]
            out += np.where(inside, wx * wy * vals, 0.0)
    return out


def patch_position_argwhere(labels, size, target_fraction, rng):
    """Patch offset draw over an (n_fg, 3) np.argwhere list of foreground
    voxels; returns (offset, provenance)."""
    max_off = [max(d - s, 0) for d, s in zip(labels.shape, size)]
    foreground = np.argwhere(labels > 0)
    if len(foreground) > 0 and rng.random() < target_fraction:
        voxel = foreground[rng.integers(len(foreground))]
        offset = []
        for v, s, m in zip(voxel, size, max_off):
            lo = max(int(v) - s + 1, 0)
            hi = min(int(v), m)
            offset.append(int(rng.integers(lo, hi + 1)))
        return tuple(offset), "targeted"
    return tuple(int(rng.integers(0, m + 1)) for m in max_off), "random"
