"""Reference results for the benchmark's correctness gates.

A second, independent implementation of what the program computes at the
commit that introduced the benchmark: separable trilinear resampling,
the Gaussian-blended sliding window with patch-wise z-scoring, the U-Net
forward pass (float64 im2col convolution), fold averaging, argmax and the
nearest-neighbour restore; plus the batch Dice loss, its gradient and the
aggregated Dice. It shares no code with ``volseg``, so a later change to
the program is checked against this frozen behaviour, not against itself.
"""

import math

import numpy as np

from synth import unet_layers

NORM_EPS = 1e-8
INSTANCE_NORM_EPS = 1e-5
IM2COL_CHUNK_BYTES = 32 << 20

# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _centers(n_out, spacing_out, spacing_in):
    return (np.arange(n_out, dtype=np.float64) + 0.5) * spacing_out / spacing_in - 0.5


def resample_linear(data, spacing, target):
    """Trilinear resample of (X, Y, Z) data, one axis at a time."""
    out = data.astype(np.float64)
    for axis in range(3):
        n_in = out.shape[axis]
        n_out = math.ceil(n_in * spacing[axis] / target[axis] - 1e-9)
        coord = np.clip(_centers(n_out, target[axis], spacing[axis]), 0.0, n_in - 1.0)
        lo = np.clip(np.floor(coord).astype(np.int64), 0, max(n_in - 2, 0))
        hi = np.minimum(lo + 1, n_in - 1)
        frac = (coord - lo).reshape([-1 if a == axis else 1 for a in range(3)])
        out = np.take(out, lo, axis) * (1.0 - frac) + np.take(out, hi, axis) * frac
    return out.astype(np.float32)


def restore_nearest(labels, spacing, ref_dims, ref_spacing):
    idx = [np.clip(np.ceil(_centers(n, so, si) - 0.5).astype(np.int64), 0, d - 1)
           for n, so, si, d in zip(ref_dims, ref_spacing, spacing, labels.shape)]
    return labels[np.ix_(*idx)]


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def _conv3d(x, weights, bias):
    cout, cin, k = weights.shape[:3]
    dims = x.shape[1:]
    w = weights.reshape(cout, -1).astype(np.float64)
    if k == 1:
        out = w @ x.reshape(cin, -1).astype(np.float64)
    else:
        p = k // 2
        xp = np.pad(x.astype(np.float64), ((0, 0), (p, p), (p, p), (p, p)))
        plane = dims[1] * dims[2]
        step = max(1, IM2COL_CHUNK_BYTES // (w.shape[1] * plane * 8))
        out = np.empty((cout, dims[0] * plane))
        for x0 in range(0, dims[0], step):
            x1 = min(dims[0], x0 + step)
            cols = np.empty((cin, k, k, k, x1 - x0, dims[1], dims[2]))
            for dx in range(k):
                for dy in range(k):
                    for dz in range(k):
                        cols[:, dx, dy, dz] = xp[:, x0 + dx:x1 + dx, dy:dy + dims[1], dz:dz + dims[2]]
            out[:, x0 * plane:x1 * plane] = w @ cols.reshape(w.shape[1], -1)
    return out.reshape(cout, *dims).astype(np.float32) + bias[:, None, None, None]


def _instance_norm(x, gamma, beta):
    mean = x.mean(axis=(1, 2, 3), dtype=np.float64)
    inv = gamma / np.sqrt(x.var(axis=(1, 2, 3), dtype=np.float64) + INSTANCE_NORM_EPS)
    shift = (beta - mean * inv).astype(np.float32)
    return x * inv.astype(np.float32)[:, None, None, None] + shift[:, None, None, None]


def _softmax(x):
    e = np.exp(x - x.max(axis=0, keepdims=True), dtype=np.float32)
    return e / e.sum(axis=0, keepdims=True)


def unet_forward(net, layers, x):
    """Channel probabilities of the U-Net ``layers`` (from synth.unet_layers)."""
    it = iter(layers)

    def block(t):
        conv, norm, _relu = next(it), next(it), next(it)
        t = _instance_norm(_conv3d(t, conv[4], conv[5]), norm[4], norm[5])
        return np.maximum(t, np.float32(0.0))

    stages = net["num_stages"]
    skips = []
    for s in range(stages):
        for _ in range(net["convs_per_stage"]):
            x = block(x)
        if s < stages - 1:
            skips.append(x)
            next(it)
            c, n0, n1, n2 = x.shape
            x = x.reshape(c, n0 // 2, 2, n1 // 2, 2, n2 // 2, 2).max(axis=(2, 4, 6))
    for s in range(stages - 2, -1, -1):
        x = block(x)
        next(it)
        x = x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)
        x = np.concatenate([x, skips[s]])
        for _ in range(net["convs_per_stage"]):
            x = block(x)
    final = next(it)
    return _softmax(_conv3d(x, final[4], final[5]))


# ---------------------------------------------------------------------------
# sliding window and the whole infer pipeline
# ---------------------------------------------------------------------------


def _offsets(dim, patch, stride):
    offsets = list(range(0, dim - patch + 1, stride)) or [0]
    if offsets[-1] + patch < dim:
        offsets.append(dim - patch)
    return offsets


def _gaussian(patch, edge):
    profiles = []
    for n in patch:
        if n == 1:
            profiles.append(np.ones(1))
            continue
        t = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
        sigma = (n - 1) / 2.0 / math.sqrt(2.0 * math.log(1.0 / edge))
        profiles.append(np.exp(-t**2 / (2.0 * sigma**2)))
    gx, gy, gz = profiles
    return gx[:, None, None] * gy[None, :, None] * gz[None, None, :]


def _zscore(tile):
    out = np.empty_like(tile)
    for c in range(tile.shape[0]):
        v = tile[c].astype(np.float64)
        out[c] = ((v - v.mean()) / max(v.std(), NORM_EPS)).astype(np.float32)
    return out


def sliding_window(data, predict, patch, stride, edge):
    dims = data.shape[1:]
    pad = [(0, max(p - d, 0)) for p, d in zip(patch, dims)]
    data = np.pad(data, [(0, 0)] + pad)
    work = data.shape[1:]
    ox, oy, oz = (_offsets(d, p, s) for d, p, s in zip(work, patch, stride))
    kernel = _gaussian(patch, edge)
    num = None
    den = np.zeros(work)
    for z in oz:
        for y in oy:
            for x in ox:
                region = (slice(x, x + patch[0]), slice(y, y + patch[1]), slice(z, z + patch[2]))
                probs = predict(_zscore(data[(slice(None),) + region]))
                if num is None:
                    num = np.zeros((probs.shape[0], *work))
                num[(slice(None),) + region] += probs.astype(np.float64) * kernel
                den[region] += kernel
    return (num / den)[:, :dims[0], :dims[1], :dims[2]].astype(np.float32)


def infer_labels(scan, spacing, working_spacing, net, fold_keys, patch, stride, edge):
    """Labels on the scan grid, as ``volseg infer`` produced them for task1."""
    data = resample_linear(scan, spacing, working_spacing)[None]
    acc = None
    for key in fold_keys:
        layers = list(unet_layers(net, key))
        probs = sliding_window(data, lambda t: unet_forward(net, layers, t), patch, stride, edge)
        acc = probs.astype(np.float64) if acc is None else acc + probs
    labels = np.argmax((acc / len(fold_keys)).astype(np.float32), axis=0).astype(np.uint8)
    return restore_nearest(labels, working_spacing, scan.shape, spacing)


# ---------------------------------------------------------------------------
# training loss and evaluation
# ---------------------------------------------------------------------------


def dice_loss_and_grad(truth, prob):
    """Batch Dice loss over present classes and its gradient, (N, C, X, Y, Z)."""
    truth = truth.astype(np.float64)
    prob = prob.astype(np.float64)
    axes = (0, 2, 3, 4)
    s_y, s_p = truth.sum(axis=axes), prob.sum(axis=axes)
    inter = (truth * prob).sum(axis=axes)
    present = s_y > 0
    denom = s_y + s_p
    loss = float(np.mean(1.0 - 2.0 * inter[present] / denom[present]))
    scale = np.where(present, -2.0 / (denom**2 * present.sum()), 0.0)[None, :, None, None, None]
    grad = scale * (truth * denom[None, :, None, None, None] - inter[None, :, None, None, None])
    return loss, grad


def aggregated_dice(truths, preds, classes=(1, 2)):
    """Class -> pooled Dice over all (truth, pred) label arrays."""
    result = {}
    for c in classes:
        inter = sum(int(((t == c) & (p == c)).sum()) for t, p in zip(truths, preds))
        denom = sum(int((t == c).sum()) + int((p == c).sum()) for t, p in zip(truths, preds))
        result[c] = 1.0 if denom == 0 else 2.0 * inter / denom
    return result
