"""Sliding-window whole-volume prediction with weighted overlap blending.

The volume is tiled into patches on a stride grid (with a final offset
flush to the far edge when the last step overshoots), each patch is
normalized patch-wise, run through the predictor, and accumulated into
numerator (probability x weight) and denominator (weight) grids; the
output is their ratio. Overlaps can be blended with equal weights or with
a separable Gaussian kernel falling from 1 at the patch center to a
configurable edge value per axis. A fold ensemble runs inside one window:
each normalized patch goes through every fold's network and the window
blends the voxel-wise mean of their probabilities, which equals the mean
of the per-fold windows because every fold sees the same tiles and
weights. Argmax turns probabilities into labels.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sampling import normalize_patchwise
from .volume import LabelMask, Volume3D

# accepts a normalized (C_in, px, py, pz) patch, returns (3, px, py, pz) probabilities
Predictor = Callable[[np.ndarray], np.ndarray]


@dataclass
class SlidingWindowConfig:
    patch_size: tuple[int, int, int] = (320, 320, 64)
    stride: tuple[int, int, int] = (80, 80, 16)
    weighting: str = "gaussian"  # or "equal"
    gaussian_edge_value: float = 0.1
    exempt_channels: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.patch_size = tuple(int(p) for p in self.patch_size)
        self.stride = tuple(int(s) for s in self.stride)
        if any(s < 1 or s > p for s, p in zip(self.stride, self.patch_size)):
            raise ValueError(f"need 0 < stride <= patch_size, got {self.stride} vs {self.patch_size}")
        if self.weighting not in ("equal", "gaussian"):
            raise ValueError(f"weighting must be 'equal' or 'gaussian', got {self.weighting!r}")
        if not 0.0 < self.gaussian_edge_value < 1.0:
            raise ValueError(f"gaussian_edge_value must be in (0, 1), got {self.gaussian_edge_value}")
        self.exempt_channels = frozenset(self.exempt_channels)


@dataclass
class WeightKernel:
    size: tuple[int, int, int]
    weights: np.ndarray  # positive, max 1 at the center

    def __post_init__(self):
        if tuple(self.weights.shape) != tuple(self.size):
            raise ValueError(f"kernel shape {self.weights.shape} != declared size {self.size}")
        if not (self.weights > 0).all():
            raise ValueError("kernel weights must be strictly positive")


def gaussian_weight_kernel(size, edge_value: float = 0.1) -> WeightKernel:
    """Separable Gaussian: 1 at the patch center, ``edge_value`` per axis edge."""
    size = tuple(int(s) for s in size)
    if min(size) < 1:
        raise ValueError(f"kernel size must be positive, got {size}")
    if not 0.0 < edge_value < 1.0:
        raise ValueError(f"edge_value must be in (0, 1), got {edge_value}")
    profiles = []
    for n in size:
        if n == 1:
            profiles.append(np.ones(1))
            continue
        center = (n - 1) / 2.0
        sigma = center / np.sqrt(2.0 * np.log(1.0 / edge_value))
        t = np.arange(n, dtype=np.float64)
        profiles.append(np.exp(-((t - center) ** 2) / (2.0 * sigma**2)))
    gx, gy, gz = profiles
    weights = gx[:, None, None] * gy[None, :, None] * gz[None, None, :]
    return WeightKernel(size, weights)


def equal_weight_kernel(size) -> WeightKernel:
    size = tuple(int(s) for s in size)
    return WeightKernel(size, np.ones(size, dtype=np.float64))


def _axis_offsets(dim: int, patch: int, stride: int) -> list[int]:
    offsets = list(range(0, dim - patch + 1, stride))
    if not offsets:
        offsets = [0]
    if offsets[-1] + patch < dim:
        offsets.append(dim - patch)  # flush with the far edge
    return offsets


def tile_offsets(volume_dims, config: SlidingWindowConfig) -> list[tuple[int, int, int]]:
    """Patch corner offsets covering the volume, Z-outer / Y / X-inner order."""
    ox, oy, oz = (
        _axis_offsets(d, p, s)
        for d, p, s in zip(volume_dims, config.patch_size, config.stride)
    )
    return [(x, y, z) for z in oz for y in oy for x in ox]


def _kernel_for(config: SlidingWindowConfig) -> WeightKernel:
    if config.weighting == "gaussian":
        return gaussian_weight_kernel(config.patch_size, config.gaussian_edge_value)
    return equal_weight_kernel(config.patch_size)


def sliding_window_predict(vol: Volume3D, predictor: Predictor,
                           config: SlidingWindowConfig, offsets=None) -> Volume3D:
    """Tiled whole-volume prediction; returns a 3-channel probability volume.

    Normalization is applied per extracted patch (exempt channels pass
    through untouched) before each predictor call. The result does not
    depend on tile order; ``offsets`` exists to let tests exercise that.
    """
    dims = vol.dims
    pad = [max(p - d, 0) for p, d in zip(config.patch_size, dims)]
    data = vol.data
    if any(pad):
        data = np.pad(data, ((0, 0), (0, pad[0]), (0, pad[1]), (0, pad[2])))
    work_dims = data.shape[1:]

    if offsets is None:
        offsets = tile_offsets(work_dims, config)
    kernel = _kernel_for(config).weights  # float64
    px, py, pz = config.patch_size

    num = weighted = None  # weighted: one tile's probs * kernel
    den = np.zeros(work_dims, dtype=np.float64)
    for ox, oy, oz in offsets:
        patch = data[:, ox:ox + px, oy:oy + py, oz:oz + pz]
        patch = normalize_patchwise(patch, exempt_channels=config.exempt_channels)
        probs = np.asarray(predictor(patch))
        if probs.ndim != 4 or probs.shape[1:] != (px, py, pz):
            raise ValueError(
                f"predictor returned shape {probs.shape}, expected (C, {px}, {py}, {pz})"
            )
        if num is None:
            num = np.zeros((probs.shape[0], *work_dims), dtype=np.float64)
            weighted = np.empty(probs.shape, dtype=np.float64)
        np.multiply(probs, kernel, out=weighted)
        num[:, ox:ox + px, oy:oy + py, oz:oz + pz] += weighted
        den[ox:ox + px, oy:oy + py, oz:oz + pz] += kernel

    if num is None or not (den > 0).all():
        raise ValueError("tiling left voxels uncovered")
    num /= den
    out = num[:, : dims[0], : dims[1], : dims[2]]
    return Volume3D(out.astype(np.float32), vol.spacing, "continuous")


def ensemble_predict(member_probs) -> np.ndarray:
    """Voxel-wise float64 mean of the fold members' probabilities for one patch.

    ``cmd_infer`` calls it on every tile with each fold's network output,
    so one window blends the fold mean and keeps a single probability
    buffer however many folds run.
    """
    member_probs = [np.asarray(p) for p in member_probs]
    if not member_probs:
        raise ValueError("ensemble needs at least one probability array")
    first, *rest = member_probs
    for probs in rest:
        if probs.shape != first.shape:
            raise ValueError(f"shape mismatch in ensemble: {probs.shape} vs {first.shape}")
    # the first sum is made in float64 directly, not on a float64 copy
    acc = np.add(first, rest[0], dtype=np.float64) if rest else first.astype(np.float64)
    for probs in rest[1:]:
        acc += probs
    acc /= len(member_probs)
    return acc


def argmax_labels(probs: Volume3D) -> LabelMask:
    """Per-voxel class of maximum probability; ties favor the lower class."""
    p = probs.data
    best = p[0].copy()
    labels = np.zeros(best.shape, dtype=np.uint8)
    for c in range(1, p.shape[0]):
        better = p[c] > best  # strict, so a tie keeps the lower class
        labels[better] = c
        np.maximum(best, p[c], out=best)
    return LabelMask(labels, probs.spacing)
