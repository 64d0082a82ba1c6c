"""Sliding-window whole-volume prediction with weighted overlap blending.

The tiles are every combination of each axis's patch starts on a stride
grid (the last flush with the far edge). Each patch is
normalized patch-wise once and run through every fold member's predictor,
one member at a time. ``ensemble_predict`` adds each member's
probabilities, weighted by the kernel, straight into a float64 numerator
grid, one slab of X planes at a time, so only one member's output exists
at any time. With F members the summed weights (the denominator) are
scaled by F once, so the window's result, the numerator divided by them,
is the mean of the per-member windows, because every member sees the same
tiles and weights. The division writes its float32 result over the front
of the numerator's own buffer.

Overlaps can be blended with equal weights or with a separable Gaussian
kernel falling from 1 at the patch center to a configurable edge value
per axis. Both kernels are outer products of per-axis profiles, and only
the profiles are kept: the blend forms each slab's weights beside its
product buffer, and the summed weight (the denominator) is the outer
product of three 1-D sums of each profile over its axis's starts, so
neither a kernel volume nor a denominator volume exists. Argmax turns
probabilities into labels.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import _slab_planes
from .sampling import normalize_patchwise, zero_filled_patch
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
        for name in ("patch_size", "stride"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} must have three entries, got {getattr(self, name)}")
        if any(s < 1 or s > p for s, p in zip(self.stride, self.patch_size)):
            raise ValueError(f"need 0 < stride <= patch_size, got {self.stride} vs {self.patch_size}")
        if self.weighting not in ("equal", "gaussian"):
            raise ValueError(f"weighting must be 'equal' or 'gaussian', got {self.weighting!r}")
        if not 0.0 < self.gaussian_edge_value < 1.0:
            raise ValueError(f"gaussian_edge_value must be in (0, 1), got {self.gaussian_edge_value}")
        self.exempt_channels = frozenset(self.exempt_channels)


@dataclass
class WeightKernel:
    """Blending kernel: the outer product of three positive per-axis profiles."""

    size: tuple[int, int, int]
    profiles: tuple  # three 1-D float64 arrays, lengths ``size``

    def __post_init__(self):
        self.size = tuple(int(s) for s in self.size)
        self.profiles = tuple(np.asarray(p, dtype=np.float64) for p in self.profiles)
        if tuple(p.shape for p in self.profiles) != tuple((n,) for n in self.size):
            raise ValueError(f"kernel profiles {[p.shape for p in self.profiles]} != declared size {self.size}")
        if not all((p > 0).all() for p in self.profiles):
            raise ValueError("kernel weights must be strictly positive")

    def slab(self, x0: int, x1: int, ny: int, nz: int, out=None) -> np.ndarray:
        """Kernel planes ``x0:x1`` cut to their first ``ny`` Y and ``nz`` Z values,
        as float64 ``(gx ⊗ gy) ⊗ gz``; written into ``out`` when given."""
        gx, gy, gz = self.profiles
        if out is None:
            out = np.empty((x1 - x0, ny, nz))
        # the Z factor in place, so numpy's ufunc iterator buffers one broadcast operand, not two
        out[...] = gx[x0:x1, None, None] * gy[None, :ny, None]
        out *= gz[:nz]
        return out

    @property
    def weights(self) -> np.ndarray:
        """The whole (X, Y, Z) float64 kernel, max 1 at the center, formed on each access."""
        return self.slab(0, *self.size)


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
    return WeightKernel(size, tuple(profiles))


def equal_weight_kernel(size) -> WeightKernel:
    size = tuple(int(s) for s in size)
    return WeightKernel(size, tuple(np.ones(n) for n in size))


def _axis_offsets(volume_dims, config: SlidingWindowConfig) -> list[list[int]]:
    """Each axis's patch starts: the stride grid, then the start flush with the far edge."""
    return [[*range(0, dim - patch, stride), max(dim - patch, 0)]
            for dim, patch, stride in zip(volume_dims, config.patch_size, config.stride)]


def tile_offsets(volume_dims, config: SlidingWindowConfig) -> list[tuple[int, int, int]]:
    """Patch corner offsets: every combination of the per-axis starts, Z-outer / Y / X-inner order."""
    ox, oy, oz = _axis_offsets(volume_dims, config)
    return [(x, y, z) for z in oz for y in oy for x in ox]


def _kernel_for(config: SlidingWindowConfig) -> WeightKernel:
    if config.weighting == "gaussian":
        return gaussian_weight_kernel(config.patch_size, config.gaussian_edge_value)
    return equal_weight_kernel(config.patch_size)


def _axis_weight_sums(starts, kernel: WeightKernel, dims) -> list[np.ndarray]:
    """Per-axis sums of the kernel profiles over each axis's patch starts, cut at ``dims``.

    The tiles are every combination of ``starts``, so the summed weight at
    (x, y, z) is ``sums[0][x] * sums[1][y] * sums[2][z]``.
    """
    sums = []
    for axis_starts, profile, dim in zip(starts, kernel.profiles, dims):
        total = np.zeros(dim)
        for start in axis_starts:
            total[start:start + len(profile)] += profile[:dim - start]
        sums.append(total)
    return sums


def sliding_window_predict(vol: Volume3D, predictors: list[Predictor], config: SlidingWindowConfig) -> Volume3D:
    """Tiled whole-volume prediction blended over fold members; 3-channel probabilities.

    ``predictors`` lists the fold members (one model is ``[predictor]``);
    the result is the mean of their windows. Normalization is applied
    once per extracted patch (exempt channels pass through untouched)
    before the members run. The tiles are ``tile_offsets`` of the volume,
    in any order; one that overhangs a volume shorter than the patch is
    read zero-filled and blended only where it lies inside.

    The result's data is a float32 view over the front of the window's
    float64 numerator, so while it is held it keeps twice its own bytes
    alive. The window's peak is that numerator plus one normalized patch,
    one member's output (and whatever its forward allocates) and the
    blend's slab buffers; no kernel volume is kept, and the final division
    adds only two slab buffers, not a second whole-volume array.
    """
    predictors = list(predictors)
    if not predictors:
        raise ValueError("the window needs at least one predictor")
    dims = vol.dims
    kernel = _kernel_for(config)
    den_axes = _axis_weight_sums(_axis_offsets(dims, config), kernel, dims)
    den_axes[0] *= len(predictors)  # every member adds a full weight, so the division takes their mean
    ex, ey, ez = (min(p, d) for p, d in zip(config.patch_size, dims))  # a tile's extent inside the volume
    px, py, pz = config.patch_size

    num = None
    for ox, oy, oz in tile_offsets(dims, config):
        patch = vol.data[:, ox:ox + px, oy:oy + py, oz:oz + pz]
        if patch.shape[1:] != config.patch_size:
            patch = zero_filled_patch(vol.data, (ox, oy, oz), config.patch_size)
        patch = normalize_patchwise(patch, exempt_channels=config.exempt_channels)
        for predict in predictors:
            probs = np.asarray(predict(patch))
            if probs.ndim != 4 or probs.shape[1:] != (px, py, pz):
                raise ValueError(f"predictor returned shape {probs.shape}, expected (C, {px}, {py}, {pz})")
            if num is None:
                num = np.zeros((probs.shape[0], *dims), dtype=np.float64)
            ensemble_predict(probs[:, :ex, :ey, :ez], kernel, num[:, ox:ox + ex, oy:oy + ey, oz:oz + ez])
            del probs  # released before the next member runs
    return Volume3D(_divide_by_weights(num, den_axes), vol.spacing)


def _divide_by_weights(num: np.ndarray, den_axes) -> np.ndarray:
    """float32 ``num / den``, written over the front of ``num``'s buffer.

    Output element ``i`` lands at byte ``4i`` and comes from byte ``8i``,
    so going one channel and one X slab at a time in ascending memory
    order reads every numerator value before it is overwritten. Only the
    first slab's output overlaps its own input, which numpy copies first.
    The result is a view that keeps ``num`` alive.
    """
    dx, dy, dz = den_axes
    channels, nx, ny, nz = num.shape
    out = num.reshape(-1).view(np.float32)[:num.size].reshape(num.shape)
    den_yz = np.multiply.outer(dy, dz)
    step = min(nx, _slab_planes(ny, nz))
    den = np.empty((step, ny, nz))
    for c in range(channels):
        for x0 in range(0, nx, step):
            x1 = min(nx, x0 + step)
            np.multiply(dx[x0:x1, None, None], den_yz, out=den[:x1 - x0])
            np.divide(num[c, x0:x1], den[:x1 - x0], out=out[c, x0:x1])
    return out


def ensemble_predict(probs, kernel: WeightKernel, out: np.ndarray) -> np.ndarray:
    """Blend one fold member into a float64 accumulator: ``out += probs * kernel``.

    ``probs`` and ``out`` are (C, X, Y, Z), and the kernel's weights are
    cut to their first (X, Y, Z) values. ``sliding_window_predict`` calls
    it for every member on every tile, with ``out`` the tile's region of its
    numerator grid (it and ``probs`` cut to the part of the tile inside the
    volume), and divides by the member count once, in its denominator, so
    the window blends the fold mean without keeping any member's output, a
    float64 tile or a kernel volume. Each slab of X planes forms its kernel
    weights beside its float64 product buffer; the two fit one slab budget
    together.
    """
    probs = np.asarray(probs)
    if (out.dtype != np.float64 or out.ndim != 4 or probs.shape != out.shape
            or any(n > k for n, k in zip(out.shape[1:], kernel.size))):
        raise ValueError(f"shape mismatch in ensemble: probabilities {probs.shape}, kernel "
                         f"{kernel.size}, float64 accumulator {out.shape} ({out.dtype})")
    channels, px, py, pz = out.shape
    step = min(px, _slab_planes(channels + 1, py, pz))
    buf = np.empty((channels, step, py, pz))
    weights = np.empty((step, py, pz))
    for x0 in range(0, px, step):
        x1 = min(px, x0 + step)
        w = kernel.slab(x0, x1, py, pz, out=weights[:x1 - x0])
        np.multiply(probs[:, x0:x1], w, out=buf[:, :x1 - x0])
        out[:, x0:x1] += buf[:, :x1 - x0]
    return out


def argmax_labels(probs: Volume3D) -> LabelMask:
    """Per-voxel class of maximum probability; ties favor the lower class.

    Raises ``ValueError`` when any probability is NaN.
    """
    p = probs.data
    best = p[0].copy()
    labels = np.zeros(best.shape, dtype=np.uint8)
    better = np.empty(best.shape, dtype=bool)  # one mask, reused for every class
    for c in range(1, p.shape[0]):
        np.greater(p[c], best, out=better)  # strict, so a tie keeps the lower class
        labels[better] = c
        np.maximum(best, p[c], out=best)  # carries a NaN of any class into best
    if np.isnan(best.max()):  # the maximum carries a NaN, with no mask of the volume's size
        raise ValueError("probabilities contain NaN")
    return LabelMask(labels, probs.spacing)
