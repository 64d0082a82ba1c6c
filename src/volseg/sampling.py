"""Class-aware patch extraction and intensity normalization.

Patch positions are drawn so a configurable fraction of training patches
(default 90%) contains at least one foreground voxel: a foreground voxel
is picked uniformly, then the offset is drawn uniformly among all valid
offsets whose patch contains it. The rest (and everything, when the mask
has no foreground) is drawn uniformly over all valid offsets.

Normalization is z-scoring per channel, centered by the pass instance norm
uses (``_kernels.center_channels``). The patch-wise variant runs after
patch extraction so every network input has mean 0 / std 1 regardless of
patch location; the image-wise variant (whole-volume statistics) is kept
as the baseline. Channels carrying binary masks are exempt.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import center_channels
from .volume import LabelMask, Volume3D

NORM_EPS = 1e-8


@dataclass
class PatchSpec:
    size: tuple[int, int, int] = (320, 320, 64)
    target_fraction: float = 0.9

    def __post_init__(self):
        self.size = tuple(int(s) for s in self.size)
        if len(self.size) != 3 or min(self.size) < 1:
            raise ValueError(f"patch size must be three positive ints, got {self.size}")
        if not 0.0 <= self.target_fraction <= 1.0:
            raise ValueError(f"target_fraction must be in [0, 1], got {self.target_fraction}")


@dataclass
class PatchSample:
    offset: tuple[int, int, int]
    data: np.ndarray        # (C, px, py, pz) float32
    mask_patch: np.ndarray  # (px, py, pz) uint8
    provenance: str         # "targeted" or "random"


def _max_offsets(dims, size):
    return tuple(max(d - s, 0) for d, s in zip(dims, size))


def sample_patch_position(mask: LabelMask, spec: PatchSpec, rng: np.random.Generator):
    """Draw a patch offset; returns (offset, provenance)."""
    max_off = _max_offsets(mask.dims, spec.size)
    foreground = np.flatnonzero(mask.labels)  # C order, as np.argwhere lists voxels
    if len(foreground) > 0 and rng.random() < spec.target_fraction:
        voxel = np.unravel_index(foreground[rng.integers(len(foreground))], mask.dims)
        offset = []
        for v, s, m in zip(voxel, spec.size, max_off):
            lo = max(int(v) - s + 1, 0)
            hi = min(int(v), m)
            offset.append(int(rng.integers(lo, hi + 1)))
        return tuple(offset), "targeted"
    offset = tuple(int(rng.integers(0, m + 1)) for m in max_off)
    return offset, "random"


def extract_patch(vol: Volume3D, mask: LabelMask, offset, spec: PatchSpec,
                  provenance: str = "random") -> PatchSample:
    """Copy the patch at ``offset``; regions past the volume are zero/background."""
    offset = tuple(int(o) for o in offset)
    if any(o < 0 for o in offset):
        raise ValueError(f"offset {offset} must be non-negative")
    if any(o >= d for o, d in zip(offset, vol.dims)):
        raise ValueError(f"offset {offset} is beyond the padded bounds of dims {vol.dims}")
    if vol.dims != mask.dims:
        raise ValueError(f"volume dims {vol.dims} != mask dims {mask.dims}")

    data = zero_filled_patch(vol.data, offset, spec.size)
    labels = zero_filled_patch(mask.labels, offset, spec.size)
    return PatchSample(offset, data, labels, provenance)


def zero_filled_patch(arr: np.ndarray, offset, size) -> np.ndarray:
    """A copy of the ``size`` region at ``offset`` of ``arr``'s last three axes, zero past its edges."""
    (x0, x1), (y0, y1), (z0, z1) = [(o, min(o + s, d)) for o, s, d in zip(offset, size, arr.shape[-3:])]
    out = np.zeros((*arr.shape[:-3], *size), dtype=arr.dtype)
    out[..., : x1 - x0, : y1 - y0, : z1 - z0] = arr[..., x0:x1, y0:y1, z0:z1]
    return out


def normalize_patchwise(patch: np.ndarray, exempt_channels=frozenset(), eps: float = NORM_EPS) -> np.ndarray:
    """Z-score each non-exempt channel over this patch; exempt channels pass through.

    Returns a float32 copy; ``patch`` is left unchanged. Each channel is
    centered in place by ``_kernels.center_channels``, then divided by its
    standard deviation, floored at ``eps``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = np.array(patch, dtype=np.float32, order="C")
    for c in range(out.shape[0]):
        if c in exempt_channels:
            continue
        ch = out[c].reshape(-1, 1)
        (rmean,), (var,) = center_channels(ch, 1, ch)
        inv = 1.0 / max(np.sqrt(max(var, 0.0)), eps)
        ch *= np.float32(inv)
        ch -= np.float32(rmean * inv)
    return out


def normalize_imagewise(vol: Volume3D, eps: float = NORM_EPS) -> Volume3D:
    """Z-score each channel over the whole volume (baseline configuration)."""
    return Volume3D(normalize_patchwise(vol.data, eps=eps), vol.spacing)
