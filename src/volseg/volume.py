"""Volume and label-mask containers plus resampling between voxel grids.

A volume is a channel-first float32 array with a physical voxel spacing in
millimetres; a label mask is a uint8 array over the classes
{0: background, 1: GTVp, 2: GTVn}. Resampling maps voxel centers between
grids: the physical position of index ``i`` is ``(i + 0.5) * spacing``,
and coordinates are clamped to the valid input domain at the borders.
Output grids use ``ceil(dim_in * spacing_in / spacing_out)`` voxels per
axis, the field of view shrunk by ``_SPACING_RTOL`` first, so the input is
covered but float32 pixdim noise adds no plane (250 voxels of 0.8 mm take
400 at 0.5 mm, not 401); ``same_grid`` applies the same tolerance to say
when two (dims, spacing) grids are one. ``resample_linear`` can write its
grid into a caller's array, such as one channel of a stacked input.
``restore_resolution(mask, dims, spacing)`` is the one nearest-label
gather: ``resample_nearest`` calls it, and ``infer`` maps its labels back
onto the first input's grid with it. ``LabelMask`` is the one check of mask
labels, in code and from files alike: it checks the range on the caller's
integer dtype, then casts to uint8, so no value wraps into a class.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import trilinear_core

Spacing = tuple[float, float, float]
# pixdim is float32 in the header, so one spacing written by two tools can
# differ in its last bits (a relative 6e-8); a real grid mismatch is far larger
_SPACING_RTOL = 1e-5


def _check_spacing(spacing) -> Spacing:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(np.isfinite(s) and s > 0 for s in spacing):
        raise ValueError(f"spacing must be three positive finite values, got {spacing}")
    return spacing


@dataclass
class Volume3D:
    """Multi-channel scalar grid, shape (C, X, Y, Z), float32."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim == 3:
            self.data = self.data[None]
        if self.data.ndim != 4 or min(self.data.shape) < 1:
            raise ValueError(f"volume data must be (C, X, Y, Z), got shape {self.data.shape}")
        self.spacing = _check_spacing(self.spacing)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]


@dataclass
class LabelMask:
    """Class grid, shape (X, Y, Z), labels in {0, 1, 2}, stored as uint8."""

    labels: np.ndarray
    spacing: Spacing = field(default=(1.0, 1.0, 1.0))

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"mask labels must be integers, got non-integer dtype {labels.dtype}")
        if labels.ndim != 3:
            raise ValueError(f"mask must be (X, Y, Z), got shape {labels.shape}")
        # before the uint8 cast (int16 258 would read as 2); the values are listed only on failure
        if labels.size and (labels.max() > 2 or (labels.dtype.kind == "i" and labels.min() < 0)):
            bad = np.unique(labels[(labels < 0) | (labels > 2)])
            raise ValueError(f"mask values {bad.tolist()} outside {{0, 1, 2}}")
        self.labels = labels.astype(np.uint8, copy=False)
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


def same_grid(grid, other) -> bool:
    """Whether (dims, spacing) grids are one: equal dims, spacings within a relative ``_SPACING_RTOL``."""
    return tuple(grid[0]) == tuple(other[0]) and np.allclose(grid[1], other[1], rtol=_SPACING_RTOL, atol=0)


def _output_dims(dims, spacing_in, spacing_out) -> tuple[int, int, int]:
    """Voxels per axis covering the field of view shrunk by ``_SPACING_RTOL`` (see the module docstring)."""
    return tuple(
        int(np.ceil(d * si / so * (1 - _SPACING_RTOL)))
        for d, si, so in zip(dims, spacing_in, spacing_out)
    )


def _center_coords(n_out: int, spacing_out: float, spacing_in: float) -> np.ndarray:
    # physical position of output voxel centers, expressed in input voxel units
    phys = (np.arange(n_out, dtype=np.float64) + 0.5) * spacing_out
    return phys / spacing_in - 0.5


def resample_linear(vol: Volume3D, target_spacing, out: np.ndarray | None = None) -> Volume3D:
    """Trilinear resample of a volume onto a new voxel spacing.

    ``out``, when given, is a float32 (C, X, Y, Z) array of the resampled
    dims (it may be a view, such as one channel of a larger stack); the
    result is written into it, and the returned volume's data is ``out``.
    """
    target = _check_spacing(target_spacing)
    out_dims = _output_dims(vol.dims, vol.spacing, target)  # the input's dims when the spacing is kept
    if out is None:
        out = np.empty((vol.channels, *out_dims), dtype=np.float32)
    elif out.shape != (vol.channels, *out_dims) or out.dtype != np.float32:
        raise ValueError(f"resample output must be float32 {(vol.channels, *out_dims)}, "
                         f"got {out.dtype} {out.shape}")
    if target == vol.spacing:
        out[...] = vol.data
        return Volume3D(out, target)
    coords = [
        np.clip(_center_coords(n, so, si), 0.0, d - 1.0)
        for n, so, si, d in zip(out_dims, target, vol.spacing, vol.dims)
    ]
    for c in range(vol.channels):
        trilinear_core(vol.data[c], *coords, out=out[c])
    return Volume3D(out, target)


def restore_resolution(mask: LabelMask, dims, spacing) -> LabelMask:
    """Map a mask onto the (dims, spacing) grid, such as a scan's own: each
    voxel takes the label of the nearest mask voxel center in physical
    coordinates; exact ties go to the lower index."""
    ix, iy, iz = (
        np.clip(np.ceil(_center_coords(n, so, si) - 0.5).astype(np.int64), 0, d - 1)
        for n, so, si, d in zip(dims, spacing, mask.spacing, mask.dims)
    )
    return LabelMask(mask.labels[np.ix_(ix, iy, iz)], spacing)


def resample_nearest(mask: LabelMask, target_spacing) -> LabelMask:
    """Nearest-neighbor resample of a label mask onto a new voxel spacing."""
    target = _check_spacing(target_spacing)
    if target == mask.spacing:
        return LabelMask(mask.labels.copy(), mask.spacing)
    return restore_resolution(mask, _output_dims(mask.dims, mask.spacing, target), target)
