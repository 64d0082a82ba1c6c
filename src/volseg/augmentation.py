"""Training-time transforms, the scheduled application policy, and scalar
schedules.

Each transform is drawn independently per patch with the same probability,
which ramps linearly from ``p_start`` to ``p_end`` over training in
plateaus of ``step`` iterations (the baseline uses a constant probability
instead). Spatial transforms (mirror, rotation) are applied identically to
all image channels and to the mask (mask and binary channels via nearest
neighbor); intensity transforms (contrast, bias field, noise, motion
ghosting) touch only non-exempt image channels, so binary mask channels
stay binary.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .sampling import PatchSample

TRANSFORM_NAMES = ("mirror", "rotate", "contrast", "bias_field", "noise", "motion")


@dataclass
class AugmentationPolicy:
    p_start: float = 0.05
    p_end: float = 0.25
    total_iters: int = 100_000
    step: int = 1000
    constant_p: float | None = None  # baseline mode, e.g. 0.15
    transforms: tuple[str, ...] = TRANSFORM_NAMES

    def __post_init__(self):
        if not 0.0 <= self.p_start <= self.p_end <= 1.0:
            raise ValueError(f"need 0 <= p_start <= p_end <= 1, got {self.p_start}, {self.p_end}")
        if self.constant_p is not None and not 0.0 <= self.constant_p <= 1.0:  # also rejects NaN
            raise ValueError(f"need 0 <= constant_p <= 1, got {self.constant_p}")
        if self.step < 1 or self.total_iters < 1:
            raise ValueError("step and total_iters must be >= 1")
        unknown = set(self.transforms) - set(TRANSFORM_NAMES)
        if unknown:
            raise ValueError(f"unknown transforms {sorted(unknown)}")


@dataclass
class TransformParams:
    mirror_axes: tuple[int, ...] = (0, 1, 2)
    max_rotation_deg: float = 15.0
    contrast_range: tuple[float, float] = (0.7, 1.5)
    bias_order: int = 3
    bias_amplitude: tuple[float, float] = (0.9, 1.1)
    noise_sigma: tuple[float, float] = (0.0, 0.1)
    motion_shift: tuple[int, int] = (1, 4)
    motion_weight: tuple[float, float] = (0.05, 0.2)

    def __post_init__(self):
        # the checks each transform makes when applied, made once here, so a
        # bad value fails when the config is built, not when a draw hits it
        self.mirror_axes = tuple(self.mirror_axes)
        if any(a not in (0, 1, 2) for a in self.mirror_axes):
            raise ValueError(f"mirror_axes must be within 0..2, got {self.mirror_axes}")
        if not (math.isfinite(self.max_rotation_deg) and self.max_rotation_deg >= 0):
            raise ValueError(f"max_rotation_deg must be finite and non-negative, got {self.max_rotation_deg}")
        if not self.bias_order >= 0:
            raise ValueError(f"bias_order must be >= 0, got {self.bias_order}")
        for name in ("contrast_range", "bias_amplitude", "noise_sigma", "motion_shift", "motion_weight"):
            value = tuple(getattr(self, name))
            if len(value) != 2 or not value[0] <= value[1]:  # also rejects NaN
                raise ValueError(f"{name} must be two values low <= high, got {value}")
            setattr(self, name, value)
        if not self.contrast_range[0] > 0:
            raise ValueError(f"contrast_range gamma must be positive, got {self.contrast_range}")
        if not self.noise_sigma[0] >= 0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if not 0.0 <= self.motion_weight[0] <= self.motion_weight[1] <= 1.0:
            raise ValueError(f"motion_weight must be in [0, 1], got {self.motion_weight}")


def scheduled_probability(iteration: int, policy: AugmentationPolicy) -> float:
    """Per-transform probability at a training iteration (1K-plateau ramp)."""
    if not 0 <= iteration <= policy.total_iters:
        raise ValueError(f"iteration {iteration} outside [0, {policy.total_iters}]")
    if policy.constant_p is not None:
        return policy.constant_p
    plateau = (iteration // policy.step) * policy.step
    p = policy.p_start + (policy.p_end - policy.p_start) * plateau / policy.total_iters
    return min(max(p, policy.p_start), policy.p_end)


def cosine_lr(iteration: int, total: int, lr_max: float = 1e-3, lr_min: float = 1e-5) -> float:
    """Cosine decay from lr_max at iteration 0 to lr_min at iteration total."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= iteration <= total:
        raise ValueError(f"iteration {iteration} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * iteration / total))


# ---------------------------------------------------------------------------
# individual transforms; each returns a new PatchSample
# ---------------------------------------------------------------------------

def mirror(patch: PatchSample, axes) -> PatchSample:
    """Index reversal along the given spatial axes (0=X, 1=Y, 2=Z). Exact."""
    axes = tuple(sorted(set(int(a) for a in axes)))
    if any(a not in (0, 1, 2) for a in axes):
        raise ValueError(f"mirror axes must be within 0..2, got {axes}")
    data = np.flip(patch.data, axis=[a + 1 for a in axes]).copy()
    mask = np.flip(patch.mask_patch, axis=axes).copy()
    return replace(patch, data=data, mask_patch=mask)


def _rotation_coords(xs: int, ys: int, angle_deg: float):
    # inverse mapping: where each output voxel samples the input, rotating
    # counterclockwise in the XY plane about the patch center
    theta = math.radians(angle_deg)
    ca, sa = math.cos(theta), math.sin(theta)
    cx, cy = (xs - 1) / 2.0, (ys - 1) / 2.0
    dx = np.arange(xs, dtype=np.float64)[:, None] - cx
    dy = np.arange(ys, dtype=np.float64)[None, :] - cy
    xi = ca * dx + sa * dy + cx
    yi = -sa * dx + ca * dy + cy
    return xi, yi


def _bilinear_corners(xs: int, ys: int, xi: np.ndarray, yi: np.ndarray):
    # the four corners of each (x, y) sample: flat x * ys + y row index of an
    # (X * Y, Z) view and weight wx * wy, zero where the corner lies outside
    x0 = np.floor(xi).astype(np.int64)
    y0 = np.floor(yi).astype(np.int64)
    fx = xi - x0
    fy = yi - y0
    corners = []
    for xo, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
        for yo, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
            inside = (xo >= 0) & (xo < xs) & (yo >= 0) & (yo < ys)
            rows = xo.clip(0, xs - 1) * ys + yo.clip(0, ys - 1)
            corners.append((rows.ravel(), (wx * wy * inside).reshape(-1, 1)))
    return corners


def _bilinear_xy(plane_src: np.ndarray, corners) -> np.ndarray:
    # sample (X, Y, Z) at per-(x, y) coordinates shared across Z, zero fill
    src = plane_src.reshape(-1, plane_src.shape[2])
    out = np.zeros(src.shape, dtype=np.float64)
    vals = np.empty(src.shape, dtype=plane_src.dtype)
    term = np.empty(src.shape, dtype=np.float64)
    for rows, weight in corners:
        np.take(src, rows, axis=0, out=vals, mode="clip")  # rows are in range
        out += np.multiply(weight, vals, out=term)
    return out.reshape(plane_src.shape)


def _nearest_xy(plane_src: np.ndarray, xi: np.ndarray, yi: np.ndarray, fill):
    xs, ys = plane_src.shape[:2]
    xr = np.rint(xi).astype(np.int64)
    yr = np.rint(yi).astype(np.int64)
    inside = (xr >= 0) & (xr < xs) & (yr >= 0) & (yr < ys)
    vals = plane_src[xr.clip(0, xs - 1), yr.clip(0, ys - 1)]
    return np.where(inside[..., None], vals, fill)


def rotate_z(patch: PatchSample, angle_deg: float, nearest_channels=frozenset()) -> PatchSample:
    """Rotate about the patch center in the XY plane.

    Image channels are resampled linearly (``nearest_channels`` via nearest
    neighbor, for binary inputs), the mask via nearest neighbor; regions
    rotated in from outside are zero/background.
    """
    xs, ys = patch.data.shape[1:3]
    xi, yi = _rotation_coords(xs, ys, angle_deg)
    corners = _bilinear_corners(xs, ys, xi, yi)
    data = np.empty_like(patch.data)
    for c in range(patch.data.shape[0]):
        if c in nearest_channels:
            data[c] = _nearest_xy(patch.data[c], xi, yi, np.float32(0.0))
        else:
            data[c] = _bilinear_xy(patch.data[c], corners)
    mask = _nearest_xy(patch.mask_patch, xi, yi, np.uint8(0)).astype(np.uint8)
    return replace(patch, data=data, mask_patch=mask)


def adjust_contrast(patch: PatchSample, gamma: float, exempt_channels=frozenset()) -> PatchSample:
    """Gamma-map each channel's min-max-rescaled intensities, back to its range."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    data = patch.data.copy()
    for c in range(data.shape[0]):
        if c in exempt_channels:
            continue
        values = data[c].astype(np.float64)
        lo, hi = values.min(), values.max()
        if hi > lo:
            # lo + (hi - lo) * t ** gamma with t = (values - lo) / (hi - lo), in place
            values -= lo
            values /= hi - lo
            np.power(values, gamma, out=values)
            values *= hi - lo
            values += lo
            data[c] = values
    return replace(patch, data=data, mask_patch=patch.mask_patch.copy())


def _bias_field(dims, coeffs: np.ndarray) -> np.ndarray:
    # 1 + sum c_ijk x^i y^j z^k over 0 < i + j + k <= order, as a contraction
    # over z, then x, then a batched matmul over y
    coeffs = np.asarray(coeffs, dtype=np.float64)
    order = coeffs.shape[0] - 1
    powers = []
    for n in dims:
        u = np.zeros(n) if n == 1 else 2.0 * np.arange(n) / (n - 1) - 1.0
        powers.append(np.stack([u ** p for p in range(order + 1)]))
    ux, uy, uz = powers
    degree = np.indices(coeffs.shape).sum(axis=0)
    coeffs = np.where((degree == 0) | (degree > order), 0.0, coeffs)
    cz = np.einsum("ijk,kz->ijz", coeffs, uz)
    cxz = np.einsum("ix,ijz->xjz", ux, cz)
    field = np.matmul(uy.T, cxz)
    field += 1.0
    return field


def apply_bias_field(patch: PatchSample, coeffs: np.ndarray,
                     amplitude=(0.9, 1.1), exempt_channels=frozenset()) -> PatchSample:
    """Multiply by a smooth polynomial field 1 + sum c_ijk x^i y^j z^k.

    ``coeffs`` is a (order+1)^3 array over exponent triples; entries with
    i + j + k > order or (0, 0, 0) are ignored. Coordinates are normalized
    to [-1, 1] per axis and the field is clamped to ``amplitude``.
    """
    field = _bias_field(patch.data.shape[1:], coeffs)
    np.clip(field, amplitude[0], amplitude[1], out=field)
    field32 = field.astype(np.float32)
    data = patch.data.copy()
    for c in range(data.shape[0]):
        if c not in exempt_channels:
            data[c] *= field32
    return replace(patch, data=data, mask_patch=patch.mask_patch.copy())


def add_gaussian_noise(patch: PatchSample, sigma: float, rng: np.random.Generator,
                       exempt_channels=frozenset()) -> PatchSample:
    """Additive i.i.d. Gaussian noise in post-normalization units."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    data = patch.data.copy()
    if sigma > 0:
        for c in range(data.shape[0]):
            if c not in exempt_channels:
                data[c] += rng.normal(0.0, sigma, size=data[c].shape).astype(np.float32)
    return replace(patch, data=data, mask_patch=patch.mask_patch.copy())


def apply_motion_ghost(patch: PatchSample, shift: int, weight: float,
                       exempt_channels=frozenset()) -> PatchSample:
    """Blend in a copy shifted along Y (the phase-encode axis); mask untouched."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"blend weight must be in [0, 1], got {weight}")
    data = patch.data.copy()
    if weight > 0.0:
        for c in range(data.shape[0]):
            if c not in exempt_channels:
                ghost = np.roll(data[c], int(shift), axis=1)
                ghost *= weight
                data[c] *= 1.0 - weight
                data[c] += ghost
    return replace(patch, data=data, mask_patch=patch.mask_patch.copy())


# ---------------------------------------------------------------------------
# scheduled application
# ---------------------------------------------------------------------------

def apply_augmentations(patch: PatchSample, params: TransformParams,
                        policy: AugmentationPolicy, iteration: int,
                        rng: np.random.Generator, exempt_channels=frozenset(),
                        log: list | None = None) -> PatchSample:
    """Draw each transform independently at the scheduled probability and apply.

    Deterministic for a fixed (rng state, iteration). When ``log`` is given,
    one ``(name, parameters)`` entry is appended per applied transform.
    """
    p = scheduled_probability(iteration, policy)
    exempt = frozenset(exempt_channels)
    out = patch
    for name in policy.transforms:
        if rng.random() >= p:
            continue
        if name == "mirror":
            axes = tuple(a for a in params.mirror_axes if rng.random() < 0.5)
            out = mirror(out, axes)
            entry = {"axes": axes}
        elif name == "rotate":
            angle = rng.uniform(-params.max_rotation_deg, params.max_rotation_deg)
            out = rotate_z(out, angle, nearest_channels=exempt)
            entry = {"angle_deg": angle}
        elif name == "contrast":
            gamma = rng.uniform(*params.contrast_range)
            out = adjust_contrast(out, gamma, exempt_channels=exempt)
            entry = {"gamma": gamma}
        elif name == "bias_field":
            amp = (params.bias_amplitude[1] - params.bias_amplitude[0]) / 2.0
            n = params.bias_order + 1
            coeffs = rng.uniform(-amp, amp, size=(n, n, n))
            out = apply_bias_field(out, coeffs, params.bias_amplitude, exempt_channels=exempt)
            entry = {"order": params.bias_order}
        elif name == "noise":
            sigma = rng.uniform(*params.noise_sigma)
            out = add_gaussian_noise(out, sigma, rng, exempt_channels=exempt)
            entry = {"sigma": sigma}
        elif name == "motion":
            shift = int(rng.integers(params.motion_shift[0], params.motion_shift[1] + 1))
            weight = rng.uniform(*params.motion_weight)
            out = apply_motion_ghost(out, shift, weight, exempt_channels=exempt)
            entry = {"shift": shift, "weight": weight}
        if log is not None:
            log.append((name, entry))
    if out is patch:  # nothing drawn: still hand back fresh arrays
        out = replace(patch, data=patch.data.copy(), mask_patch=patch.mask_patch.copy())
    return out
