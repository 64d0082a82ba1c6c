"""3D U-Net: layer plan, construction, forward pass, parameter counts, weight files.

Tensors are plain numpy float32 arrays shaped (C, X, Y, Z). The encoder
has ``num_stages`` stages of conv blocks (conv -> instance norm -> ReLU)
with 2x2x2 max pooling in between, doubling the channel width each stage.
The decoder mirrors it: a 1x1x1 conv block halves the channels, nearest
2x interpolation doubles the spatial size, the matching encoder stage
output is concatenated, and the stage's conv blocks follow. A final 1x1x1
conv plus channel softmax gives one probability per ``volume.CLASS_NAMES``
label. Stage kernel sizes come from ``kernel_plan``; with the default plan
(3,3,3,3,1,1) the 1x1x1 kernels in stages 5-6 cut the parameter count from
about 86M to about 14M.

``layer_plan`` is the one description of this structure: the layers in
execution order, without parameters, each with the halo it writes (its
``pad``, below). ``build_unet`` and ``load_weights`` fill in the
parameters, ``volseg net-info`` counts them from the plan's shapes, and
``forward`` interprets the list one layer at a time. Skips are a stack:
each max pool pushes its input, and each upsample pops the innermost skip,
which follows the upsampled features along channels.

Memory order is chosen by kernel size; logical shapes never change. A conv
with a kernel larger than 1x1x1 reads its input from a ``halo_buffer``: a
zeroed channels-last buffer with a border of the kernel's reach. In
``forward`` the layer that makes the conv's input (a ReLU, max pool or
upsample) writes it straight into that buffer's interior, so the conv
copies nothing; called on its own, ``conv3d`` copies its input into a new
one. Such a conv returns its output channels-last: an array of shape
(C, X, Y, Z) whose memory is (X, Y, Z, C), ``out.transpose(3, 0, 1, 2)``
of a C-contiguous array. A 1x1x1 conv reads either order and returns
channels-first. Instance norm, ReLU, pooling, upsampling, concatenation and
softmax keep the memory order they are given unless they write into a
halo, so the network's output, whose last conv is 1x1x1, is
channels-first. ``load_weights`` stores each conv weight with a kernel
larger than 1x1x1 in memory order (kx, kz, cin, ky, cout), the kernel's
GEMM operand without a copy; ``weights.shape`` stays (cout, cin, kx, ky,
kz).

A decoder conv larger than 1x1x1 reads the concat [U, S] of the upsampled
features U and the skip S in two halves, since conv(cat(U, S), W) =
conv(S, W_s) + conv(U, W_u), so the concat is never built. The stage's
last encoder ReLU writes S into a halo of S's channels. The skip half runs
into a fresh output and that halo is dropped; then the upsample writes U
into a second halo, and the U half adds into the output through
``conv3d``'s accumulator. Two float32 partial sums replace one, so the
output is not bit-identical to one conv over the concat. A 1x1x1 decoder
conv reads no halo and takes the concat. ``load_weights`` stores a halved
conv's weight as (2, kx, kz, cin/2, ky, cout), each half a GEMM operand.
No 5-D view has that memory, so its ``weights`` are shaped (cout, 2,
cin/2, kx, ky, kz), cin split into its (U, S) halves; their reshape to
(cout, cin, kx, ky, kz) is the logical weight, and the weight file is
unchanged. Which layer writes which halo is plan data, each such layer's
``pad``, and so is the split: a conv larger than 1x1x1 right after an
upsample with a pad runs in halves. ``forward`` and ``load_weights`` both
read it off the plan.

Every conv but the last feeds an instance norm, which subtracts each
channel's mean and so cancels a per-channel bias; ``forward`` skips those
biases and adds only the final conv's. Weight files still store them all.
"""

import math
import zlib
from dataclasses import dataclass
from struct import Struct

import numpy as np

from ._kernels import center_channels, conv3d_core
from .volume import CLASS_NAMES

Tensor4D = np.ndarray  # (C, X, Y, Z) float32

KINDS = ("conv", "instance_norm", "relu", "max_pool", "upsample", "softmax")
_KIND_TAG = {k: i + 1 for i, k in enumerate(KINDS)}
_TAG_KIND = {v: k for k, v in _KIND_TAG.items()}

INSTANCE_NORM_EPS = 1e-5


class WeightFormatError(ValueError):
    """Weight file does not parse or does not match the network config."""


@dataclass
class NetworkConfig:
    in_channels: int = 1
    base_width: int = 32
    num_stages: int = 6
    kernel_plan: tuple[int, ...] = (3, 3, 3, 3, 1, 1)
    convs_per_stage: int = 2

    def __post_init__(self):
        self.kernel_plan = tuple(int(k) for k in self.kernel_plan)
        if self.in_channels < 1 or self.base_width < 1:
            raise ValueError("in_channels and base_width must be positive")
        if self.num_stages < 2:
            raise ValueError("need at least 2 stages")
        if len(self.kernel_plan) != self.num_stages:
            raise ValueError(
                f"kernel_plan has {len(self.kernel_plan)} entries for {self.num_stages} stages"
            )
        if any(k not in (1, 3) for k in self.kernel_plan):
            raise ValueError("kernel sizes must be 1 or 3")
        if self.convs_per_stage < 1:
            raise ValueError("convs_per_stage must be >= 1")

    def stage_width(self, stage: int) -> int:
        """Channel width at 1-indexed stage ``stage``."""
        return self.base_width * 2 ** (stage - 1)


@dataclass
class Layer:
    kind: str
    kernel: tuple[int, int, int] = (0, 0, 0)
    cin: int = 0
    cout: int = 0
    # conv: (cout, cin, kx, ky, kz), any memory order, or a loaded halved decoder
    # conv's (cout, 2, cin/2, kx, ky, kz) (see the module docstring); norm: gamma (c,)
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None     # conv: (cout,); norm: beta (c,)
    # the zero border of the halo_buffer this layer writes its output into, or None
    # for a plain array; set by layer_plan alone
    pad: tuple[int, int, int] | None = None

    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shapes of (weights, bias) for this layer's kind; () if it has none."""
        if self.kind == "conv":
            return (self.cout, self.cin, *self.kernel), (self.cout,)
        if self.kind == "instance_norm":
            return (self.cout,), (self.cout,)
        return ()

    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes())


@dataclass
class Model:
    config: NetworkConfig
    layers: list[Layer]


def layer_plan(config: NetworkConfig) -> list[Layer]:
    """The network's layers in execution order, without parameter arrays.

    Each layer whose output a conv larger than 1x1x1 reads gets that halo's
    ``pad``: the layer before the conv, and for a decoder conv right after
    an upsample also the encoder ReLU whose skip the matching max pool
    pushed. The network's first conv has no producer and pads its own input.
    """
    plan, skips = [], []

    def block(k, cin, cout):
        if k > 1 and plan:
            plan[-1].pad = (k // 2,) * 3
        plan.append(Layer("conv", (k, k, k), cin, cout))
        plan.append(Layer("instance_norm", cin=cout, cout=cout))
        plan.append(Layer("relu", cin=cout, cout=cout))

    # encoder
    for s in range(1, config.num_stages + 1):
        k = config.kernel_plan[s - 1]
        w = config.stage_width(s)
        cin = config.in_channels if s == 1 else config.stage_width(s - 1)
        for b in range(config.convs_per_stage):
            block(k, cin if b == 0 else w, w)
        if s < config.num_stages:
            skips.append(plan[-1])
            plan.append(Layer("max_pool", (2, 2, 2), w, w))  # pushes its input as a skip
    # decoder
    for s in range(config.num_stages - 1, 0, -1):
        w = config.stage_width(s)
        block(1, 2 * w, w)                               # channel-halving conv block
        up = Layer("upsample", (2, 2, 2), w, w)          # nearest 2x, then pops a skip
        plan.append(up)
        for b in range(config.convs_per_stage):
            block(config.kernel_plan[s - 1], 2 * w if b == 0 else w, w)
        skips.pop().pad = up.pad  # a halved conv reads the skip from a halo too
    plan.append(Layer("conv", (1, 1, 1), config.base_width, len(CLASS_NAMES)))
    plan.append(Layer("softmax", cin=len(CLASS_NAMES), cout=len(CLASS_NAMES)))
    return plan


def build_unet(config: NetworkConfig, init_seed: int = 0) -> Model:
    """Construct the network with He-uniform weights from ``init_seed``."""
    rng = np.random.default_rng(init_seed)
    model = Model(config, layer_plan(config))
    for lay in model.layers:
        if lay.kind == "conv":
            fan_in = lay.kernel[0] * lay.kernel[1] * lay.kernel[2] * lay.cin
            bound = np.float32(np.sqrt(6.0 / fan_in))
            w = rng.random(size=(lay.cout, lay.cin, *lay.kernel), dtype=np.float32)
            w *= 2 * bound
            w -= bound  # uniform in [-bound, bound)
            lay.weights = w
            lay.bias = np.zeros(lay.cout, dtype=np.float32)
        elif lay.kind == "instance_norm":
            lay.weights = np.ones(lay.cout, dtype=np.float32)
            lay.bias = np.zeros(lay.cout, dtype=np.float32)
    return model


def count_parameters(model: Model) -> int:
    return sum(lay.param_count() for lay in model.layers)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def halo_buffer(c: int, dims, pad) -> tuple[Tensor4D, Tensor4D]:
    """A zero-bordered channels-last buffer for a conv's input, and its interior.

    Returns ``(halo, interior)``: ``halo`` has logical shape (c, X + 2px,
    Y + 2py, Z + 2pz), stored (X', Y', Z', c), all zeros, and ``interior``
    is its (c, X, Y, Z) view inside the border.
    """
    (xs, ys, zs), (px, py, pz) = dims, pad
    halo = np.zeros((xs + 2 * px, ys + 2 * py, zs + 2 * pz, c), dtype=np.float32).transpose(3, 0, 1, 2)
    return halo, halo[:, px:px + xs, py:py + ys, pz:pz + zs]


def conv3d(x: Tensor4D, weights: np.ndarray, bias: np.ndarray | None,
           halo: Tensor4D | None = None, out: Tensor4D | None = None) -> Tensor4D:
    """Zero-padded cross-correlation preserving spatial dims.

    A kernel larger than 1x1x1 reads its input from a ``halo_buffer`` of
    the kernel's reach: ``halo`` when given, whose interior ``x`` must be,
    else a new one that ``x`` is copied into. It returns its output
    channels-last (see the module docstring); a 1x1x1 kernel returns it
    channels-first. A ``bias`` of None adds nothing. ``out``, when given, is
    an accumulator in that memory order: the result is added into it, and
    it is returned.
    """
    cout, cin, kx, ky, kz = weights.shape
    if any(k % 2 == 0 for k in (kx, ky, kz)):
        raise ValueError("kernel edges must be odd")
    if x.shape[0] != cin:
        raise ValueError(f"input has {x.shape[0]} channels, weights expect {cin}")
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"bias shape {bias.shape} does not match {cout} output channels")
    if out is not None and out.shape != (cout, *x.shape[1:]):
        raise ValueError(f"accumulator shape {out.shape} does not match the output {(cout, *x.shape[1:])}")
    pad = (kx // 2, ky // 2, kz // 2)
    x = x.astype(np.float32, copy=False)
    if halo is None and any(pad):
        halo, interior = halo_buffer(cin, x.shape[1:], pad)
        interior[...] = x
    if halo is not None:
        expected = (cin, *(d + 2 * p for d, p in zip(x.shape[1:], pad)))
        if halo.shape != expected:
            raise ValueError(f"halo shape {halo.shape} does not match the padded input {expected}")
        x = halo
    out = conv3d_core(x, weights.astype(np.float32, copy=False), out=out)
    if bias is not None:
        out += bias[:, None, None, None]
    return out


def _channel_rows(x: Tensor4D):
    """``x`` as ``center_channels`` rows in its memory order, or None for others.

    Returns the view and ``reps``: channels-first is the (voxels, C)
    transpose, ``reps`` 1; channels-last is (X*Y, Z*C), each row ``reps``
    = Z runs of the C channels.
    """
    c, xs, ys, zs = x.shape
    if x.flags.c_contiguous:
        return x.reshape(c, -1).T, 1
    last = x.transpose(1, 2, 3, 0)
    if last.flags.c_contiguous:
        return last.reshape(xs * ys, zs * c), zs
    return None, None


def instance_norm(x: Tensor4D, gamma: np.ndarray, beta: np.ndarray, out: Tensor4D | None = None) -> Tensor4D:
    """Per-channel standardization over this instance's voxels (eps ``INSTANCE_NORM_EPS``), with affine.

    ``out`` may be ``x`` itself. The statistics come from
    ``_kernels.center_channels``, which writes the float32 residual into
    ``out``; every pass runs over ``x``'s memory in order, channels-first
    or channels-last, and ``out`` keeps that order.
    """
    if out is None:
        out = np.empty_like(x)
    (xm, reps), (om, out_reps) = _channel_rows(x), _channel_rows(out)
    if xm is None or reps != out_reps:
        out[...] = instance_norm(np.ascontiguousarray(x), gamma, beta)
        return out
    rmean, var = center_channels(xm, reps, om)
    inv = gamma / np.sqrt(var + INSTANCE_NORM_EPS)
    om *= np.tile(inv.astype(np.float32), reps)
    om += np.tile((beta - rmean * inv).astype(np.float32), reps)
    return out


def relu(x: Tensor4D, out: Tensor4D | None = None) -> Tensor4D:
    return np.maximum(x, np.float32(0.0), out=out)


def max_pool_2x(x: Tensor4D, out: Tensor4D | None = None) -> Tensor4D:
    """Max over each 2x2x2 block, into ``out`` of any memory order (default: x's)."""
    c, xs, ys, zs = x.shape
    if xs % 2 or ys % 2 or zs % 2:
        raise ValueError(f"spatial dims {(xs, ys, zs)} must be even for 2x pooling")
    x = np.maximum(x[:, 0::2], x[:, 1::2])
    x = np.maximum(x[:, :, 0::2], x[:, :, 1::2])
    return np.maximum(x[:, :, :, 0::2], x[:, :, :, 1::2], out=out)


def nearest_upsample_2x(x: Tensor4D, out: Tensor4D | None = None) -> Tensor4D:
    """Repeat each voxel 2x2x2 into ``out``, of any memory order (default: x's)."""
    c, xs, ys, zs = x.shape
    if out is None:
        out = np.empty_like(x, shape=(c, 2 * xs, 2 * ys, 2 * zs))
    if out.flags.c_contiguous:  # write whole doubled Z rows
        out.reshape(c, xs, 2, ys, 2, 2 * zs)[...] = np.repeat(x, 2, axis=3)[:, :, None, :, None]
    else:  # channels-last: write whole channel runs
        out.reshape(c, xs, 2, ys, 2, zs, 2)[...] = x[:, :, None, :, None, :, None]
    return out


def softmax_channels(x: Tensor4D, out: Tensor4D | None = None) -> Tensor4D:
    """Softmax over the channel axis; ``out`` may be ``x`` itself."""
    e = np.subtract(x, x.max(axis=0, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def _upsample_concat(x: Tensor4D, skip: Tensor4D) -> Tensor4D:
    """[upsampled x, skip] along channels, in the skip's memory order.

    The upsample writes its half in place, so a channels-first ``x`` meets
    a channels-last skip without a transposing copy of the whole result.
    """
    c = x.shape[0]
    out = np.empty_like(skip, shape=(c + skip.shape[0], *skip.shape[1:]))
    nearest_upsample_2x(x, out=out[:c])
    out[c:] = skip
    return out


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def _producer_halo(lay: Layer, dims) -> tuple[Tensor4D | None, Tensor4D | None]:
    """``halo_buffer`` of ``lay``'s output channels at ``lay.pad``, or Nones when it has none."""
    return (None, None) if lay.pad is None else halo_buffer(lay.cout, dims, lay.pad)


def forward(model: Model, x: Tensor4D) -> Tensor4D:
    """Run the network; returns (len(CLASS_NAMES), X, Y, Z) channel probabilities.

    Walks ``model.layers`` in order. The ops are looked up in this module's
    namespace at each call, so a wrapper installed on the module sees them.
    A conv followed by instance norm skips its bias: the norm subtracts each
    channel's mean, which cancels it. Each layer with a ``pad`` writes its
    output into a ``halo_buffer`` of that pad; the conv that reads it gets
    the interior as ``x`` and the buffer as ``halo``. An upsample with a pad
    feeds a decoder conv that runs in halves (see the module docstring); any
    other upsample builds the concat.
    """
    cfg = model.config
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or x.shape[0] != cfg.in_channels:
        raise ValueError(f"input must be ({cfg.in_channels}, X, Y, Z), got {x.shape}")
    divisor = 2 ** (cfg.num_stages - 1)
    if any(d % divisor for d in x.shape[1:]):
        raise ValueError(f"spatial dims {x.shape[1:]} must be divisible by {divisor}")

    layers = model.layers
    skips = []  # (halo or None, skip), innermost last
    halo = out = skip = None
    for i, lay in enumerate(layers):
        if lay.kind == "conv":
            normed = i + 1 < len(layers) and layers[i + 1].kind == "instance_norm"
            bias = None if normed else lay.bias
            if skip is None:
                x = conv3d(x, lay.weights, bias, halo=halo)
            else:
                halves = lay.weights.reshape(lay.cout, 2, lay.cin // 2, *lay.kernel)  # (U, S) along cin
                acc = conv3d(skip, halves[:, 1], bias, halo=halo)
                skip = halo = None  # the skip's last reader is done
                halo, out = _producer_halo(layers[i - 1], acc.shape[1:])
                x = nearest_upsample_2x(x, out=out)
                x = conv3d(x, halves[:, 0], None, halo=halo, out=acc)
                acc = None  # x holds the sum
            halo = out = None  # the input buffer's last reader is done
        elif lay.kind == "instance_norm":
            x = instance_norm(x, lay.weights, lay.bias, out=x)  # always a conv's fresh output
        elif lay.kind == "relu":
            halo, out = _producer_halo(lay, x.shape[1:])
            x = relu(x, out=x if out is None else out)
        elif lay.kind == "max_pool":
            skips.append((halo, x))
            halo, out = _producer_halo(lay, [d // 2 for d in x.shape[1:]])
            x = max_pool_2x(x, out=out)
        elif lay.kind == "upsample":
            halo, skip = skips.pop()
            if lay.pad is None:  # a 1x1x1 conv reads the concat
                x, skip = _upsample_concat(x, skip), None
        elif lay.kind == "softmax":
            x = softmax_channels(x, out=x)
    return x


# ---------------------------------------------------------------------------
# weight files: magic "VSKW1", then one little-endian record per layer
# (kind u8, kernel 3x u32, cin u32, cout u32, payload bytes u64, float32
# payload), then a u32 CRC32 over all payload bytes.
# ---------------------------------------------------------------------------

_MAGIC = b"VSKW1"
_REC = Struct("<B3IIIQ")  # kind, kernel x3, cin, cout, payload bytes


def _payload(lay: Layer) -> bytes:
    parts = []
    if lay.weights is not None:
        parts.append(lay.weights.astype("<f4").tobytes())
    if lay.bias is not None:
        parts.append(lay.bias.astype("<f4").tobytes())
    return b"".join(parts)


def save_weights(model: Model, path) -> None:
    crc = 0
    with open(path, "wb") as f:
        f.write(_MAGIC)
        for lay in model.layers:
            payload = _payload(lay)
            f.write(_REC.pack(_KIND_TAG[lay.kind], *lay.kernel, lay.cin, lay.cout, len(payload)))
            f.write(payload)
            crc = zlib.crc32(payload, crc)
        f.write(crc.to_bytes(4, "little"))


def load_weights(path, config: NetworkConfig) -> Model:
    """Load a weight file, validating every record against ``config``."""
    model = Model(config, layer_plan(config))
    crc = 0
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise WeightFormatError(f"{path}: missing {_MAGIC!r} magic")
        for i, lay in enumerate(model.layers):
            header = f.read(_REC.size)
            if len(header) < _REC.size:
                raise WeightFormatError(f"{path}: layer {i} truncated (record header)")
            tag, kx, ky, kz, cin, cout, nbytes = _REC.unpack(header)
            kind = _TAG_KIND.get(tag)
            shapes = lay.param_shapes()
            expected = (lay.kind, lay.kernel, lay.cin, lay.cout, 4 * lay.param_count())
            if (kind, (kx, ky, kz), cin, cout, nbytes) != expected:
                raise WeightFormatError(
                    f"{path}: layer {i} mismatch: file has kind={kind} kernel={(kx, ky, kz)} "
                    f"cin={cin} cout={cout} bytes={nbytes}, config expects kind={expected[0]} "
                    f"kernel={expected[1]} cin={expected[2]} cout={expected[3]} bytes={expected[4]}"
                )
            payload = f.read(nbytes)
            if len(payload) < nbytes:
                raise WeightFormatError(f"{path}: layer {i} truncated (payload)")
            crc = zlib.crc32(payload, crc)
            if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
                raise WeightFormatError(f"{path}: layer {i} has NaN or Inf values")
            if shapes:
                n = math.prod(shapes[0])
                values = np.frombuffer(payload, dtype="<f4", count=n)
                if lay.kind == "conv" and lay.kernel != (1, 1, 1):
                    # memory order (halves, kx, kz, cin / halves, ky, cout): each
                    # half's GEMM operand is contiguous
                    prev = model.layers[i - 1]  # the first conv (i = 0) has no producer
                    halves = 2 if i > 0 and prev.kind == "upsample" and prev.pad else 1
                    part = lay.cin // halves
                    values = values.reshape(cout, halves, part, kx, ky, kz).transpose(1, 3, 5, 2, 4, 0)
                    stored = np.empty(values.shape, dtype=np.float32)
                    # 16 input channels at a time keeps the strided reads in cache:
                    # half the time of one whole copy for the largest kernels
                    for c0 in range(0, part, 16):
                        stored[:, :, :, c0:c0 + 16] = values[:, :, :, c0:c0 + 16]
                    # (cout, 2, cin / 2, kx, ky, kz) for a split conv, else (cout, cin, kx, ky, kz)
                    lay.weights = stored.transpose(5, 0, 3, 1, 4, 2)
                    if halves == 1:
                        lay.weights = lay.weights[:, 0]
                else:
                    lay.weights = values.astype(np.float32).reshape(shapes[0])
                # an own copy: a view would keep the whole payload alive
                lay.bias = np.frombuffer(payload, dtype="<f4", offset=4 * n).astype(np.float32)
        stored = f.read(4)
        if len(stored) < 4:
            raise WeightFormatError(f"{path}: missing CRC32 trailer")
        if int.from_bytes(stored, "little") != crc:
            raise WeightFormatError(f"{path}: CRC32 mismatch, file is corrupt")
    return model
