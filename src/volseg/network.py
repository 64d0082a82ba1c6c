"""3D U-Net: layer plan, construction, forward pass, parameter counts, weight files.

Tensors are plain numpy float32 arrays shaped (C, X, Y, Z). The encoder
has ``num_stages`` stages of conv blocks (conv -> instance norm -> ReLU)
with 2x2x2 max pooling in between, doubling the channel width each stage.
The decoder mirrors it: a 1x1x1 conv block halves the channels, nearest
2x interpolation doubles the spatial size, the matching encoder stage
output is concatenated, and the stage's conv blocks follow. A final 1x1x1
conv plus channel softmax produces the class probabilities. Stage kernel
sizes come from ``kernel_plan``; with the default plan (3,3,3,3,1,1) the
1x1x1 kernels in stages 5-6 cut the parameter count from about 86M to
about 14M.

``layer_plan`` is the one description of this structure: the layers in
execution order, without parameters. ``build_unet`` and ``load_weights``
fill in the parameters, ``volseg net-info`` counts them from the plan's
shapes, and ``forward`` interprets the list one layer at a time. Skips are
a stack: each max pool pushes its input, and each upsample pops the
innermost skip and concatenates it after the upsampled features.
"""

import math
import zlib
from dataclasses import dataclass
from struct import Struct

import numpy as np

from ._kernels import conv3d_core

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
    num_classes: int = 3
    base_width: int = 32
    num_stages: int = 6
    kernel_plan: tuple[int, ...] = (3, 3, 3, 3, 1, 1)
    convs_per_stage: int = 2

    def __post_init__(self):
        self.kernel_plan = tuple(int(k) for k in self.kernel_plan)
        if self.in_channels < 1 or self.num_classes < 2 or self.base_width < 1:
            raise ValueError("in_channels, num_classes and base_width must be positive")
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
    weights: np.ndarray | None = None  # conv: (cout, cin, kx, ky, kz); norm: gamma (c,)
    bias: np.ndarray | None = None     # conv: (cout,); norm: beta (c,)

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
    """The network's layers in execution order, without parameter arrays."""
    plan = []

    def block(k, cin, cout):
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
            plan.append(Layer("max_pool", (2, 2, 2), w, w))  # pushes its input as a skip
    # decoder
    for s in range(config.num_stages - 1, 0, -1):
        w = config.stage_width(s)
        block(1, 2 * w, w)                               # channel-halving conv block
        plan.append(Layer("upsample", (2, 2, 2), w, w))  # nearest 2x, then pops a skip
        for b in range(config.convs_per_stage):
            block(config.kernel_plan[s - 1], 2 * w if b == 0 else w, w)
    plan.append(Layer("conv", (1, 1, 1), config.base_width, config.num_classes))
    plan.append(Layer("softmax", cin=config.num_classes, cout=config.num_classes))
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

def conv3d(x: Tensor4D, weights: np.ndarray, bias: np.ndarray) -> Tensor4D:
    """Zero-padded cross-correlation preserving spatial dims."""
    cout, cin, kx, ky, kz = weights.shape
    if any(k % 2 == 0 for k in (kx, ky, kz)):
        raise ValueError("kernel edges must be odd")
    if x.shape[0] != cin:
        raise ValueError(f"input has {x.shape[0]} channels, weights expect {cin}")
    if bias.shape != (cout,):
        raise ValueError(f"bias shape {bias.shape} does not match {cout} output channels")
    px, py, pz = kx // 2, ky // 2, kz // 2
    x = x.astype(np.float32, copy=False)
    if px or py or pz:  # a zero-width np.pad still copies
        x = np.pad(x, ((0, 0), (px, px), (py, py), (pz, pz)))
    out = conv3d_core(x, weights.astype(np.float32, copy=False))
    out += bias[:, None, None, None]
    return out


def instance_norm(x: Tensor4D, gamma: np.ndarray, beta: np.ndarray,
                  eps: float = INSTANCE_NORM_EPS, out: Tensor4D | None = None) -> Tensor4D:
    """Per-channel standardization over this instance's voxels, with affine.

    ``out`` may be ``x`` itself. The float32 residual ``x - mean`` is
    written into ``out`` and its statistics are summed in float64, so a
    channel far from zero keeps its precision and no float64 array of
    the activation's size is made.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = x[0].size
    mean = np.einsum("cxyz->c", x, dtype=np.float64) / n
    if out is None:
        out = np.empty_like(x)
    np.subtract(x, mean.astype(np.float32)[:, None, None, None], out=out)
    # residual mean left by rounding ``mean`` to float32, and the variance
    rmean = np.einsum("cxyz->c", out, dtype=np.float64) / n
    var = np.einsum("cxyz,cxyz->c", out, out, dtype=np.float64) / n - rmean * rmean
    inv = gamma / np.sqrt(var + eps)
    out *= inv.astype(np.float32)[:, None, None, None]
    out += (beta - rmean * inv).astype(np.float32)[:, None, None, None]
    return out


def relu(x: Tensor4D, out: Tensor4D | None = None) -> Tensor4D:
    return np.maximum(x, np.float32(0.0), out=out)


def max_pool_2x(x: Tensor4D) -> Tensor4D:
    c, xs, ys, zs = x.shape
    if xs % 2 or ys % 2 or zs % 2:
        raise ValueError(f"spatial dims {(xs, ys, zs)} must be even for 2x pooling")
    x = np.maximum(x[:, 0::2], x[:, 1::2])
    x = np.maximum(x[:, :, 0::2], x[:, :, 1::2])
    return np.maximum(x[:, :, :, 0::2], x[:, :, :, 1::2])


def nearest_upsample_2x(x: Tensor4D) -> Tensor4D:
    return np.repeat(np.repeat(np.repeat(x, 2, axis=1), 2, axis=2), 2, axis=3)


def softmax_channels(x: Tensor4D, out: Tensor4D | None = None) -> Tensor4D:
    """Softmax over the channel axis; ``out`` may be ``x`` itself."""
    e = np.subtract(x, x.max(axis=0, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def forward(model: Model, x: Tensor4D) -> Tensor4D:
    """Run the network; returns (num_classes, X, Y, Z) channel probabilities.

    Walks ``model.layers`` in order. The ops are looked up in this module's
    namespace at each call, so a wrapper installed on the module sees them.
    """
    cfg = model.config
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or x.shape[0] != cfg.in_channels:
        raise ValueError(f"input must be ({cfg.in_channels}, X, Y, Z), got {x.shape}")
    divisor = 2 ** (cfg.num_stages - 1)
    if any(d % divisor for d in x.shape[1:]):
        raise ValueError(f"spatial dims {x.shape[1:]} must be divisible by {divisor}")

    skips = []
    for lay in model.layers:
        if lay.kind == "conv":
            x = conv3d(x, lay.weights, lay.bias)
        elif lay.kind == "instance_norm":
            x = instance_norm(x, lay.weights, lay.bias, out=x)  # always a conv's fresh output
        elif lay.kind == "relu":
            x = relu(x, out=x)
        elif lay.kind == "max_pool":
            skips.append(x)
            x = max_pool_2x(x)
        elif lay.kind == "upsample":
            x = np.concatenate([nearest_upsample_2x(x), skips.pop()], axis=0)
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
            if shapes:
                values = np.frombuffer(payload, dtype="<f4").astype(np.float32)
                n = math.prod(shapes[0])
                lay.weights = values[:n].reshape(shapes[0])
                lay.bias = values[n:]
        stored = f.read(4)
        if len(stored) < 4:
            raise WeightFormatError(f"{path}: missing CRC32 trailer")
        if int.from_bytes(stored, "little") != crc:
            raise WeightFormatError(f"{path}: CRC32 mismatch, file is corrupt")
    return model
