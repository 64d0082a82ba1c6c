"""Seeded synthetic inputs for the benchmark, written without the program.

Scans are smooth and anatomy-like: a soft body ellipsoid, a dozen organ
blobs, a few bright lesions, a low-order multiplicative bias field and
mild noise. The label masks are the lesion ellipsoids. Smooth content
keeps gzip, resampling and argmax doing the work they do on real scans;
i.i.d. noise would make them do far more.

The NIfTI-1 and VSKW1 writers here are independent of ``volseg`` so the
inputs stay byte-identical when the program's own writers change.
"""

import gzip
import struct
import zlib

import numpy as np

# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def _axis_coords(dims):
    return [np.linspace(0.0, 1.0, n).reshape([n if i == a else 1 for i in range(3)])
            for a, n in enumerate(dims)]


def _ellipsoid_r2(coords, center, radii):
    """Squared normalized radius of an axis-aligned ellipsoid on the grid."""
    return sum(((c - c0) / r) ** 2 for c, c0, r in zip(coords, center, radii))


def random_lesions(rng, count, label):
    """(label, center, radii) tuples inside the unit cube."""
    return [(label, tuple(rng.uniform(0.25, 0.75, 3)), tuple(rng.uniform(0.05, 0.12, 3)))
            for _ in range(count)]


def render_labels(dims, lesions):
    coords = _axis_coords(dims)
    labels = np.zeros(dims, dtype=np.uint8)
    for label, center, radii in lesions:
        labels[_ellipsoid_r2(coords, center, radii) < 1.0] = label
    return labels


def smooth_scan(rng, dims, lesions, lesion_gain=60.0):
    """Float32 scan: body, organ blobs, lesions, bias field, mild noise."""
    coords = _axis_coords(dims)
    body = 1.0 / (1.0 + np.exp((_ellipsoid_r2(coords, (0.5, 0.5, 0.5), (0.45, 0.4, 0.6)) - 1.0) * 8.0))
    data = 40.0 * body
    for _ in range(12):
        center = rng.uniform(0.2, 0.8, 3)
        radii = rng.uniform(0.06, 0.2, 3)
        data += rng.uniform(-25.0, 35.0) * np.exp(-0.5 * _ellipsoid_r2(coords, center, radii)) * body
    for _, center, radii in lesions:
        data += lesion_gain * np.exp(-0.5 * _ellipsoid_r2(coords, center, radii) ** 2)
    cx, cy, cz = (c - 0.5 for c in coords)
    a = rng.uniform(-0.15, 0.15, 6)
    bias = 1.0 + a[0] * cx + a[1] * cy + a[2] * cz + a[3] * cx * cy + a[4] * cx**2 + a[5] * cz**2
    data = data * bias + rng.normal(0.0, 1.5, dims)
    return data.astype(np.float32)


# ---------------------------------------------------------------------------
# NIfTI-1 (single file, x-fastest payload at byte 352)
# ---------------------------------------------------------------------------

_NIFTI_CODES = {np.dtype(np.uint8): 2, np.dtype(np.float32): 16}


def write_nifti(path, array, spacing):
    array = np.asarray(array)
    code = _NIFTI_CODES[array.dtype]
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *array.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, code, array.dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<3f", hdr, 108, 352.0, 1.0, 0.0)  # vox_offset, scl_slope, scl_inter
    hdr[123] = 2  # mm
    struct.pack_into("<h", hdr, 254, 1)  # sform_code
    for axis in range(3):  # srow_x, srow_y, srow_z = diag(spacing), zero origin
        srow = [0.0, 0.0, 0.0, 0.0]
        srow[axis] = spacing[axis]
        struct.pack_into("<4f", hdr, 280 + 16 * axis, *srow)
    hdr[344:348] = b"n+1\x00"
    payload = array.transpose(2, 1, 0).astype(array.dtype.newbyteorder("<")).tobytes()
    if path.endswith(".gz"):
        f = gzip.GzipFile(path, "wb", compresslevel=6, mtime=0)
    else:
        f = open(path, "wb")
    with f:
        f.write(bytes(hdr))
        f.write(payload)


def read_nifti(path):
    """(array (X, Y, Z), spacing) of a 3-D single-file NIfTI-1 image."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as f:
        raw = f.read()
    if len(raw) < 348 or struct.unpack_from("<i", raw, 0)[0] != 348:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", raw, 40)
    code = struct.unpack_from("<h", raw, 70)[0]
    pixdim = struct.unpack_from("<8f", raw, 76)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    dtype = {code: dt for dt, code in _NIFTI_CODES.items()}.get(code)
    if dim[0] != 3 or dtype is None:
        raise ValueError(f"{path}: expected a 3-D uint8 or float32 image, got dim={dim} code={code}")
    dims = dim[1:4]
    count = dims[0] * dims[1] * dims[2]
    data = np.frombuffer(raw, dtype=dtype.newbyteorder("<"), count=count, offset=offset)
    return data.reshape(dims[::-1]).transpose(2, 1, 0), tuple(abs(p) for p in pixdim[1:4])


# ---------------------------------------------------------------------------
# U-Net layer plan and VSKW1 weight files
# ---------------------------------------------------------------------------

KIND_TAG = {"conv": 1, "instance_norm": 2, "relu": 3, "max_pool": 4, "upsample": 5, "softmax": 6}


def layer_plan(net):
    """(kind, kernel, cin, cout) in execution order for a U-Net config dict."""
    stages, plan, per_stage = net["num_stages"], net["kernel_plan"], net["convs_per_stage"]
    width = [net["base_width"] * 2 ** s for s in range(stages)]
    specs = []

    def block(k, cin, cout):
        specs.extend([("conv", (k,) * 3, cin, cout), ("instance_norm", (0,) * 3, cout, cout),
                      ("relu", (0,) * 3, cout, cout)])

    for s in range(stages):
        for b in range(per_stage):
            block(plan[s], (net["in_channels"] if s == 0 else width[s - 1]) if b == 0 else width[s], width[s])
        if s < stages - 1:
            specs.append(("max_pool", (2,) * 3, width[s], width[s]))
    for s in range(stages - 2, -1, -1):
        block(1, 2 * width[s], width[s])
        specs.append(("upsample", (2,) * 3, width[s], width[s]))
        for b in range(per_stage):
            block(plan[s], 2 * width[s] if b == 0 else width[s], width[s])
    specs.append(("conv", (1, 1, 1), width[0], net["num_classes"]))
    specs.append(("softmax", (0,) * 3, net["num_classes"], net["num_classes"]))
    return specs


def unet_layers(net, key):
    """Yield (kind, kernel, cin, cout, weights, bias); deterministic per ``key``.

    Conv weights are He-uniform; biases and the norm affine are small
    random values so every parameter of the file format is exercised.
    """
    rng = np.random.default_rng(key)
    for kind, kernel, cin, cout in layer_plan(net):
        weights = bias = None
        if kind == "conv":
            bound = np.sqrt(6.0 / (cin * kernel[0] * kernel[1] * kernel[2]))
            weights = rng.uniform(-bound, bound, (cout, cin, *kernel)).astype(np.float32)
            bias = rng.uniform(-0.05, 0.05, cout).astype(np.float32)
        elif kind == "instance_norm":
            weights = rng.uniform(0.8, 1.2, cout).astype(np.float32)
            bias = rng.uniform(-0.1, 0.1, cout).astype(np.float32)
        yield kind, kernel, cin, cout, weights, bias


def write_weights(path, net, key):
    """Stream a VSKW1 file: magic, one record per layer, CRC32 of payloads."""
    crc = 0
    with open(path, "wb") as f:
        f.write(b"VSKW1")
        for kind, kernel, cin, cout, weights, bias in unet_layers(net, key):
            payload = b"".join(a.astype("<f4").tobytes() for a in (weights, bias) if a is not None)
            f.write(struct.pack("<B3IIIQ", KIND_TAG[kind], *kernel, cin, cout, len(payload)))
            f.write(payload)
            crc = zlib.crc32(payload, crc)
        f.write(crc.to_bytes(4, "little"))
