"""Minimal NIfTI-1 reader/writer for single-file .nii / .nii.gz volumes.

Only what the pipeline needs: scalar integer/float datatypes, dims and
pixdim from the header, optional gzip. Spacing is read in millimetres:
pixdim is scaled by the spatial unit code of ``xyzt_units`` (metre,
millimetre or micron; 0, unknown, reads as millimetres), and any other
code is refused. Writes use millimetres. Orientation fields (qform/sform)
are written for interoperability but never applied on read. Masks are
written as uint8, volumes as float32; a write/read round trip is
bit-exact. Reads scale by ``scl_slope``/``scl_inter`` unless the slope is 0
(NIfTI-1: no scaling) or the pair is (1, 0); as in ``nifti1_io.c``, a NaN or
infinite slope or intercept reads as 0. :class:`LabelMask` checks mask
labels on the stored dtype; a mask read reports its error naming the file.
One parser reads a header into a :class:`NiftiHeader`; ``read_nifti_header``
stops there, and ``read_nifti`` goes on to read its payload from the same file.
``write_nifti`` is the one writer: it renames a complete temp file over the
path a symlink resolves to, so no failed or concurrent write leaves a partial
file, and it refuses a target that is not a regular file.
"""

import gzip
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .volume import LabelMask, Volume3D


class NiftiFormatError(ValueError):
    """Malformed or non-NIfTI-1 file content."""


class NiftiUnsupportedError(ValueError):
    """Valid NIfTI-1 header with a datatype this toolkit does not handle."""


_HEADER = np.dtype([
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
])
assert _HEADER.itemsize == 348

_DTYPES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
    768: np.uint32,
    1024: np.int64,
    1280: np.uint64,
}
_UINT8_CODE = 2
_FLOAT32_CODE = 16

# millimetres per unit of each spatial unit code (xyzt_units & 7)
_MM_PER_UNIT = {0: 1.0, 1: 1000.0, 2: 1.0, 3: 0.001}

# zlib level of .nii.gz writes. On a 128x128x32 label map level 6 writes in
# a tenth of level 9's time for a 20% larger file; level 1 is faster still
# but nearly doubles the file.
GZIP_LEVEL = 6


@contextmanager
def _open(path, mode):
    try:
        with open(path, mode) as raw:
            if str(path).endswith(".gz"):
                # no file name and mtime 0, so the bytes depend only on the content
                with gzip.GzipFile(filename="", fileobj=raw, mode=mode, compresslevel=GZIP_LEVEL, mtime=0) as f:
                    yield f
            else:
                yield raw
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise NiftiFormatError(f"{path}: corrupt gzip stream: {exc}") from exc


# deflate expands at most 1032:1, which bounds what a .nii.gz can hold
_DEFLATE_MAX_RATIO = 1032


@dataclass(frozen=True)
class NiftiHeader:
    """What a NIfTI-1 header says about its image and what reading its payload takes."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]  # mm
    channels: int
    dtype: np.dtype  # the stored dtype, in the file's byte order
    offset: int  # of the payload, in the (decompressed) stream
    payload_bytes: int
    slope: float  # scl_slope and scl_inter, a non-finite value read as 0
    inter: float

    @property
    def grid(self):  # as volume.same_grid compares it
        return self.dims, self.spacing


def _parse_header(f, path) -> NiftiHeader:
    raw = f.read(_HEADER.itemsize)
    if len(raw) < _HEADER.itemsize:
        raise IOError(f"{path}: file shorter than a NIfTI-1 header")
    byteorder = "="
    hdr = np.frombuffer(raw, dtype=_HEADER)[0]
    if hdr["sizeof_hdr"] != 348:
        byteorder = "S"
        hdr = np.frombuffer(raw, dtype=_HEADER.newbyteorder())[0]
        if hdr["sizeof_hdr"] != 348:
            raise NiftiFormatError(f"{path}: header size field is not 348")
    magic = bytes(hdr["magic"]).rstrip(b"\x00")
    if magic != b"n+1":
        raise NiftiFormatError(f"{path}: bad magic {magic!r}, expected single-file NIfTI-1")

    code = int(hdr["datatype"])
    if code not in _DTYPES:
        raise NiftiUnsupportedError(f"{path}: unsupported datatype code {code}")
    dtype = np.dtype(_DTYPES[code]).newbyteorder(byteorder)

    ndim = int(hdr["dim"][0])
    if ndim == 3:
        channels = 1
    elif ndim == 4:
        channels = max(int(hdr["dim"][4]), 1)
    else:
        raise NiftiFormatError(f"{path}: only 3-D or 4-D images are supported, got dim[0]={ndim}")
    dims = tuple(int(d) for d in hdr["dim"][1:4])
    if min(dims) < 1:
        raise NiftiFormatError(f"{path}: non-positive dims {dims}")
    units = int(hdr["xyzt_units"]) & 7
    if units not in _MM_PER_UNIT:
        raise NiftiFormatError(f"{path}: unsupported spatial unit code {units} in xyzt_units "
                               "(expected 0 unknown, 1 metre, 2 mm or 3 micron)")
    # pixdim is float32, so the spacing is rounded to the float32 an mm header would hold
    with np.errstate(over="ignore"):
        spacing = tuple(float(np.float32(abs(float(p)) * _MM_PER_UNIT[units])) for p in hdr["pixdim"][1:4])
    if not all(math.isfinite(p) and p > 0 for p in spacing):
        raise NiftiFormatError(f"{path}: non-positive or non-finite pixdim {spacing}")
    vox_offset = float(hdr["vox_offset"])
    if not math.isfinite(vox_offset):
        raise NiftiFormatError(f"{path}: non-finite vox_offset {vox_offset}")

    offset = max(int(vox_offset), _HEADER.itemsize)
    n_bytes = channels * dims[0] * dims[1] * dims[2] * dtype.itemsize
    # a header whose payload cannot fit in the file is refused before reading
    size = os.fstat(f.fileno()).st_size
    capacity = size * _DEFLATE_MAX_RATIO if isinstance(f, gzip.GzipFile) else size
    if offset + n_bytes > capacity:
        raise IOError(f"{path}: truncated payload, header needs {offset + n_bytes} bytes, "
                      f"the file holds at most {capacity}")
    slope, inter = (v if math.isfinite(v) else 0.0 for v in map(float, (hdr["scl_slope"], hdr["scl_inter"])))
    return NiftiHeader(dims, spacing, channels, dtype, offset, n_bytes, slope, inter)


def read_nifti_header(path) -> NiftiHeader:
    """A NIfTI-1 file's header, refused as ``read_nifti`` refuses it, without reading the payload."""
    with _open(path, "rb") as f:
        return _parse_header(f, path)


def read_nifti(path, as_mask: bool = False):
    """Read a NIfTI-1 file as a :class:`Volume3D` (or :class:`LabelMask`).

    Args:
        path: .nii or .nii.gz file.
        as_mask: load a one-channel integer-typed file with the labels of
            ``volume.CLASS_NAMES`` as a LabelMask instead of a float volume.

    A malformed file raises :class:`NiftiFormatError`,
    :class:`NiftiUnsupportedError` or ``IOError`` naming ``path``.
    """
    with _open(path, "rb") as f:
        header = _parse_header(f, path)
        f.seek(header.offset)
        payload = f.read(header.payload_bytes)
    if len(payload) < header.payload_bytes:
        raise IOError(f"{path}: truncated payload, expected {header.payload_bytes} bytes, got {len(payload)}")

    # disk order is x-fastest; bring to (C, X, Y, Z)
    arr = np.frombuffer(payload, dtype=header.dtype).reshape((header.channels,) + header.dims[::-1])
    arr = np.ascontiguousarray(arr.transpose(0, 3, 2, 1))

    if header.slope != 0.0 and (header.slope, header.inter) != (1.0, 0.0):
        arr = arr * header.slope + header.inter

    if as_mask:
        if header.channels != 1:
            raise NiftiFormatError(f"{path}: cannot load a {header.channels}-channel image as a mask")
        try:
            return LabelMask(arr[0], header.spacing)
        except ValueError as exc:
            raise NiftiFormatError(f"{path}: {exc}") from exc

    return Volume3D(np.ascontiguousarray(arr, dtype=np.float32), header.spacing)


def write_nifti(obj, path) -> None:
    """Write a Volume3D (float32) or LabelMask (uint8) as NIfTI-1, atomically.

    The file is written to a unique temp file beside ``os.path.realpath(path)``
    and renamed over it, so a symlink is written through and stays a link, a
    failed write leaves neither a partial file nor the temp file, and of
    concurrent writes to one path the last rename wins with a complete file.
    The temp file is created exclusively with mode 0o666, so the umask applies
    as it does to a plain ``open()``. A ``.gz`` path is gzip-compressed. A
    target that exists and is not a regular file (a FIFO, a device or a
    directory) raises ``IOError`` naming ``path`` before anything is written.
    """
    if isinstance(obj, LabelMask):
        data = obj.labels[None].astype(np.uint8)
        code = _UINT8_CODE
        spacing = obj.spacing
    elif isinstance(obj, Volume3D):
        data = obj.data.astype(np.float32)
        code = _FLOAT32_CODE
        spacing = obj.spacing
    else:
        raise TypeError(f"expected Volume3D or LabelMask, got {type(obj).__name__}")

    channels = data.shape[0]
    dims = data.shape[1:]
    hdr = np.zeros((), dtype=_HEADER)
    hdr["sizeof_hdr"] = 348
    hdr["dim"][0] = 3 if channels == 1 else 4
    hdr["dim"][1:4] = dims
    hdr["dim"][4] = channels if channels > 1 else 1
    hdr["dim"][5:] = 1
    hdr["datatype"] = code
    hdr["bitpix"] = np.dtype(_DTYPES[code]).itemsize * 8
    hdr["pixdim"][0] = 1.0
    hdr["pixdim"][1:4] = spacing
    hdr["vox_offset"] = 352.0
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # mm
    hdr["descrip"] = b"volseg"
    hdr["sform_code"] = 1
    hdr["srow_x"] = (spacing[0], 0, 0, 0)
    hdr["srow_y"] = (0, spacing[1], 0, 0)
    hdr["srow_z"] = (0, 0, spacing[2], 0)
    hdr["magic"] = b"n+1"

    payload = data.transpose(0, 3, 2, 1).tobytes()
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise IOError(f"{path}: not a regular file, refusing to replace it")
    # the temp name's length does not grow with the target's, so a long target name still fits
    suffix = ".gz" if str(path).endswith(".gz") else ""
    tmp = os.path.join(os.path.dirname(target), f".tmp-{os.urandom(8).hex()}{suffix}")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        with _open(tmp, "wb") as f:
            f.write(hdr.tobytes())
            f.write(b"\x00" * 4)  # pad header to vox_offset 352
            f.write(payload)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
