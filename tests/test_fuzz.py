"""Truncated and garbled input files fail with the toolkit's own errors.

Every corrupt NIfTI (.nii or .nii.gz) or weight file must either load or
raise NiftiFormatError, NiftiUnsupportedError, WeightFormatError or
IOError, never a bare gzip, zlib, numpy or struct error. The files are
small, and the readers refuse a header whose payload cannot fit in the
file, so no example reads more than a few hundred kilobytes.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from volseg.network import NetworkConfig, WeightFormatError, build_unet, load_weights, save_weights  # noqa: E402
from volseg.nifti import (  # noqa: E402
    _HEADER,
    NiftiFormatError,
    NiftiUnsupportedError,
    _open,
    read_nifti,
    read_nifti_header,
    write_nifti,
)
from volseg.volume import LabelMask, Volume3D  # noqa: E402

NIFTI_ERRORS = (NiftiFormatError, NiftiUnsupportedError, IOError)
WEIGHT_ERRORS = (WeightFormatError, IOError)
TOY_NET = NetworkConfig(in_channels=1, base_width=2, num_stages=2, kernel_plan=(3, 3))

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _nifti_bytes(tmp_path, name, as_mask):
    rng = np.random.default_rng(0)
    if as_mask:
        obj = LabelMask(rng.integers(0, 3, size=(4, 3, 2)).astype(np.uint8), (1.0, 1.5, 2.0))
    else:
        obj = Volume3D(rng.normal(size=(2, 4, 3, 2)).astype(np.float32), (1.0, 1.5, 2.0))
    path = tmp_path / name
    write_nifti(obj, path)
    return path.read_bytes()


def _weight_bytes(tmp_path):
    path = tmp_path / "toy.vskw"
    save_weights(build_unet(TOY_NET, init_seed=0), path)
    return path.read_bytes()


@st.composite
def damage(draw, raw):
    """A truncated copy of ``raw``, or one with up to eight bytes replaced."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 8))):
        out[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


# each reader with the bytes it is given: a volume, a mask, and a volume's header alone
READERS = {
    "volume": (False, read_nifti),
    "mask": (True, lambda path: read_nifti(path, as_mask=True)),
    "header": (False, read_nifti_header),
}


@pytest.mark.parametrize("name", ["scan.nii", "scan.nii.gz"])
@pytest.mark.parametrize("reader", list(READERS))
@FUZZ
@given(data=st.data())
def test_damaged_nifti_raises_only_format_errors(tmp_path, name, reader, data):
    as_mask, read = READERS[reader]
    raw = _nifti_bytes(tmp_path, name, as_mask)
    path = tmp_path / f"damaged-{name}"
    path.write_bytes(data.draw(damage(raw)))
    try:
        read(path)
    except NIFTI_ERRORS as exc:
        assert str(path) in str(exc)


@FUZZ
@given(data=st.data())
def test_damaged_weights_raise_only_weight_errors(tmp_path, data):
    path = tmp_path / "damaged.vskw"
    path.write_bytes(data.draw(damage(_weight_bytes(tmp_path))))
    try:
        load_weights(path, TOY_NET)
    except WEIGHT_ERRORS as exc:
        assert str(path) in str(exc)


def test_gzip_header_claiming_a_huge_payload_is_refused_before_reading(tmp_path):
    # dims of 32767^3 float32 in a file of a few hundred bytes
    path = tmp_path / "huge.nii.gz"
    hdr = np.zeros((), dtype=_HEADER)
    hdr["sizeof_hdr"] = 348
    hdr["dim"][:4] = (3, 32767, 32767, 32767)
    hdr["datatype"] = 16
    hdr["pixdim"][1:4] = 1.0
    hdr["vox_offset"] = 352.0
    hdr["magic"] = b"n+1"
    with _open(path, "wb") as f:
        f.write(hdr.tobytes() + b"\x00" * 4)
    with pytest.raises(IOError, match="truncated payload"):
        read_nifti(path)
