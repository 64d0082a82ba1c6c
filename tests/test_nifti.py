import gzip
import os
import stat
import sys
import threading
import zlib

import numpy as np
import pytest

from volseg.nifti import (
    _HEADER,
    GZIP_LEVEL,
    NiftiFormatError,
    NiftiUnsupportedError,
    NiftiHeader,
    read_nifti,
    read_nifti_header,
    write_nifti,
)
from volseg.volume import LabelMask, Volume3D


def make_volume(rng, dims=(4, 4, 4), channels=1, spacing=(1.0, 1.0, 1.0)):
    return Volume3D(rng.normal(size=(channels, *dims)).astype(np.float32), spacing)


def write_raw(path, datatype_code, np_dtype, dims, data, magic=b"n+1", pixdim=(1.0, 1.0, 1.0)):
    """Hand-build a minimal single-file NIfTI-1 for reader tests."""
    hdr = np.zeros((), dtype=_HEADER)
    hdr["sizeof_hdr"] = 348
    hdr["dim"][0] = 3
    hdr["dim"][1:4] = dims
    hdr["dim"][4:] = 1
    hdr["datatype"] = datatype_code
    hdr["bitpix"] = np.dtype(np_dtype).itemsize * 8
    hdr["pixdim"][1:4] = pixdim
    hdr["vox_offset"] = 352.0
    hdr["magic"] = magic
    with open(path, "wb") as f:
        f.write(hdr.tobytes())
        f.write(b"\x00" * 4)
        f.write(np.asarray(data, np_dtype).transpose(2, 1, 0).tobytes())


def patch_header(path, **fields):
    """Rewrite header fields of an uncompressed .nii in place."""
    raw = bytearray(path.read_bytes())
    hdr = np.frombuffer(bytes(raw[:348]), dtype=_HEADER).copy()[0]
    for name, value in fields.items():
        hdr[name] = value
    raw[:348] = hdr.tobytes()
    path.write_bytes(bytes(raw))


class TestRoundTrip:
    def test_volume_round_trip_bit_exact(self, tmp_path):
        vol = make_volume(np.random.default_rng(0), spacing=(0.5, 0.5, 2.0))
        path = tmp_path / "vol.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        assert np.array_equal(back.data, vol.data)

    def test_gzip_round_trip_bit_exact(self, tmp_path):
        vol = make_volume(np.random.default_rng(1))
        path = tmp_path / "vol.nii.gz"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert np.array_equal(back.data, vol.data)

    def test_multichannel_round_trip(self, tmp_path):
        vol = make_volume(np.random.default_rng(2), channels=4)
        path = tmp_path / "vol4.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.channels == 4
        assert np.array_equal(back.data, vol.data)

    def test_mask_labels_preserved(self, tmp_path):
        labels = np.random.default_rng(3).integers(0, 3, size=(5, 4, 3)).astype(np.uint8)
        mask = LabelMask(labels, (0.5, 0.5, 2.0))
        path = tmp_path / "mask.nii.gz"
        write_nifti(mask, path)
        back = read_nifti(path, as_mask=True)
        assert isinstance(back, LabelMask)
        assert np.array_equal(back.labels, labels)
        assert set(np.unique(back.labels)) <= {0, 1, 2}

    def test_identity_spacing_written_to_header(self, tmp_path):
        vol = make_volume(np.random.default_rng(4), spacing=(1.0, 1.0, 1.0))
        path = tmp_path / "iso.nii"
        write_nifti(vol, path)
        assert read_nifti(path).spacing == (1.0, 1.0, 1.0)

    def test_repeated_writes_are_byte_identical(self, tmp_path):
        vol = make_volume(np.random.default_rng(5))
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_nifti(vol, a)
        write_nifti(vol, b)
        assert a.read_bytes() == b.read_bytes()
        # 10-byte gzip header without a file name, deflate body at GZIP_LEVEL, 8-byte trailer
        write_nifti(vol, tmp_path / "raw.nii")
        deflate = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
        raw = (tmp_path / "raw.nii").read_bytes()
        assert a.read_bytes()[10:-8] == deflate.compress(raw) + deflate.flush()


class TestAtomicWrite:
    def masks(self):
        rng = np.random.default_rng(7)
        return [LabelMask(rng.integers(0, 3, size=(12, 10, 8)).astype(np.uint8), (1, 1, 1))
                for _ in range(2)]

    def test_concurrent_writers_leave_one_whole_file(self, tmp_path):
        masks = self.masks()
        path = tmp_path / "labels.nii.gz"
        errors = []

        def writer(mask):
            try:
                for _ in range(20):
                    write_nifti(mask, path)
            except Exception as exc:  # surfaced below; a thread cannot fail the test
                errors.append(exc)

        # more writers than cores, switching threads as often as possible
        threads = [threading.Thread(target=writer, args=(masks[i % 2],)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert os.listdir(tmp_path) == ["labels.nii.gz"]
        back = read_nifti(path, as_mask=True).labels
        assert any(np.array_equal(back, m.labels) for m in masks)

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_nifti(np.zeros((2, 2, 2), np.uint8), tmp_path / "x.nii.gz")
        assert os.listdir(tmp_path) == []

    def test_mode_matches_a_plain_write(self, tmp_path):
        mask = self.masks()[0]
        write_nifti(mask, tmp_path / "atomic.nii.gz")
        write_nifti(mask, tmp_path / "raw.nii")
        # a plain open() in the same directory, gzipped as the format fixes it
        with open(tmp_path / "plain.nii.gz", "wb") as f, \
                gzip.GzipFile(filename="", fileobj=f, mode="wb", compresslevel=GZIP_LEVEL, mtime=0) as gz:
            gz.write((tmp_path / "raw.nii").read_bytes())
        modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("plain.nii.gz", "atomic.nii.gz")]
        assert modes[0] == modes[1]
        assert (tmp_path / "atomic.nii.gz").read_bytes() == (tmp_path / "plain.nii.gz").read_bytes()

    def test_writes_without_touching_the_process_umask(self, tmp_path, monkeypatch):
        # setting the umask, even for a moment, would give files other threads create then mode 0666
        def no_umask(mask):
            raise AssertionError("os.umask called")

        mask = self.masks()[0]
        monkeypatch.setattr(os, "umask", no_umask)
        write_nifti(mask, tmp_path / "labels.nii.gz")
        assert os.listdir(tmp_path) == ["labels.nii.gz"]
        assert np.array_equal(read_nifti(tmp_path / "labels.nii.gz", as_mask=True).labels, mask.labels)


    def test_symlink_is_written_through(self, tmp_path):
        old, new = self.masks()
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "labels.nii.gz"
        write_nifti(old, target)
        link = tmp_path / "link.nii.gz"
        link.symlink_to(target)
        write_nifti(new, link)
        write_nifti(new, tmp_path / "direct.nii.gz")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "direct.nii.gz").read_bytes()
        assert os.listdir(tmp_path / "data") == ["labels.nii.gz"]

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_target_that_is_not_a_regular_file_is_refused(self, tmp_path, kind):
        path = tmp_path / "labels.nii.gz"
        if kind == "fifo":
            os.mkfifo(path)
            # an open read end, so a writer that opens the FIFO does not block waiting for one
            reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        else:
            path.mkdir()
        try:
            with pytest.raises(IOError, match="not a regular file") as info:
                write_nifti(self.masks()[0], path)
            assert str(path) in str(info.value)
        finally:
            if kind == "fifo":
                os.close(reader)
        assert os.listdir(tmp_path) == ["labels.nii.gz"]
        assert (stat.S_ISFIFO if kind == "fifo" else stat.S_ISDIR)(os.lstat(path).st_mode)

    def test_temp_name_fits_a_long_target_name(self, tmp_path):
        name = "x" * (250 - len(".nii.gz")) + ".nii.gz"
        mask = self.masks()[0]
        write_nifti(mask, tmp_path / name)
        assert os.listdir(tmp_path) == [name]
        assert np.array_equal(read_nifti(tmp_path / name, as_mask=True).labels, mask.labels)


class TestHeaderFields:
    def test_pixdim_becomes_spacing(self, tmp_path):
        path = tmp_path / "spaced.nii"
        write_raw(path, 16, np.float32, (3, 3, 3),
                  np.zeros((3, 3, 3), np.float32), pixdim=(0.5, 0.5, 2.0))
        vol = read_nifti(path)
        assert vol.spacing == (0.5, 0.5, 2.0)

    def test_integer_file_reads_as_volume_or_mask(self, tmp_path):
        data = np.random.default_rng(6).integers(0, 3, size=(4, 4, 4))
        path = tmp_path / "ints.nii"
        write_raw(path, 4, np.int16, (4, 4, 4), data)
        vol = read_nifti(path)
        assert vol.data.dtype == np.float32
        mask = read_nifti(path, as_mask=True)
        assert np.array_equal(mask.labels, data)

    def test_mask_request_rejects_bad_values(self, tmp_path):
        # 258 is 2 once cast to uint8; the check runs on the stored int16
        for value in (7, 258):
            path = tmp_path / f"big{value}.nii"
            data = np.zeros((2, 2, 2), np.int16)
            data[1, 0, 1] = value
            write_raw(path, 4, np.int16, (2, 2, 2), data)
            with pytest.raises(NiftiFormatError, match=rf"big{value}\.nii: mask values \[{value}\] outside"):
                read_nifti(path, as_mask=True)

    def test_mask_request_rejects_float_datatype(self, tmp_path):
        path = tmp_path / "float.nii"
        write_raw(path, 16, np.float32, (2, 2, 2), np.zeros((2, 2, 2), np.float32))
        with pytest.raises(ValueError, match="non-integer"):
            read_nifti(path, as_mask=True)

    def test_scaling_applied_on_read(self, tmp_path):
        path = tmp_path / "scaled.nii"
        data = np.arange(8).reshape(2, 2, 2)
        write_raw(path, 4, np.int16, (2, 2, 2), data)
        patch_header(path, scl_slope=2.0, scl_inter=1.0)
        vol = read_nifti(path)
        np.testing.assert_allclose(np.sort(vol.data.ravel()), 2.0 * np.arange(8) + 1.0)

    def test_zero_slope_means_no_scaling(self, tmp_path):
        # NIfTI-1: scl_slope 0 leaves the stored values as they are, scl_inter too
        data = np.random.default_rng(7).integers(0, 3, size=(4, 3, 2))
        path = tmp_path / "unscaled.nii"
        write_raw(path, 4, np.int16, (4, 3, 2), data)
        patch_header(path, scl_slope=0.0, scl_inter=5.0)
        assert np.array_equal(read_nifti(path).data[0], data.astype(np.float32))
        mask = read_nifti(path, as_mask=True)
        assert np.array_equal(mask.labels, data)

    def test_nan_slope_float_volume_reads_stored_values(self, tmp_path):
        # nifti1_io.c reads a non-finite scl_slope as 0, which means no scaling
        data = np.random.default_rng(8).normal(size=(3, 4, 2)).astype(np.float32)
        path = tmp_path / "nan_slope.nii"
        write_raw(path, 16, np.float32, (3, 4, 2), data)
        patch_header(path, scl_slope=np.nan, scl_inter=5.0)
        assert np.array_equal(read_nifti(path).data[0], data)

    def test_inf_slope_mask_reads_its_labels(self, tmp_path):
        data = np.random.default_rng(9).integers(0, 3, size=(4, 3, 2))
        path = tmp_path / "inf_slope.nii"
        write_raw(path, 4, np.int16, (4, 3, 2), data)
        patch_header(path, scl_slope=np.inf, scl_inter=1.0)
        assert np.array_equal(read_nifti(path, as_mask=True).labels, data)

    @pytest.mark.parametrize("name", ["scan.nii", "scan.nii.gz"])
    def test_header_record_describes_what_read_nifti_reads(self, tmp_path, name):
        vol = make_volume(np.random.default_rng(10), dims=(5, 4, 3), channels=2, spacing=(0.5, 1.0, 2.5))
        path = tmp_path / name
        write_nifti(vol, path)
        header = read_nifti_header(path)
        assert header == NiftiHeader(dims=(5, 4, 3), spacing=(0.5, 1.0, 2.5), channels=2,
                                     dtype=np.dtype(np.float32), offset=352, payload_bytes=2 * 5 * 4 * 3 * 4,
                                     slope=1.0, inter=0.0)
        back = read_nifti(path)
        assert header.grid == ((5, 4, 3), (0.5, 1.0, 2.5)) == (back.dims, back.spacing)

    def test_header_reads_non_finite_scaling_as_zero(self, tmp_path):
        path = tmp_path / "nan_scaling.nii"
        write_raw(path, 4, np.int16, (2, 2, 2), np.arange(8).reshape(2, 2, 2))
        patch_header(path, scl_slope=np.nan, scl_inter=np.inf)
        header = read_nifti_header(path)
        assert (header.slope, header.inter) == (0.0, 0.0)

    def test_non_finite_intercept_reads_as_zero(self, tmp_path):
        data = np.arange(8).reshape(2, 2, 2)
        path = tmp_path / "nan_inter.nii"
        write_raw(path, 4, np.int16, (2, 2, 2), data)
        patch_header(path, scl_slope=2.0, scl_inter=np.nan)
        np.testing.assert_array_equal(np.sort(read_nifti(path).data.ravel()), 2.0 * np.arange(8))


class TestErrors:
    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "bad.nii"
        write_raw(path, 16, np.float32, (2, 2, 2), np.zeros((2, 2, 2), np.float32), magic=b"XXX")
        with pytest.raises(NiftiFormatError, match="magic"):
            read_nifti(path)

    def test_unsupported_datatype_code(self, tmp_path):
        path = tmp_path / "cplx.nii"
        write_raw(path, 16, np.float32, (2, 2, 2), np.zeros((2, 2, 2), np.float32))
        patch_header(path, datatype=32)  # complex64
        with pytest.raises(NiftiUnsupportedError, match="datatype"):
            read_nifti(path)

    def test_truncated_payload_is_io_error(self, tmp_path):
        vol = make_volume(np.random.default_rng(8), dims=(6, 6, 6))
        path = tmp_path / "cut.nii"
        write_nifti(vol, path)
        raw = path.read_bytes()
        cut = 352 + (len(raw) - 352) // 2
        path.write_bytes(raw[:cut])
        with pytest.raises(IOError, match="truncated"):
            read_nifti(path)

    @pytest.mark.parametrize("damage", ["gzip magic", "deflate block"])
    @pytest.mark.parametrize("read", [read_nifti, read_nifti_header], ids=["read_nifti", "read_nifti_header"])
    def test_corrupt_gzip_stream_is_format_error(self, tmp_path, damage, read):
        path = tmp_path / "scan.nii.gz"
        write_nifti(make_volume(np.random.default_rng(11)), path)
        raw = bytearray(path.read_bytes())
        # byte 1 is the second gzip magic byte; byte 10 starts the deflate stream, and 0xFF
        # there is a final block of the reserved type
        raw[1 if damage == "gzip magic" else 10] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiFormatError, match="corrupt gzip stream") as info:
            read(path)
        assert str(path) in str(info.value)

    def test_truncated_header_is_io_error(self, tmp_path):
        path = tmp_path / "tiny.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(IOError, match="shorter"):
            read_nifti(path)

    def test_unwritable_path_raises(self, tmp_path):
        vol = make_volume(np.random.default_rng(9))
        with pytest.raises(OSError):
            write_nifti(vol, tmp_path / "no" / "such" / "dir" / "x.nii")
