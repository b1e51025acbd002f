"""Plane containers, file I/O and quality metrics."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fvstream import (FramePlane, PlaneError, ViewFrame, load_pgm, mse, psnr,
                      save_pgm)


def plane(value, shape=(16, 16)):
    return np.full(shape, value, dtype=np.uint8)


class TestFramePlane:
    def test_accepts_aligned_uint8(self):
        p = FramePlane(plane(7, (32, 48)))
        assert p.samples.shape == (32, 48)
        assert p.samples.dtype == np.uint8

    def test_accepts_integer_arrays_in_range(self):
        p = FramePlane(np.full((16, 16), 200, dtype=np.int32))
        assert p.samples.dtype == np.uint8

    @pytest.mark.parametrize("shape", [(15, 16), (16, 17), (0, 16), (16,)])
    def test_rejects_misaligned_shapes(self, shape):
        with pytest.raises(PlaneError):
            FramePlane(np.zeros(shape, dtype=np.uint8))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(PlaneError):
            FramePlane(np.full((16, 16), 256, dtype=np.int32))
        with pytest.raises(PlaneError):
            FramePlane(np.full((16, 16), -1, dtype=np.int32))

    def test_view_frame_checks_shapes(self):
        t = FramePlane(plane(1))
        d = FramePlane(plane(1, (16, 32)))
        with pytest.raises(PlaneError):
            ViewFrame(0, 0, t, d)
        with pytest.raises(PlaneError):
            ViewFrame(2, 0, t, t)


class TestMetrics:
    @pytest.mark.example
    def test_psnr_of_identical_planes_is_capped(self):
        assert psnr(plane(128), plane(128)) == 99.0

    @pytest.mark.example
    def test_psnr_of_constant_offset_16(self):
        # MSE 256 exactly; 10*log10(255^2/256) = 24.0483... dB
        a, b = plane(0), plane(16)
        assert mse(a, b) == 256.0
        expected = 10.0 * math.log10(255.0 * 255.0 / 256.0)
        assert psnr(a, b) == pytest.approx(expected, abs=1e-12)
        assert psnr(a, b) == pytest.approx(24.048, abs=5e-4)

    @pytest.mark.example
    def test_psnr_zero_db_needs_mse_above_peak(self):
        # psnr hits 0 only when MSE reaches 255^2
        assert psnr(plane(0), plane(255)) == pytest.approx(0.0, abs=1e-12)

    def test_metrics_reject_shape_mismatch(self):
        with pytest.raises(PlaneError):
            mse(plane(0), plane(0, (16, 32)))

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_psnr_symmetric_and_bounded(self, u, v):
        a, b = plane(u), plane(v)
        assert psnr(a, b) == psnr(b, a)
        assert 0.0 <= psnr(a, b) <= 99.0

class TestPlaneIO:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 256, (32, 16), dtype=np.uint8)
        path = tmp_path / "p.pgm"
        save_pgm(path, arr)
        back = load_pgm(path)
        assert np.array_equal(back.samples, arr)

    def test_pgm_header_comments_are_skipped(self, tmp_path):
        arr = plane(9)
        path = tmp_path / "c.pgm"
        body = b"P5\n# a comment\n16 # inline\n16\n255\n" + arr.tobytes()
        path.write_bytes(body)
        assert np.array_equal(load_pgm(path).samples, arr)

    def test_pgm_rejects_wrong_magic_and_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n16 16\n255\n" + bytes(256))
        with pytest.raises(PlaneError):
            load_pgm(path)
        path.write_bytes(b"P5\n16 16\n65535\n" + bytes(512))
        with pytest.raises(PlaneError):
            load_pgm(path)

    def test_pgm_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
        with pytest.raises(PlaneError):
            load_pgm(path)

    @pytest.mark.parametrize("size,message", [
        (b"-16 -16", "signed PGM width"), (b"-16 16", "signed PGM width"),
        (b"16 +16", "signed PGM height"), (b"1_6 16", "bad PGM width"),
        (b"16 \xd9\xa1\xd9\xa6", "bad PGM height")])
    def test_pgm_sizes_are_unsigned_ascii_digits(self, tmp_path, size,
                                                 message):
        # int() would take the sign, the underscore and Arabic-Indic digits
        path = tmp_path / "s.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(256))
        with pytest.raises(PlaneError, match=message):
            load_pgm(path)

    @given(st.sampled_from([b"P5\n", b"P5 ", b""]),
           st.text("P5 +-_0123456789#\n\tx", max_size=20),
           st.integers(0, 1100))
    @example(b"P5\n", "-16 -16\n255\n", 256)
    def test_any_pgm_file_loads_or_raises_plane_error(self, tmp_path_factory,
                                                      magic, header, size):
        path = tmp_path_factory.mktemp("pgm") / "f.pgm"
        path.write_bytes(magic + header.encode("ascii") + bytes(size))
        try:
            got = load_pgm(path)
        except PlaneError:
            return
        assert got.samples.dtype == np.uint8
        assert got.samples.shape[0] % 16 == 0 and got.samples.shape[1] % 16 == 0
