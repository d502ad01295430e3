import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy_format

from veca.data import load_raster, normalize, synthetic_images
from veca.errors import CheckpointError
from veca.rng import RngStream


def synthetic_images_four_draws(stream: RngStream, batch: int, r: int) -> np.ndarray:
    """The generator with four draws per shape and one clip per image: the stream order to keep."""
    out = np.empty((batch, 3, r, r))
    yy, xx = np.mgrid[0:r, 0:r]
    for i in range(batch):
        base = stream.uniform(0.1, 0.9, size=3)
        img = base[:, None, None] + stream.normal(0.05, size=(3, r, r))
        for _ in range(int(stream.integers(1, 4))):
            color = stream.uniform(0.0, 1.0, size=3)
            cx, cy = stream.uniform(0.15, 0.85, size=2) * r
            half = stream.uniform(0.08, 0.3) * r
            if stream.uniform() < 0.5:
                mask = (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
            else:
                mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= half**2
            img[:, mask] = color[:, None]
        out[i] = np.clip(img, 0.0, 1.0)
    return normalize(out)


@pytest.mark.parametrize("batch,res", [(1, 1), (2, 5), (3, 16), (8, 16), (2, 33), (1, 64), (1, 224)])
def test_synthetic_images_keep_the_four_draw_stream_order(batch, res):
    for seed in range(6):
        got = synthetic_images(RngStream(seed, "data"), batch, res)
        want = synthetic_images_four_draws(RngStream(seed, "data"), batch, res)
        assert got.tobytes() == want.tobytes(), seed


def test_consecutive_batches_continue_one_stream():
    # the second batch starts where the first one's draws ended
    a, b = RngStream(3, "data"), RngStream(3, "data")
    got = [synthetic_images(a, 2, 16) for _ in range(3)]
    want = [synthetic_images_four_draws(b, 2, 16) for _ in range(3)]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_synthetic_batch_peaks_at_its_output_plus_one_noise_draw():
    # the batch is normalized in the buffer it was drawn into; the only other large
    # array alive at once is one image's pixel noise
    batch, res = 8, 224
    synthetic_images(RngStream(0, "warm-up"), 1, 8)
    tracemalloc.start()
    try:
        out = synthetic_images(RngStream(0, "data"), batch, res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    noise = 3 * res * res * 8
    slack = 256 << 10  # masks and index arrays of one shape; a 224 px float64 plane is 392 KiB
    assert peak <= out.nbytes + noise + slack, (peak, out.nbytes)


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def npy_header(shape: tuple[int, ...], descr: str, fortran: bool) -> bytes:
    buf = io.BytesIO()
    npy_format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": fortran, "shape": shape})
    return buf.getvalue()


def loads_or_refuses(path, raw: bytes) -> None:
    """The only outcomes allowed for any file: a finite [3, H, W] image in [0, 1], or CheckpointError.

    Loading may allocate a few float64 copies of what the file holds, never what a header claims.
    """
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        img = load_raster(path)
    except CheckpointError:
        return
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 64 * len(raw) + (1 << 20), (peak, len(raw))
    assert isinstance(img, np.ndarray) and img.dtype == np.float64
    assert img.ndim == 3 and img.shape[0] == 3 and img.size > 0
    assert np.isfinite(img).all() and img.min() >= 0.0 and img.max() <= 1.0


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
NPY_DESCRS = ["<f8", ">f8", "<f4", "<f2", "|u1", "<i8", "|b1", "<c16", "|O", "<U3"]


class TestRasterFuzz:
    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: b"\x93NUMPY" + b),
        st.tuples(
            st.lists(st.integers(0, 2**62), max_size=4), st.sampled_from(NPY_DESCRS), st.booleans(),
            st.binary(max_size=200),
        ).map(lambda t: npy_header(tuple(t[0]), t[1], t[2]) + t[3]),
    ))
    @FUZZ
    def test_arbitrary_npy_bytes_load_or_raise_checkpoint_error(self, tmp_path, raw):
        loads_or_refuses(tmp_path / "fuzz.npy", raw)

    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: b"P6" + b),
        st.tuples(
            st.integers(-2, 2**40), st.integers(-2, 2**40), st.integers(-1, 70_000), st.binary(max_size=200),
        ).map(lambda t: b"P6\n%d %d\n%d\n" % t[:3] + t[3]),
    ))
    @FUZZ
    def test_arbitrary_ppm_bytes_load_or_raise_checkpoint_error(self, tmp_path, raw):
        loads_or_refuses(tmp_path / "fuzz.ppm", raw)

    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        channels_last=st.booleans(),
        dtype=st.sampled_from([np.float64, np.float32, np.float16, np.uint8, np.int64]),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @FUZZ
    def test_flipped_or_truncated_npy_loads_or_raises_checkpoint_error(
        self, tmp_path, shape, channels_last, dtype, flips, cut,
    ):
        full = (*shape, 3) if channels_last else (3, *shape)
        arr = np.linspace(0.0, 2.0, np.prod(full)).reshape(full).astype(dtype)
        loads_or_refuses(tmp_path / "flip.npy", damaged(npy_bytes(arr), flips, cut))

    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        maxval=st.sampled_from([1, 100, 255]),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @FUZZ
    def test_flipped_or_truncated_ppm_loads_or_raises_checkpoint_error(self, tmp_path, shape, maxval, flips, cut):
        h, w = shape
        pixels = (np.arange(h * w * 3) % (maxval + 1)).astype(np.uint8).tobytes()
        raw = b"P6\n# fuzz\n%d %d\n%d\n" % (w, h, maxval) + pixels
        loads_or_refuses(tmp_path / "flip.ppm", damaged(raw, flips, cut))

    def test_header_length_beyond_the_file_is_refused_unallocated(self, tmp_path):
        # a version 2 header states its own length as a u32; a file read of that length
        # would allocate it before finding the file short
        path = tmp_path / "long-header.npy"
        path.write_bytes(b"\x93NUMPY\x02\x00" + struct.pack("<I", 2**30) + b"{'descr': '<f8', ")
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="not a readable"):
                load_raster(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ppm_sample_above_maxval_is_refused(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n100\n" + bytes([0, 50, 255]))
        with pytest.raises(CheckpointError, match="above maxval"):
            load_raster(path)


def damaged(raw: bytes, flips: list[tuple[int, int]], cut: int | None) -> bytes:
    """``raw`` with each (position, mask) XORed in, then cut to ``cut`` bytes (positions wrap)."""
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out if cut is None else out[: cut % len(out)])
