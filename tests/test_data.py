import numpy as np
import pytest

from veca.data import normalize, synthetic_images
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
