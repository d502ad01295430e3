import hashlib
import math
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

import veca.distill
import veca.rng
from veca.distill import SyntheticTeacher
from veca.elastic import BUDGETS
from veca.model import Encoder, get_preset
from veca.rng import HI, LO, NDTRI_CHUNK, RngStream, ndtri, trunc_normals
from veca.verify import CHI2_CRIT


def test_constants_equal_scipys():
    assert LO == sp_special.ndtr(-2.0) and HI == sp_special.ndtr(2.0)
    assert CHI2_CRIT == sp_stats.chi2.isf(1e-3, df=len(BUDGETS) - 1)


def test_float64_within_8_ulp_of_scipy_and_rarely_off():
    # both branches, their boundaries and the draw range's ends, with neighbours
    points = np.array([LO, HI, 0.5, math.exp(-2), 1 - math.exp(-2), veca.rng.EXPM2, 1 - veca.rng.EXPM2])
    points = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1)])
    u = np.concatenate([np.random.default_rng(11).uniform(LO, HI, 10**6), points])
    u = u[(u >= LO) & (u < HI)]
    ours, ref = ndtri(u), sp_special.ndtri(u)
    ulps = np.abs(ours - ref) / np.spacing(np.abs(ref))
    assert ulps.max() <= 8
    assert np.count_nonzero(ours != ref) <= 1e-4 * u.size


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.text(max_size=12),
    size=st.one_of(st.sampled_from([0, *(n + d for n in (NDTRI_CHUNK, 2**16) for d in (-1, 0, 1))]), st.integers(1, 300)),
    std=st.sampled_from([0.02, 1.0, 3.5]),
)
def test_draws_are_finite_truncated_and_independent_of_chunking(seed, name, size, std):
    x = RngStream(seed, name).trunc_normal(std, size=size)
    assert x.shape == (size,) and x.dtype == np.float64
    assert np.isfinite(x).all()
    assert (np.abs(x) <= 2 * std * (1 + 1e-12)).all()
    # one unchunked evaluation of the same uniforms
    u = RngStream(seed, name).uniform(LO, HI, size=size)
    assert np.array_equal(x, ndtri(u) * std)


def test_shapes_follow_size():
    scalar = RngStream(0, "s").trunc_normal(1.0)
    assert isinstance(scalar, np.float64)
    assert RngStream(0, "s").trunc_normal(1.0, size=(2, 0, 3)).shape == (2, 0, 3)
    assert RngStream(0, "s").trunc_normal(1.0, size=(4, 5)).shape == (4, 5)


def test_one_call_equals_a_call_per_stream():
    sizes = [(3, 4), None, 0, (NDTRI_CHUNK + 5,), 7]
    streams = [RngStream(3, f"w{i}") for i in range(len(sizes))]
    joint = trunc_normals([(s.spawn("x"), size) for s, size in zip(streams, sizes)], 0.02)
    for s, size, got in zip(streams, sizes, joint):
        want = s.spawn("x").trunc_normal(0.02, size=size)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def _scipy_trunc_normals(draws, std):
    """The inverse-CDF draw as scipy computes it: uniforms on [ndtr(-2), ndtr(2)), then ``ndtri``."""
    lo, hi = sp_special.ndtr(-2.0), sp_special.ndtr(2.0)
    return [sp_special.ndtri(stream.uniform(lo, hi, size=size)) * std for stream, size in draws]


def _digests() -> dict[str, str]:
    """SHA-256 of every float32 initial array: tiny-test seeds 0-4, small seed 0, and both presets' teachers."""
    out = {}

    def add(label, arr):
        out[label] = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

    models = [("tiny-test", seed) for seed in range(5)] + [("small", 0)]
    for preset, seed in models:
        for name, arr in Encoder(get_preset(preset), seed=seed, dtype=np.float32).state().items():
            add(f"{preset}/{seed}/{name}", arr)
    for preset in ("tiny-test", "small"):
        teacher = SyntheticTeacher(get_preset(preset), dtype=np.float32)
        tensors = {"patch_w": teacher.patch_w, "patch_b": teacher.patch_b, "fg": teacher.fg, "fb": teacher.fb}
        for i, blk in enumerate(teacher.blocks):
            for f in fields(blk):
                value = getattr(blk, f.name)
                if f.name == "attn":
                    tensors.update({f"b{i}.{g.name}": getattr(value, g.name) for g in fields(value) if g.name != "heads"})
                else:
                    tensors[f"b{i}.{f.name}"] = value
        for name, t in tensors.items():
            assert t.data.dtype == np.float32
            add(f"teacher/{preset}/{name}", t.data)
    return out


def test_float32_weights_are_bitwise_scipys(monkeypatch):
    shipped = _digests()
    monkeypatch.setattr(veca.rng, "trunc_normals", _scipy_trunc_normals)
    monkeypatch.setattr(veca.distill, "trunc_normals", _scipy_trunc_normals)
    reference = _digests()
    assert shipped.keys() == reference.keys()
    moved = [name for name in shipped if shipped[name] != reference[name]]
    assert not moved, moved
