import struct
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from veca import checkpoint
from veca.checkpoint import MAGIC, VERSION, load_container, load_model, save_container, save_model
from veca.distill import DistillConfig, SyntheticTeacher, train
from veca.elastic import BudgetDistribution
from veca.errors import CheckpointError, UnsupportedVersionError
from veca import model as model_mod
from veca.model import LISTED, Encoder, get_preset
from veca.rng import RngStream


class TestContainer:
    def test_roundtrip_bitwise_both_dtypes(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a64": rng.normal(size=(3, 4)),
            "b32": rng.normal(size=(2, 5, 1)).astype(np.float32),
            "scalarish": rng.normal(size=(1,)),
            "empty_axis": np.zeros((0, 4)),
        }
        config = {"name": "case", "values": [1, 2, 3], "nested": {"x": 1.5}}
        path = tmp_path / "c.veca"
        save_container(path, config, tensors)
        got_config, got = load_container(path)
        assert got_config == config
        assert list(got) == list(tensors)
        for name in tensors:
            assert got[name].dtype == tensors[name].dtype
            assert got[name].tobytes() == tensors[name].tobytes()

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "c.veca"
        save_container(path, {}, {})
        assert path.read_bytes()[:4] == b"VECA" == MAGIC

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.veca"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_container(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.veca"
        save_container(path, {}, {})
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            load_container(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.veca"
        save_container(path, {"k": 1}, {"x": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_container(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "g.veca"
        save_container(path, {}, {})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_container(path)

    @given(
        shapes=st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_proper_prefix_is_refused(self, tmp_path, shapes, dtype, data):
        path = tmp_path / "p.veca"
        tensors = {f"t{i}": np.ones(shape, dtype) for i, shape in enumerate(shapes)}
        save_container(path, {"k": [1, 2]}, tensors)
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(CheckpointError):
            load_container(path)

    @given(extent=st.integers(2**40, 2**50), tag=st.sampled_from([0, 1]))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_huge_declared_extent_is_truncated_before_allocating(self, tmp_path, extent, tag):
        blob = b"{}"
        name = b"w"
        raw = (
            MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + struct.pack("<II", 1, len(name)) + name
            + struct.pack("<IQB", 1, extent, tag) + b"\x00" * 64
        )
        path = tmp_path / "huge.veca"
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_container(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def _loads_or_refuses(path, raw: bytes) -> None:
        # the only two outcomes allowed for any bytes: a loaded container or CheckpointError
        path.write_bytes(raw)
        try:
            config, tensors = load_container(path)
        except CheckpointError:
            return
        assert isinstance(config, dict) and all(isinstance(t, np.ndarray) for t in tensors.values())

    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: MAGIC + struct.pack("<I", VERSION) + b),
    ))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_load_or_raise_checkpoint_error(self, tmp_path, raw):
        self._loads_or_refuses(tmp_path / "fuzz.veca", raw)

    @given(
        shapes=st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_flipped_or_truncated_container_loads_or_raises_checkpoint_error(self, tmp_path, shapes, flips, cut):
        path = tmp_path / "flip.veca"
        save_container(path, {"k": [1, 2], "s": "x"}, {f"t{i}": np.ones(s) for i, s in enumerate(shapes)})
        raw = bytearray(path.read_bytes())
        for pos, mask in flips:
            raw[pos % len(raw)] ^= mask
        self._loads_or_refuses(path, bytes(raw if cut is None else raw[: cut % len(raw)]))

    @pytest.mark.parametrize(
        "shape", [(0, 2**63), (0, 2**64 - 1), (0,) * 65, (0, 2**40, 2**40)],
        ids=["axis-2^63", "axis-2^64-1", "65-axes", "size-overflow"],
    )
    def test_empty_tensor_numpy_cannot_build_is_refused(self, tmp_path, shape):
        # zero bytes of payload, so the size check passes; numpy refuses the shape itself
        blob, name = b"{}", b"w"
        raw = (
            MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<I{len(shape)}QB", len(shape), *shape, 1)
        )
        path = tmp_path / "shape.veca"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="shape"):
            load_container(path)

    def test_unsupported_dtype_rejected_on_save(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_container(tmp_path / "i.veca", {}, {"x": np.zeros(2, dtype=np.int32)})

    @pytest.mark.parametrize("failure", ["third tensor's dtype", "disk full at the last flush"])
    def test_write_failing_part_way_leaves_the_old_file_and_no_temporary(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "c.veca"
        save_container(path, {"old": 1}, {"a": np.arange(4.0)})
        old = path.read_bytes()
        tensors = {"a": np.ones(1000), "b": np.ones(1000, dtype=np.float32)}
        if failure == "third tensor's dtype":  # raised after the first two payloads are written
            tensors["c"] = np.zeros(3, dtype=np.int8)
            expected = CheckpointError
        else:
            def fsync(fd):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(checkpoint.os, "fsync", fsync)
            expected = OSError
        with pytest.raises(expected):
            save_container(path, {"new": 2}, tensors)
        assert path.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["c.veca"]

    def test_saving_small_holds_no_copy_of_the_weights(self, tmp_path):
        enc = Encoder(get_preset("small"), dtype=np.float32)
        weights = sum(p.data.nbytes for p in enc.params.values())
        tracemalloc.start()
        try:
            save_model(tmp_path / "small.veca", enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * weights
        _, tensors = load_container(tmp_path / "small.veca")
        assert all(np.array_equal(tensors[k], p.data) for k, p in enc.params.items())


@pytest.fixture(scope="module")
def tiny_state(tiny_config):
    return Encoder(tiny_config, seed=0).state()


class TestModelCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, tiny_config, tiny_images):
        enc = Encoder(tiny_config, seed=9)
        path = tmp_path / "model.veca"
        save_model(path, enc, extra_config={"note": "unit"})
        loaded, config = load_model(path)
        assert config["note"] == "unit"
        assert config["model"]["dim"] == 16
        for name, tensor in enc.params.items():
            assert loaded.params[name].data.tobytes() == tensor.data.tobytes()
        g0, d0 = enc(tiny_images, 8)
        g1, d1 = loaded(tiny_images, 8)
        np.testing.assert_array_equal(g0.data, g1.data)
        np.testing.assert_array_equal(d0.data, d1.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_is_frozen_and_bitwise_equal_to_the_saving_encoder(self, tmp_path, tiny_config, tiny_images, dtype):
        enc = Encoder(tiny_config, seed=9, dtype=dtype)
        path = tmp_path / "m.veca"
        save_model(path, enc)
        loaded, _ = load_model(path)
        assert all(p.requires_grad for p in enc.params.values())
        assert not any(p.requires_grad for p in loaded.params.values())
        for budget in (8, 64):
            want, got = enc(tiny_images, budget), loaded(tiny_images, budget)
            for w, g in zip(want, got):
                assert w.requires_grad
                assert not g.requires_grad and g._parents == () and g._grad_fn is None
                assert g.data.dtype == dtype
                assert g.data.tobytes() == w.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_a_loaded_encoder_matches_training_the_saved_one(self, tmp_path, tiny_config, dtype):
        # fails if the optimizer leaves a loaded encoder's parameters frozen
        enc = Encoder(tiny_config, seed=4, dtype=dtype)
        path = tmp_path / "m.veca"
        save_model(path, enc)
        loaded, _ = load_model(path)
        teacher = SyntheticTeacher(tiny_config, seed=7001, dtype=dtype)
        cfg = DistillConfig(total_steps=6, warmup_steps=2, batch_size=2)
        runs = [
            train(model, teacher, BudgetDistribution(), cfg,
                  data_stream=RngStream(1, "data"), budget_stream=RngStream(1, "budgets"))
            for model in (enc, loaded)
        ]
        assert runs[0] == runs[1]
        for name, p in enc.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
        saved = load_container(path)[1]
        assert any(not np.array_equal(p.data, saved[name]) for name, p in enc.params.items())  # it trained

    def test_roundtrip_float32(self, tmp_path, tiny_config):
        enc = Encoder(tiny_config, seed=2, dtype=np.float32)
        path = tmp_path / "m32.veca"
        save_model(path, enc)
        loaded, config = load_model(path)
        assert loaded.dtype == np.float32
        for name, tensor in enc.params.items():
            assert loaded.params[name].data.tobytes() == tensor.data.tobytes()

    def test_legacy_zero_dropout_entry_loads(self, tmp_path, tiny_config, tiny_images):
        # checkpoints written while ModelConfig had a dropout field carry "dropout": 0.0
        enc = Encoder(tiny_config, seed=9)
        path = tmp_path / "legacy.veca"
        save_container(
            path, {"model": {**asdict(tiny_config), "dropout": 0.0}, "seed": 9, "dtype": "float64"}, enc.state()
        )
        loaded, _ = load_model(path)
        assert loaded.config == tiny_config
        np.testing.assert_array_equal(loaded(tiny_images, 8)[1].data, enc(tiny_images, 8)[1].data)

    def test_nonzero_dropout_entry_refused(self, tmp_path, tiny_config):
        path = tmp_path / "dropout.veca"
        save_container(path, {"model": {**asdict(tiny_config), "dropout": 0.1}}, Encoder(tiny_config).state())
        with pytest.raises(CheckpointError, match="dropout"):
            load_model(path)

    # the other model fields older checkpoints carry: name -> (the value they all hold, a value this build refuses)
    RETIRED = {
        "in_channels": (3, 1),
        "chunk": (8, 16),
        "rope_base": (100.0, 1e4),
        "norm_eps": (1e-6, 1e-5),
        "max_cores": (64, 32),
        "budgets": ([8, 16, 24, 32, 40, 48, 56, 64], [8, 16, 32, 64]),
    }

    @pytest.mark.parametrize("field", sorted(RETIRED))
    def test_retired_field_with_old_value_loads(self, tmp_path, tiny_config, tiny_images, field):
        enc = Encoder(tiny_config, seed=9)
        path = tmp_path / "legacy.veca"
        model = {**asdict(tiny_config), field: self.RETIRED[field][0]}
        save_container(path, {"model": model, "seed": 9, "dtype": "float64"}, enc.state())
        loaded, _ = load_model(path)
        assert loaded.config == tiny_config
        np.testing.assert_array_equal(loaded(tiny_images, 8)[1].data, enc(tiny_images, 8)[1].data)

    @pytest.mark.parametrize("field", sorted(RETIRED))
    def test_retired_field_with_other_value_refused(self, tmp_path, tiny_config, field):
        path = tmp_path / "retired.veca"
        model = {**asdict(tiny_config), field: self.RETIRED[field][1]}
        save_container(path, {"model": model}, Encoder(tiny_config).state())
        with pytest.raises(CheckpointError, match=field):
            load_model(path)

    @given(
        field=st.sampled_from(["layers", "dim", "heads", "mlp_ratio", "patch_size", "seed"]),
        value=(
            st.none() | st.booleans() | st.integers(-3, 64) | st.integers(-10**18, 10**18)
            | st.floats() | st.text(max_size=4)
        ),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_config_value_loads_a_finite_encoder_or_is_refused(
        self, tmp_path, tiny_config, tiny_state, tiny_images, field, value
    ):
        config = {"model": asdict(tiny_config), "seed": 0, "dtype": "float64"}
        if field == "seed":
            config["seed"] = value
        else:
            config["model"][field] = value
        path = tmp_path / "m.veca"
        save_container(path, config, tiny_state)
        walked = []
        layout = model_mod._layout

        def counted(*args):
            for entry in layout(*args):
                walked.append(entry[0])
                yield entry

        try:
            with mock.patch.object(model_mod, "_layout", counted):
                enc, _ = load_model(path)
        except CheckpointError:
            enc = None
        # bounded by the file: a model of 10^18 layers is refused after the names the file lacks start
        assert len(walked) <= len(tiny_state) + LISTED
        if enc is None:
            return
        y, z = enc(tiny_images[:1], 8)
        assert np.isfinite(y.data).all() and np.isfinite(z.data).all()

    def test_identical_saves_are_byte_identical(self, tmp_path, tiny_config):
        p1, p2 = tmp_path / "a.veca", tmp_path / "b.veca"
        save_model(p1, Encoder(tiny_config, seed=4))
        save_model(p2, Encoder(tiny_config, seed=4))
        assert p1.read_bytes() == p2.read_bytes()

    def test_preset_configs_roundtrip(self, tmp_path):
        # every named preset's config survives serialization exactly
        for name in ("small", "small_plus", "base", "large", "tiny-test"):
            cfg = get_preset(name)
            enc = Encoder(get_preset("tiny-test"), seed=0)
            path = tmp_path / f"{name}.veca"
            save_container(path, {"model": asdict(cfg)}, enc.state())
            got_cfg, got_tensors = load_container(path)
            assert got_cfg["model"] == asdict(cfg)
            for pname, arr in enc.state().items():
                assert got_tensors[pname].tobytes() == arr.tobytes()
