import io
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy_format

from veca.analysis import export_core_maps
from veca.checkpoint import save_model
from veca.cli import TRAIN_KEYS, main
from veca.data import synthetic_images
from veca.distill import DistillConfig
from veca.elastic import BudgetDistribution
from veca.model import Encoder, ModelConfig, get_preset
from veca.rng import RngStream


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBenchFlops:
    def test_reference_row(self, capsys):
        code, out, _ = run(capsys, "bench-flops", "--preset", "small", "--res", "1024", "--budget", "64")
        assert code == 0
        assert out.startswith("# bench-flops config:")
        core_row = [l for l in out.splitlines() if ",core(64)," in l][0]
        fields = core_row.split(",")
        assert abs(int(fields[5]) - 5.72e9) / 5.72e9 <= 0.005
        assert abs(float(fields[6]) - 5.36) <= 0.06

    def test_multi_resolution_cardinality(self, capsys):
        code, out, _ = run(capsys, "bench-flops", "--preset", "base", "--res", "256,512,1024")
        rows = [l for l in out.splitlines() if not l.startswith("#") and "," in l]
        assert code == 0 and len(rows) == 1 + 6  # header + 2 modes x 3 resolutions

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "flops.csv"
        code, _, _ = run(capsys, "bench-flops", "--out", str(out_file))
        assert code == 0 and out_file.exists()
        assert out_file.read_text().startswith("# bench-flops config:")

    def test_bad_resolution_exit_code(self, capsys):
        for flags in ("--res 1000", "--res 0", "--res -16", "--res abc", "--budget 0"):
            code, out, err = run(capsys, "bench-flops", *flags.split())
            assert (code, out) == (2, "") and err.startswith("error:"), flags


class TestParamCount:
    def test_all_presets(self, capsys):
        code, out, _ = run(capsys, "param-count")
        assert code == 0
        rows = dict(
            l.split(",") for l in out.splitlines() if "," in l and not l.startswith("#")
        )
        del rows["preset"]
        assert abs(int(rows["small"]) - 21_630_000) / 21_630_000 <= 0.005
        assert abs(int(rows["large"]) - 303_200_000) / 303_200_000 <= 0.005


class TestTrainToy:
    def test_run_and_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys, "train-toy", "--steps", "12", "--batch", "2", "--out", str(out_dir), "--seed", "3"
        )
        assert code == 0
        assert (out_dir / "checkpoint.veca").exists()
        log = (out_dir / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("# train-toy config:")
        assert log[1] == "step,budget,loss,lr"
        assert len(log) == 2 + 12

    def test_deterministic_checkpoints(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "train-toy", "--steps", "8", "--batch", "2", "--out", str(a), "--seed", "5")
        run(capsys, "train-toy", "--steps", "8", "--batch", "2", "--out", str(b), "--seed", "5")
        assert (a / "checkpoint.veca").read_bytes() == (b / "checkpoint.veca").read_bytes()

    def test_degenerate_budget_weights(self, capsys, tmp_path):
        out_dir = tmp_path / "deg"
        code, _, _ = run(
            capsys, "train-toy", "--steps", "10", "--batch", "2", "--out", str(out_dir),
            "--budget-weights", "0,0,0,0,0,0,0,1",
        )
        assert code == 0
        log = (out_dir / "train_log.csv").read_text().splitlines()[2:]
        assert {row.split(",")[1] for row in log} == {"64"}

    def test_config_flag_is_a_usage_error(self, capsys, tmp_path):
        # every value of a run comes from its flags; there is no config file layer
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--config", "x", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()
        capsys.readouterr()

    def test_veca_seed_is_not_read(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VECA_SEED", "21")
        out_dir = tmp_path / "env"
        code, _, _ = run(capsys, "train-toy", "--steps", "4", "--batch", "2", "--out", str(out_dir))
        assert code == 0
        header = (out_dir / "train_log.csv").read_text().splitlines()[0]
        assert json.loads(header.split("config: ", 1)[1])["seed"] == 0


class TestEvalBudgets:
    @pytest.fixture()
    def trained(self, capsys, tmp_path):
        out_dir = tmp_path / "trained"
        run(capsys, "train-toy", "--steps", "10", "--batch", "2", "--out", str(out_dir), "--seed", "0")
        return out_dir / "checkpoint.veca"

    def test_rows_and_finiteness(self, capsys, trained):
        code, out, _ = run(capsys, "eval-budgets", "--checkpoint", str(trained), "--eval-batch", "4")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith(("#", "budget"))]
        assert len(rows) == 8
        for row in rows:
            budget, lg, ld, total = row.split(",")
            assert np.isfinite(float(lg)) and np.isfinite(float(ld))
            assert float(total) == pytest.approx(float(lg) + float(ld), rel=1e-9)

    def test_budget_subset(self, capsys, trained):
        code, out, _ = run(
            capsys, "eval-budgets", "--checkpoint", str(trained), "--budgets", "8,64", "--eval-batch", "2"
        )
        rows = [l for l in out.splitlines() if not l.startswith(("#", "budget"))]
        assert code == 0 and [r.split(",")[0] for r in rows] == ["8", "64"]

    def test_invalid_budget_is_usage_error(self, capsys, trained):
        code, _, err = run(
            capsys, "eval-budgets", "--checkpoint", str(trained), "--budgets", "12", "--eval-batch", "2"
        )
        assert code == 2 and "budget" in err.lower()

    def test_missing_checkpoint_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval-budgets", "--checkpoint", str(tmp_path / "nope.veca"))
        assert code == 3


class TestExportMaps:
    def test_three_layers_three_files(self, capsys, tmp_path):
        cfg = ModelConfig(layers=4, dim=16, heads=2, mlp_ratio=2.0, patch_size=4)
        ckpt = tmp_path / "deep.veca"
        save_model(ckpt, Encoder(cfg, seed=0))
        out_dir = tmp_path / "maps"
        code, _, _ = run(
            capsys, "export-maps", "--checkpoint", str(ckpt), "--budget", "8",
            "--layers", "1,2,3", "--out", str(out_dir),
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["layer_01.csv", "layer_02.csv", "layer_03.csv"]
        body = (out_dir / "layer_01.csv").read_text().splitlines()
        data_rows = [l for l in body if not l.startswith("#")]
        assert len(data_rows) == 16  # one row per patch
        assert len(data_rows[0].split(",")) == 8

    def test_reexport_byte_identical(self, capsys, tmp_path):
        cfg = ModelConfig(layers=2, dim=16, heads=2, mlp_ratio=2.0, patch_size=4)
        ckpt = tmp_path / "m.veca"
        save_model(ckpt, Encoder(cfg, seed=1))
        d1, d2 = tmp_path / "m1", tmp_path / "m2"
        for d in (d1, d2):
            run(capsys, "export-maps", "--checkpoint", str(ckpt), "--budget", "8", "--out", str(d))
        assert (d1 / "layer_01.csv").read_bytes() == (d2 / "layer_01.csv").read_bytes()

    def test_file_layout(self, capsys, tmp_path):
        # config header, map header, then one %.17g row per patch
        cfg = ModelConfig(layers=3, dim=16, heads=2, mlp_ratio=2.0, patch_size=4)
        ckpt = tmp_path / "m.veca"
        model = Encoder(cfg, seed=1)
        save_model(ckpt, model)
        out_dir = tmp_path / "maps"
        code, out, _ = run(capsys, "export-maps", "--checkpoint", str(ckpt), "--budget", "8", "--out", str(out_dir))
        assert code == 0
        header = out.splitlines()[0]
        image = synthetic_images(RngStream(0, "export-data"), 1, 16)[0]
        for layer, matrix in export_core_maps(model, image, 8).items():
            lines = [header, f"# image=synth:0 layer={layer} C=8"]
            lines += [",".join(f"{v:.17g}" for v in row) for row in matrix]
            want = "".join(line + "\n" for line in lines)
            assert (out_dir / f"layer_{layer:02d}.csv").read_text() == want


    def test_synth_index_is_that_image_of_one_batch(self, capsys, tmp_path):
        cfg = ModelConfig(layers=2, dim=16, heads=2, mlp_ratio=2.0, patch_size=4)
        ckpt = tmp_path / "m.veca"
        model = Encoder(cfg, seed=1)
        save_model(ckpt, model)
        out_dir = tmp_path / "maps"
        code, _, _ = run(
            capsys, "export-maps", "--checkpoint", str(ckpt), "--budget", "8", "--image", "synth:3",
            "--out", str(out_dir),
        )
        assert code == 0
        image = synthetic_images(RngStream(0, "export-data"), 4, 16)[3]
        rows = [l for l in (out_dir / "layer_01.csv").read_text().splitlines() if not l.startswith("#")]
        want = [",".join(f"{v:.17g}" for v in row) for row in export_core_maps(model, image, 8)[1]]
        assert rows == want


class TestVerifyCommand:
    def test_attention_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "attention")
        assert code == 0 and "[PASS]" in out and "verification passed" in out

    def test_release_gate_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert "[FAIL]" not in out
        for suite in ("attention", "rope", "gradients", "elastic", "diameter"):
            assert f"] {suite}:" in out

    def test_corrupt_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "attention", "--corrupt")
        assert code == 1 and "[FAIL]" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_config_echo_present(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "attention", "--seed", "7")
        assert out.splitlines()[0] == '# verify config: {"corrupt": false, "seed": 7, "suite": "attention"}'


TINY = ModelConfig(layers=2, dim=16, heads=2, mlp_ratio=2.0, patch_size=4)


def container(blob: bytes, tensors: dict[bytes, np.ndarray] | None = None) -> bytes:
    """A version-1 checkpoint container: config ``blob`` and named tensors (default: one float64 scalar)."""
    tensors = {b"x": np.zeros(())} if tensors is None else tensors
    out = b"VECA" + struct.pack("<II", 1, len(blob)) + blob + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        tag = b"\x00" if arr.dtype == np.float32 else b"\x01"
        out += struct.pack(f"<I{len(name)}sI{arr.ndim}Q", len(name), name, arr.ndim, *arr.shape)
        out += tag + arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    return out


def model_blob(**extra) -> bytes:
    return json.dumps({"model": {**asdict(TINY), **extra}}).encode()


def targets(
    kind: str = "teacher_targets", batches=(2, 2, 2), drop: str = "", patches: int = 16, poison: str = "", value=np.nan,
) -> bytes:
    """A target-file container of ``kind`` with ``batches`` for images/global/dense, minus ``drop``.

    Images are 16 px, so ``patches`` = 16 fits TINY (patch size 4). The
    tensor named ``poison`` holds ``value`` in its first element.
    """
    shapes = {"images": (batches[0], 3, 16, 16), "global": (batches[1], 16), "dense": (batches[2], patches, 16)}
    arrays = {k: np.zeros(v) for k, v in shapes.items() if k != drop}
    if poison:
        arrays[poison].flat[0] = value
    blob = json.dumps({"kind": kind}).encode()
    return container(blob, {k.encode(): v for k, v in arrays.items()})


def tiny_checkpoint(**config) -> bytes:
    """A checkpoint container of TINY's real tensors with extra top-level ``config`` entries."""
    blob = json.dumps({"model": asdict(TINY), **config}).encode()  # math.inf is written as Infinity
    return container(blob, {k.encode(): v for k, v in Encoder(TINY, seed=0).state().items()})


def tiny_model(**fields) -> dict:
    """TINY's model config with ``fields`` replaced."""
    return {**asdict(TINY), **fields}


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def npy_header(shape: tuple[int, ...]) -> bytes:
    """A version-1 .npy header for a float64 array of ``shape``, without its data."""
    buf = io.BytesIO()
    npy_format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


def image_with(value: float) -> np.ndarray:
    """A 16 px [3, H, W] image in [0, 1] with ``value`` in its first pixel."""
    img = np.full((3, 16, 16), 0.5)
    img[0, 0, 0] = value
    return img


class TestExitCodes:
    CASES = {
        "batch of zero": ("flags", b"--batch 0", 2),
        "negative resolution": ("flags", b"--res -16", 2),
        "weight decay not a number": ("flags", b"--weight-decay nan", 2),
        "weight decay negative": ("flags", b"--weight-decay -0.1", 2),
        "learning rate infinite": ("flags", b"--lr inf --min-lr 1", 2),
        "budget weight not a number": ("flags", b"--budget-weights nan,1,1,1,1,1,1,1", 2),
        "budget weight infinite": ("flags", b"--budget-weights inf,1,1,1,1,1,1,1", 2),
        "budget weights overflowing their sum": ("flags", b"--budget-weights 1e308,1e308,1,1,1,1,1,1", 2),
        "npy of random bytes": ("npy", bytes(range(256)), 3),
        "npy of the wrong shape": ("npy", npy_bytes(np.zeros((4, 4))), 3),
        "npy with no pixels": ("npy", npy_bytes(np.zeros((3, 0, 16))), 3),
        "npy with a NaN pixel": ("npy", npy_bytes(image_with(np.nan)), 3),
        "npy with an infinite pixel": ("npy", npy_bytes(image_with(np.inf)), 3),
        "npy header claiming 21.8 TiB over 16 bytes": ("npy", npy_header((3, 10**6, 10**6)) + bytes(16), 3),
        "PPM that is not P6": ("ppm", b"P3\n4 4\n255\n" + bytes(48), 3),
        "checkpoint config not JSON": ("checkpoint", container(b"{nope"), 3),
        "checkpoint without model": ("checkpoint", container(b"{}"), 3),
        "checkpoint tensor name not UTF-8": ("checkpoint", container(b"{}", {b"\xff\xfe": np.zeros(())}), 3),
        "checkpoint tensor dtype not the config's": (
            "checkpoint",
            container(model_blob(), {k.encode(): v.astype(np.float32) for k, v in Encoder(TINY, seed=0).state().items()}),
            3,
        ),
        "targets without images": ("targets", targets(drop="images"), 3),
        "targets of another kind": ("targets", targets(kind="model"), 3),
        "targets with misaligned batches": ("targets", targets(batches=(2, 3, 3)), 3),
        "targets with the wrong patch count": ("targets", targets(patches=5), 3),
        "targets with a NaN dense target": ("targets", targets(poison="dense"), 3),
        "targets with an infinite image pixel": ("targets", targets(poison="images", value=np.inf), 3),
        "checkpoint unknown model field": ("checkpoint", container(model_blob(width=3)), 3),
        "checkpoint non-zero dropout": ("checkpoint", container(model_blob(dropout=0.1)), 3),
        "checkpoint tensors not the model's": ("checkpoint", container(model_blob()), 3),
        "PPM pixels truncated": ("ppm", b"P6\n4 4\n255\n" + bytes(10), 3),
        "PPM header with 3 fields": ("ppm", b"P6\n4 4", 3),
        "PPM header not integers": ("ppm", b"P6\nfour 4\n255\n" + bytes(48), 3),
        "PPM maxval zero": ("ppm", b"P6\n4 4\n0\n" + bytes(48), 3),
        "PPM 16-bit maxval": ("ppm", b"P6\n4 4\n65535\n" + bytes(96), 3),
        "eval batch of zero": ("eval flags", b"--eval-batch 0", 2),
        "eval batch negative": ("eval flags", b"--eval-batch -1", 2),
        "eval budgets an empty list": ("eval flags", b"--budgets ,", 2),
        "map layers an empty list": ("maps flags", b"--layers ,", 2),
        "flops resolutions an empty list": ("flops flags", b"--res ,", 2),
        "synthetic image index negative": ("synth image", b"synth:-1", 2),
        "synthetic image index not an integer": ("synth image", b"synth:abc", 2),
        "checkpoint train section not an object": ("checkpoint", tiny_checkpoint(train=[1]), 3),
        "checkpoint train res not an integer": ("checkpoint", tiny_checkpoint(train={"res": "abc"}), 3),
        "checkpoint train res fractional": ("checkpoint", tiny_checkpoint(train={"res": 16.5, "seed": 0.5}), 3),
        "checkpoint train teacher seed a boolean": ("checkpoint", tiny_checkpoint(train={"teacher_seed": True}), 3),
        "checkpoint train teacher seed not the constant": ("checkpoint", tiny_checkpoint(train={"teacher_seed": 1234}), 3),
        "flops resolution whose cost ratio overflows a float": ("flops flags", b"--res 16" + b"0" * 160, 2),
        "checkpoint config nested too deeply to parse": ("checkpoint", container(b"[" * 200_000), 3),
        "targets config nested too deeply to parse": ("targets", container(b"[" * 200_000), 3),
        "verify seed negative": ("verify flags", b"--seed -1", 2),
        "checkpoint model heads zero": ("checkpoint", tiny_checkpoint(model=tiny_model(heads=0)), 3),
        "checkpoint model heads a boolean": ("checkpoint", tiny_checkpoint(model=tiny_model(heads=True)), 3),
        "checkpoint model mlp ratio infinite": ("checkpoint", tiny_checkpoint(model=tiny_model(mlp_ratio=math.inf)), 3),
        "checkpoint model head width of petabytes": ("checkpoint", tiny_checkpoint(model=tiny_model(heads=1, dim=4 * 10**15)), 3),
        "checkpoint model of 10^18 layers": ("checkpoint", tiny_checkpoint(model=tiny_model(layers=10**18)), 3),
        "checkpoint model hidden width overflowing a float": ("checkpoint", tiny_checkpoint(model=tiny_model(mlp_ratio=1e308)), 3),
        "checkpoint seed infinite": ("checkpoint", tiny_checkpoint(seed=math.inf), 3),
        "checkpoint seed negative infinite": ("checkpoint", tiny_checkpoint(seed=-math.inf), 3),
        "checkpoint seed fractional": ("checkpoint", tiny_checkpoint(seed=2.7), 3),
        "checkpoint seed a boolean": ("checkpoint", tiny_checkpoint(seed=True), 3),
        "checkpoint train res not a multiple of the patch size": ("checkpoint", tiny_checkpoint(train={"res": 18}), 3),
        "checkpoint train res zero": ("checkpoint", tiny_checkpoint(train={"res": 0}), 3),
        # sizes numpy refuses at once (petabytes and more), so nothing is ever allocated
        "resolution too large to allocate": ("flags", b"--res 1000000000000", 1),
        "batch too large to allocate": ("flags", b"--batch 1000000000000", 1),
        "eval batch too large to allocate": ("eval flags", b"--eval-batch 1000000000000", 1),
        "map resolution too large to allocate": ("maps flags", b"--res 1000000000000", 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_malformed_input(self, capsys, tmp_path, case):
        kind, raw, want = self.CASES[case]
        bad = tmp_path / {"ppm": "img.ppm", "npy": "img.npy"}.get(kind, "bad.veca")
        bad.write_bytes(raw)
        if kind == "flags":
            argv = ["train-toy", *raw.decode().split(), "--out", str(tmp_path / "run")]
        elif kind == "checkpoint":
            argv = ["eval-budgets", "--checkpoint", str(bad)]
        elif kind == "flops flags":
            argv = ["bench-flops", *raw.decode().split()]
        elif kind == "verify flags":
            argv = ["verify", "--suite", "attention", *raw.decode().split()]
        elif kind == "targets":
            argv = ["train-toy", "--preset", "tiny-test", "--targets-file", str(bad),
                    "--steps", "2", "--batch", "2", "--out", str(tmp_path / "run")]
        else:
            ckpt = tmp_path / "m.veca"
            save_model(ckpt, Encoder(TINY, seed=0))
            if kind == "eval flags":
                argv = ["eval-budgets", "--checkpoint", str(ckpt), *raw.decode().split()]
            elif kind == "maps flags":
                argv = ["export-maps", "--checkpoint", str(ckpt), "--image", "synth:0",
                        "--budget", "8", *raw.decode().split(), "--out", str(tmp_path / "maps")]
            else:
                image = raw.decode() if kind == "synth image" else str(bad)
                argv = ["export-maps", "--checkpoint", str(ckpt), "--image", image,
                        "--budget", "8", "--out", str(tmp_path / "maps")]
        code, _, err = run(capsys, *argv)
        assert code == want and err.startswith({1: "failure:", 2: "error:", 3: "i/o error:"}[want])


def test_an_empty_list_flag_is_a_usage_error(capsys, tmp_path):
    # an empty argument is no list of integers, not a request for the defaults
    ckpt = tmp_path / "m.veca"
    save_model(ckpt, Encoder(TINY, seed=0))
    for argv in (
        ["eval-budgets", "--checkpoint", str(ckpt), "--budgets", "", "--eval-batch", "2"],
        ["export-maps", "--checkpoint", str(ckpt), "--layers", "", "--budget", "8", "--out", str(tmp_path / "maps")],
        ["bench-flops", "--res", ""],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error:"), argv
    assert not (tmp_path / "maps").exists()


# any integer, and 16 * 10**e up to 403 digits (a 16 px multiple whose cost overflows a float from e = 156)
INTEGER = st.integers() | st.integers(0, 400).map(lambda e: 16 * 10**e)
INTEGER_LIST = st.lists(INTEGER, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
FLAG_EXAMPLES = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestIntegerFlags:
    """Integer flags that size no allocation end in exit 0 or a usage error, never a traceback.

    Values go in as ``--flag=value`` so that a negative one is not read as an option.
    """

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = tmp_path / "tiny.veca"
        save_model(path, Encoder(get_preset("tiny-test"), seed=0))
        return path

    @staticmethod
    def exits_cleanly(capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code in (0, 2), (argv, code, err)
        assert code == 0 or err.startswith("error:"), (argv, err)

    @FLAG_EXAMPLES
    @given(res=INTEGER, budget=INTEGER)
    def test_bench_flops(self, capsys, res, budget):
        self.exits_cleanly(capsys, "bench-flops", f"--res={res}", f"--budget={budget}")

    @FLAG_EXAMPLES
    @given(budget=INTEGER, layers=INTEGER_LIST)
    def test_export_maps(self, capsys, tmp_path, ckpt, budget, layers):
        self.exits_cleanly(
            capsys, "export-maps", "--checkpoint", str(ckpt), "--res", "16",
            f"--budget={budget}", f"--layers={layers}", "--out", str(tmp_path / "maps"),
        )

    @FLAG_EXAMPLES
    @given(budgets=INTEGER_LIST)
    def test_eval_budgets(self, capsys, ckpt, budgets):
        self.exits_cleanly(capsys, "eval-budgets", "--checkpoint", str(ckpt), "--eval-batch", "2", f"--budgets={budgets}")


def test_settable_surface_is_pinned():
    # every value a caller can set; a new option has to be added here on purpose
    assert [f.name for f in fields(ModelConfig)] == ["layers", "dim", "heads", "mlp_ratio", "patch_size"]
    assert [f.name for f in fields(DistillConfig)] == [
        "lr", "min_lr", "warmup_steps", "total_steps", "weight_decay", "batch_size", "resolution",
    ]
    assert [f.name for f in fields(BudgetDistribution)] == ["weights"]
    assert sorted(TRAIN_KEYS) == [
        "batch", "budget_weights", "dtype", "lr", "min_lr", "preset", "res",
        "seed", "steps", "targets_file", "warmup", "weight_decay",
    ]


ENCODE_ONLY = """
import sys

import numpy as np

import veca
import veca.cli
from veca.checkpoint import load_model
from veca.data import synthetic_images
from veca.rng import RngStream

model, _ = load_model(sys.argv[1])
y, z = model(synthetic_images(RngStream(0, "images"), 1, 16), 8)
assert np.isfinite(y.data).all() and np.isfinite(z.data).all()
assert veca.cli.main(["param-count"]) == 0
assert "scipy" not in sys.modules, sorted(name for name in sys.modules if name.startswith("scipy"))
RngStream(0, "weights").trunc_normal(0.02, size=3)
assert "scipy.special" in sys.modules
"""


def test_loading_and_encoding_a_checkpoint_never_imports_scipy(tmp_path):
    # scipy is imported only by weight draws (trunc_normal) and by ``veca verify``
    ckpt = tmp_path / "tiny.veca"
    save_model(ckpt, Encoder(get_preset("tiny-test"), seed=0))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", ENCODE_ONLY, str(ckpt)], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("# param-count config:")
