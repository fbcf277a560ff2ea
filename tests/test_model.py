"""Whole-model structure: configs, warm-start identity, checkpoints, BLAS-thread determinism."""

import collections
import dataclasses
import hashlib
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import subprocess_env
from demosaick import blocks, cfa, ops
from demosaick.checkpoint import load_checkpoint, load_checkpoint_bundle, save_checkpoint
from demosaick.errors import (
    CheckpointChecksumError,
    CheckpointConfigError,
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
)
from demosaick.model import (
    PRESETS,
    ModelConfig,
    ablation_config,
    build_model,
    default_config,
    param_count,
    param_table,
    preset_config,
    tiny_config,
)
from demosaick.losses import LossConfig, mixed_loss
from demosaick.tensor import ParamLeaf, Tape, backward, constant

# Frozen parameter budgets. The full-size model targets 5.91M (+-10% is the
# acceptance window); these exact values pin construction determinism.
EXPECTED_COUNTS = {
    "default": 5_485_196,
    "tiny": 160_688,
    "ablation1": 5_486_204,
    "ablation2": 5_563_772,
    "ablation3": 5_704_892,
}


def test_config_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="mixers_per_cell"):
        ModelConfig(mixers_per_cell=(1, 2, 3)).validate()
    with pytest.raises(ConfigError, match="channels_per_cell"):
        ModelConfig(channels_per_cell=(64, 192, 256, 192, 32)).validate()
    with pytest.raises(ConfigError, match="heads"):
        ModelConfig(channels_per_cell=(60, 192, 256, 192, 60)).validate()
    with pytest.raises(ConfigError, match="squeeze"):
        ModelConfig(channels_per_cell=(64, 200, 256, 200, 64)).validate()
    with pytest.raises(ConfigError, match="scales"):
        ModelConfig(scales=0).validate()
    with pytest.raises(ConfigError, match="window"):
        ModelConfig(window=0).validate()


def test_config_dict_roundtrip_and_unknown_keys():
    cfg = tiny_config(denoise=True)
    d = cfg.to_dict()
    assert ModelConfig.from_dict(d) == cfg
    d["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        ModelConfig.from_dict(d)


def test_config_properties():
    cfg = tiny_config()
    assert cfg.n_cells == 5
    assert cfg.in_channels == 4
    assert tiny_config(denoise=True).in_channels == 8
    assert cfg.pad_step == 4 * 2 ** 2
    assert default_config().pad_step == 8 * 4


def test_ablation_levels():
    assert ablation_config(1).use_deformable_input is False
    assert ablation_config(2).use_spectral_mixers is False
    assert ablation_config(3).use_window_attention is False
    with pytest.raises(ConfigError):
        ablation_config(4)


@pytest.mark.parametrize("name,make", [
    ("tiny", tiny_config),
    ("default", default_config),
    ("ablation1", lambda: ablation_config(1)),
    ("ablation2", lambda: ablation_config(2)),
    ("ablation3", lambda: ablation_config(3)),
])
def test_param_counts_frozen(name, make):
    model = build_model(make(), seed=0)
    assert param_count(model) == EXPECTED_COUNTS[name]


def test_param_count_within_ten_percent_of_report():
    full = param_count(build_model(default_config(), seed=0))
    assert abs(full - 5_910_000) / 5_910_000 <= 0.10


def test_param_table_groups_and_total():
    model = build_model(tiny_config(), seed=0)
    rows = param_table(model)
    names = [r[0] for r in rows]
    assert names[0] == "generator"
    assert "cells.0" in names and "cells.4" in names
    assert "samplers" in names and "predictor" in names
    assert rows[-1][0] == "total"
    assert rows[-1][1] == sum(r[1] for r in rows[:-1])
    assert rows[-1][1] == param_count(model)


def test_same_seed_same_weights_different_seed_differs():
    a = build_model(tiny_config(), seed=3)
    b = build_model(tiny_config(), seed=3)
    c = build_model(tiny_config(), seed=4)
    for la, lb in zip(a.leaves(), b.leaves()):
        np.testing.assert_array_equal(la.value.data, lb.value.data)
    assert any(
        not np.array_equal(lc.value.data, la.value.data)
        for la, lc in zip(a.leaves(), c.leaves())
    )


def test_leaf_names_unique_and_addressable():
    model = build_model(tiny_config(), seed=0)
    names = [leaf.name for leaf in model.leaves()]
    assert len(names) == len(set(names))
    assert model.leaf("predictor.refine.weight") is not None
    assert len(names) == 241


def test_initial_model_reproduces_nearest_neighbor_exactly():
    # the refine conv starts at zero, so the whole network contributes nothing
    rng = np.random.default_rng(0)
    model = build_model(tiny_config(), seed=0)
    m = rng.random((1, 64, 64)).astype(np.float32)
    out = model.predict(m)
    nn = np.clip(cfa.demosaic_nn(m.astype(model.dtype)), 0.0, 1.0)
    np.testing.assert_array_equal(out, nn.astype(np.float32))


def test_forward_shapes_and_batching():
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(1)
    batched = rng.random((2, 1, 32, 32)).astype(np.float32)
    out = model.predict(batched)
    assert out.shape == (2, 3, 32, 32)
    single = model.predict(batched[0])
    assert single.shape == (3, 32, 32)
    np.testing.assert_allclose(single, out[0], atol=1e-6)
    assert model.predict(batched[0, 0]).tobytes() == single.tobytes()  # (H, W)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_forward_pads_non_tile_sizes():
    # 24x40 mosaic -> packed 12x20, not a multiple of pad_step=16: must pad
    model = build_model(tiny_config(), seed=0)
    m = np.random.default_rng(2).random((1, 1, 24, 40)).astype(np.float32)
    out = model.predict(m)
    assert out.shape == (1, 3, 24, 40)


def test_forward_rejects_bad_inputs():
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ContractError):
        model.predict(np.zeros((1, 3, 8, 8), np.float32))  # not single-channel
    with pytest.raises(ContractError):
        model.predict(np.zeros(8, np.float32))  # not a plane
    with pytest.raises(ContractError):
        model.predict(np.zeros((1, 1, 7, 8), np.float32))  # odd extent
    with pytest.raises(ContractError):
        model.predict(np.zeros((1, 1, 8, 8), np.float32), sigma=0.1)  # no denoise head


def test_predict_names_the_mosaic_when_memory_runs_out(monkeypatch):
    model = build_model(tiny_config(), seed=0)

    def exhausted(*args, **kwargs):
        raise MemoryError("no room")

    monkeypatch.setattr(model, "forward", exhausted)
    for shape in ((24, 40), (1, 24, 40), (2, 1, 24, 40)):
        with pytest.raises(MemoryError, match=r"demosaicking a 24x40 mosaic \(no room\)"):
            model.predict(np.zeros(shape))


def test_preset_config_names_the_options():
    for bad in ("huge", [1], None):
        with pytest.raises(ConfigError, match="unknown model preset .*'default'"):
            preset_config(bad)


def test_predict_rejects_non_finite_mosaic_before_any_kernel(monkeypatch):
    model = build_model(tiny_config(), seed=0)
    calls = []
    real_conv2d = ops.conv2d
    monkeypatch.setattr(ops, "conv2d", lambda *a, **k: calls.append(1) or real_conv2d(*a, **k))
    for bad in (np.nan, np.inf, -np.inf):
        m = np.random.default_rng(4).random((1, 1, 32, 32))
        m[0, 0, 3, 9] = bad
        with pytest.raises(ContractError, match="non-finite"):
            model.predict(m)
    assert not calls


# SHA-256 of the newline-joined leaf names of each preset, recorded before
# the blocks listed their parameters by walking their attributes.
LEAF_NAME_DIGESTS = {
    "default": "01e49da2a9c2b9cfc24b62c74ad1c5588f7f0d143a48921b23b455f6cd35b068",
    "tiny": "8e8d83817fabed810b2f76c15993879a65b9cfa3236e0f070de10dd20c2cc450",
    "ablation1": "15312f8a8ac4d0433e99e6cfa4c003b4a38c7dddc2a09c160b6c5ac06428125d",
    "ablation2": "6d52eceaad51d3d33c59e86dd90634da716c4ba4dec58a8894803b2c2ff8c865",
    "ablation3": "25c6ffb633e06ef6b671a8d0a68f6ebb88ce013f4c3e93537193e11c385d11de",
}


@pytest.mark.parametrize("denoise", [False, True])
@pytest.mark.parametrize("name", sorted(LEAF_NAME_DIGESTS))
def test_leaf_names_and_order_are_pinned(name, denoise):
    cfg = dataclasses.replace(PRESETS[name](), denoise=denoise)
    names = [lf.name for lf in build_model(cfg, seed=0).leaves()]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == LEAF_NAME_DIGESTS[name]


def test_denoise_model_sigma_contract():
    model = build_model(tiny_config(denoise=True), seed=0)
    m = np.random.default_rng(3).random((2, 1, 32, 32)).astype(np.float32)
    with pytest.raises(ContractError):
        model.predict(m)  # sigma required
    with pytest.raises(ContractError):
        model.predict(m, sigma=[0.1, 0.2, 0.3])  # wrong length
    with pytest.raises(ContractError):
        model.predict(m, sigma=-0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError, match="sigma must be finite"):
            model.predict(m, sigma=bad)
        with pytest.raises(ContractError, match="sigma must be finite"):
            model.predict(m, sigma=[0.1, bad])
    out = model.predict(m, sigma=0.05)
    assert out.shape == (2, 3, 32, 32)
    per_image = model.predict(m, sigma=[0.05, 0.1])
    assert per_image.shape == (2, 3, 32, 32)
    # identical sigma and per-image sigma coincide for the first image
    np.testing.assert_allclose(per_image[0], out[0], atol=1e-6)


def test_sigma_conditioning_changes_output():
    model = build_model(tiny_config(denoise=True), seed=0)
    # noise conditioning feeds the trunk even though refine starts at zero,
    # so compare features: perturb one trunk weight to make the path live
    model.leaf("predictor.refine.weight").value.data[...] = 0.01
    m = np.random.default_rng(4).random((1, 1, 32, 32)).astype(np.float32)
    a = model.predict(m, sigma=0.0)
    b = model.predict(m, sigma=0.1)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# memory of a tape-free forward


def _traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate while ``fn`` runs, above what is alive before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_default_predict_peak_per_mosaic_pixel():
    # windowed attention runs in chunks and dead activations are released:
    # the peak was 2.35 KB per mosaic pixel when every window's logits and
    # every activation stayed alive to the end of the forward
    model = build_model(default_config(), seed=0)
    mosaic = np.random.default_rng(5).random((1, 1, 128, 128)).astype(np.float32)
    peak = _traced_peak(lambda: model.predict(mosaic))
    assert peak <= 1.5e3 * 128 * 128, f"{peak / 128 ** 2:.0f} bytes per mosaic pixel"


_DEFAULT_PEAK_SCRIPT = """
import tracemalloc
import numpy as np
from demosaick.model import build_model, default_config

model = build_model(default_config(), seed=0)
mosaic = np.random.default_rng(5).random((1, 1, 256, 256)).astype(np.float32)
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
model.predict(mosaic)
print(tracemalloc.get_traced_memory()[1] - base)
"""


def test_default_256_predict_peak_with_two_threads():
    # each of the pool's two threads holds one unit's scratch: 2 MiB of a
    # window chunk's logits, 1 MiB a buffer of a hidden layer and a padded
    # block of a tap loop's input; 4 MiB chunks whose MLP held the whole
    # 4x hidden layer twice, and depthwise convs padding their whole input,
    # traced 41.9 MiB. Two BLAS threads fix the pool's width on any runner
    # with two cores or more.
    proc = subprocess.run([sys.executable, "-c", _DEFAULT_PEAK_SCRIPT],
                          env=subprocess_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout.strip())
    assert peak <= 32 << 20, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("side", [256, 384])
def test_tiny_predict_peak_per_mosaic_pixel(side):
    # the deformable front end samples one block of pixels at a time: the
    # whole image's int64 sampling indices set an 862-byte peak per pixel
    model = build_model(tiny_config(), seed=0)
    mosaic = np.random.default_rng(5).random((1, 1, side, side)).astype(np.float32)
    peak = _traced_peak(lambda: model.predict(mosaic))
    assert peak <= 450 * side * side, f"{peak / side ** 2:.0f} bytes per mosaic pixel"


def test_tiny_train_step_tape_is_unchanged():
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(6)
    with Tape() as tape:
        pred = model.forward(rng.random((4, 1, 64, 64)))
        loss = mixed_loss(pred, rng.random((4, 3, 64, 64)), LossConfig())
    assert len(tape) == 548
    assert tape.nodes[-1].out_key == loss._key


def test_tiny_train_step_records_only_what_its_backward_reaches():
    # the loss built both the mean SSIM and the mean contrast-structure at
    # every scale, though its product reads one of them: 19 recorded nodes
    # (6 mul, 6 add, 3 mean, 2 div, 2 scale) no gradient reached
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(6)
    with Tape() as tape:
        pred = model.forward(rng.random((4, 1, 64, 64)))
        loss = mixed_loss(pred, rng.random((4, 3, 64, 64)), LossConfig())
    live, dead = {loss._key}, collections.Counter()
    for node in reversed(tape.nodes):  # a node's consumers all come after it
        if node.out_key in live:
            live.update(key for key, _, _ in node.inputs)
        else:
            dead[node.op] += 1
    assert not dead, dict(dead)


def test_tiny_train_step_peak():
    # a node holds no tensor and the sweep drops each backward rule once it
    # has run: the step traced 126.9 MiB while every node kept its inputs and
    # output alive to the end of the step, and 86.3 MiB without
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(6)
    bayer, target = rng.random((4, 1, 64, 64)), rng.random((4, 3, 64, 64))

    def step():
        with Tape() as tape:
            loss = mixed_loss(model.forward(bayer), target, LossConfig())
            backward(loss, tape)

    peak = _traced_peak(step)
    assert peak < 100 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


def test_tiny_train_step_peak_with_one_array_per_gelu():
    # a recorded GELU keeps only its derivative, neither its input nor Phi:
    # the step traced 86.3 MiB when each GELU kept two arrays, 72.3 MiB now
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(6)
    bayer, target = rng.random((4, 1, 64, 64)), rng.random((4, 3, 64, 64))

    def step():
        with Tape() as tape:
            loss = mixed_loss(model.forward(bayer), target, LossConfig())
            backward(loss, tape)

    peak = _traced_peak(step)
    assert peak < 78 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


def test_gelu_keeps_its_cdf_only_for_a_recorded_node():
    x = np.random.default_rng(7).standard_normal((64, 64, 64)).astype(np.float32)
    size = x.nbytes  # 1 MiB
    peak = _traced_peak(lambda: ops.gelu(constant(x, dtype=np.float32)))
    assert size <= peak < 1.5 * size  # the output buffer only
    p = ParamLeaf("p", x, dtype=np.float32)
    with Tape():
        peak = _traced_peak(lambda: ops.gelu(p.value))
    assert peak >= 2 * size  # output and the CDF the backward reads


# ---------------------------------------------------------------------------
# checkpoints


def trained_like_model():
    model = build_model(tiny_config(), seed=1)
    rng = np.random.default_rng(9)
    for leaf in model.leaves():
        leaf.value.data += rng.standard_normal(leaf.value.shape).astype(model.dtype) * 0.01
    return model


def test_checkpoint_roundtrip_restores_everything(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, extra_arrays={"opt.step": np.array([7.0])},
                    meta={"step": 7})
    loaded, extras, meta = load_checkpoint_bundle(path)
    assert meta == {"step": 7}
    np.testing.assert_array_equal(extras["opt.step"], [7.0])
    assert loaded.config == model.config
    for la, lb in zip(model.leaves(), loaded.leaves()):
        assert la.name == lb.name
        np.testing.assert_array_equal(la.value.data, lb.value.data)
    m = np.random.default_rng(5).random((1, 1, 32, 32)).astype(np.float32)
    np.testing.assert_array_equal(model.predict(m), loaded.predict(m))


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = trained_like_model()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, p1, extra_arrays={"opt.m.x": np.arange(3.0)}, meta={"step": 2})
    loaded, extras, meta = load_checkpoint_bundle(p1)
    save_checkpoint(loaded, p2, extra_arrays=extras, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_version_error(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    hacked = blob.replace(b'"version":1', b'"version":9', 1)
    path.write_bytes(hacked)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_checksum_error_on_corruption(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_checkpoint_checksum_error_on_truncation(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_checkpoint_config_mismatch(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    wrong = dataclasses.replace(tiny_config(), window=8, heads=8)
    with pytest.raises(CheckpointConfigError, match="window"):
        load_checkpoint(path, expect_config=wrong)
    # matching expectation passes
    load_checkpoint(path, expect_config=tiny_config())


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b'{"format":"something-else"}\n')
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b"\x89PNG\r\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "missing.ckpt")


def _edit_header(path, edit):
    """Rewrite the header line of the checkpoint at ``path`` through ``edit``."""
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
                     + payload)


# header edits that leave the payload and its checksum intact
MALFORMED_INDEXES = {
    "params_not_a_list": lambda h: h.update(params=5),
    "params_missing": lambda h: h.pop("params"),
    "param_offset_a_string": lambda h: h["params"][0].__setitem__(2, "x"),
    "param_offset_negative": lambda h: h["params"][0].__setitem__(2, -4),
    "param_shape_not_a_list": lambda h: h["params"][0].__setitem__(1, 3),
    "param_shape_negative": lambda h: h["params"][0].__setitem__(1, [-1]),
    "param_name_not_a_string": lambda h: h["params"][0].__setitem__(0, 7),
    "param_entry_short": lambda h: h["params"][0].pop(),
    "extra_offset_a_string": lambda h: h["extra"][0].__setitem__(2, "zz"),
    "extra_not_a_list": lambda h: h.update(extra={"a": 1}),
    "meta_not_an_object": lambda h: h.update(meta=[1]),
    "dtype_a_list": lambda h: h.update(dtype=["float32"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INDEXES))
def test_checkpoint_rejects_a_malformed_index(tmp_path, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(trained_like_model(), path, extra_arrays={"opt.step": np.ones(1)})
    _edit_header(path, MALFORMED_INDEXES[case])
    with pytest.raises(CheckpointError):
        load_checkpoint_bundle(path)


def test_a_large_header_window_is_refused_before_any_index_is_built(tmp_path, capsys):
    # a window transformer builds its relative-position index where it uses
    # it: kept from construction, a window-40 header made the skeleton build
    # indices of 8 * 40^4 bytes (196.8 MiB traced) before the shape check
    from demosaick.cli import main
    from demosaick.imageio import write_pgm
    path = tmp_path / "m.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), path)
    _edit_header(path, lambda h: h["config"].update(window=40))

    def load():
        with pytest.raises(CheckpointError, match="bias_table"):
            load_checkpoint(path)

    peak = _traced_peak(load)
    assert peak < 4 << 20, f"{peak / 2 ** 20:.1f} MiB"
    write_pgm(tmp_path / "m.pgm", np.zeros((16, 16)))
    assert main(["demosaic", str(tmp_path / "m.pgm"), str(tmp_path / "r.ppm"),
                 "--checkpoint", str(path)]) == 3
    assert "bias_table" in capsys.readouterr().err


def test_checkpoint_preserves_dtype(tmp_path):
    model = build_model(tiny_config(), seed=0, dtype=np.float64)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dtype == np.float64
    assert loaded.leaves()[0].value.data.dtype == np.float64


def test_built_and_loaded_models_hold_no_gradients(tmp_path):
    model = trained_like_model()
    mosaic = np.random.default_rng(5).random((1, 1, 32, 32)).astype(np.float32)
    model.predict(mosaic)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    loaded.predict(mosaic)
    for m in (model, loaded):
        assert all(lf._grad is None for lf in m.leaves())
    lf = loaded.leaves()[0]
    assert lf.grad.shape == lf.shape and lf.grad.dtype == np.float32 and not lf.grad.any()


@pytest.mark.parametrize("preset", ["tiny", "default"])
def test_building_a_model_traces_about_its_parameter_bytes(preset):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = build_model(PRESETS[preset](), seed=0)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    params = param_count(model) * 4
    # a gradient per leaf allocated at construction made it twice the parameters
    assert held < 1.5 * params, f"{held / params:.2f} x the parameter bytes"


@pytest.mark.parametrize("preset", ["tiny", "ablation3"])
def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch, preset):
    model = build_model(PRESETS[preset](), seed=3)
    rng = np.random.default_rng(8)
    for leaf in model.leaves():
        leaf.value.data += rng.standard_normal(leaf.shape).astype(np.float32) * 0.01
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("weights drawn")

    monkeypatch.setattr(blocks, "kaiming_normal", no_draw)
    monkeypatch.setattr(blocks, "trunc_normal", no_draw)
    with pytest.raises(AssertionError, match="weights drawn"):
        build_model(PRESETS[preset](), seed=0)
    loaded = load_checkpoint(path)
    assert ([(lf.name, lf.shape) for lf in loaded.leaves()]
            == [(lf.name, lf.shape) for lf in model.leaves()])
    for a, b in zip(model.leaves(), loaded.leaves()):
        assert a.value.data.tobytes() == b.value.data.tobytes()
    mosaic = np.random.default_rng(6).random((1, 1, 64, 64)).astype(np.float32)
    assert model.predict(mosaic).tobytes() == loaded.predict(mosaic).tobytes()


def test_checkpoint_save_builds_no_payload_copy(tmp_path):
    model = build_model(default_config(), seed=0)
    path = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_checkpoint(model, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    payload = param_count(model) * 4
    # chunks, their join and header + payload held it three times over
    assert peak < payload / 8, f"{peak / 2 ** 20:.1f} MiB"


def test_checkpoint_load_holds_about_one_payload(tmp_path):
    path = tmp_path / "m.ckpt"
    model = build_model(default_config(), seed=0)
    save_checkpoint(model, path)
    payload = param_count(model) * 4
    del model
    peak = _traced_peak(lambda: load_checkpoint(path))
    # the whole file, its unpacked copies and a skeleton of written zeros
    # traced three payloads
    assert peak < 1.25 * payload, f"{peak / 2 ** 20:.1f} MiB"


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def test_loaded_leaves_keep_no_optimizer_state_alive(tmp_path):
    model = build_model(tiny_config(), seed=0)
    path = tmp_path / "m.ckpt"
    state = {f"opt.m.{lf.name}": np.ones_like(lf.value.data) for lf in model.leaves()}
    save_checkpoint(model, path, extra_arrays=state)
    loaded, extras, _ = load_checkpoint_bundle(path)
    leaf_roots = {id(_root(lf.value.data)) for lf in loaded.leaves()}
    assert leaf_roots.isdisjoint(id(_root(a)) for a in extras.values())
    for lf in loaded.leaves():
        assert lf.value.data.flags.writeable
        assert lf.value.data.tobytes() == model.leaf(lf.name).value.data.tobytes()
    assert all(a.tobytes() == state[k].astype(np.float32).tobytes() for k, a in extras.items())


_THREAD_HASH_SCRIPT = """
import hashlib
import sys
import numpy as np
from demosaick.losses import LossConfig, mixed_loss
from demosaick.model import build_model, default_config, tiny_config
from demosaick.tensor import Tape, backward, precision, zero_grads

h = hashlib.sha256()
rng = np.random.default_rng(0)
with precision(sys.argv[1]):
    model = build_model(tiny_config(), seed=0)
    # the zero-initialised refine conv would give the whole body zero gradients
    refine = model.leaf("predictor.refine.weight")
    refine.value.data[...] = rng.normal(0.0, 2.5e-3, refine.shape)
    zero_grads(model.leaves())
    with Tape() as tape:
        pred = model.forward(rng.random((2, 1, 32, 32)))
        backward(mixed_loss(pred, rng.random((2, 3, 32, 32)), LossConfig()), tape)
    h.update(pred.data.tobytes())
    for leaf in model.leaves():
        assert leaf.grad.any(), leaf.name
        h.update(leaf.grad.tobytes())
    # every weight perturbed, predictor.refine too (at zero it hides the body),
    # so the fused units run 1 and 2 ways on the pool's threads
    default = build_model(default_config(), seed=0)
    for leaf in default.leaves():
        leaf.value.data[...] += 0.02 * rng.standard_normal(leaf.shape)
    h.update(default.predict(rng.random((1, 1, 128, 128))).tobytes())
print(h.hexdigest())
"""


def test_outputs_and_gradients_do_not_depend_on_blas_threads():
    # batched matmuls, the flat weight-gradient GEMMs and the tape-free units
    # of a prediction must not pick up a thread-count-dependent reduction
    # order, in either precision
    for mode in ("standard", "high"):
        digests = []
        for threads in ("1", "2"):
            env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _THREAD_HASH_SCRIPT, mode], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1], mode
