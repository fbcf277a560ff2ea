"""End-to-end command-line tests: subcommands, exit codes, config precedence.

Everything runs in-process through ``main(argv)`` against temp directories;
one subprocess test confirms the installed console script wires up.
"""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from demosaick import cfa
from demosaick.checkpoint import load_checkpoint, save_checkpoint
from demosaick.cli import main
from demosaick.imageio import read_pfm, read_pgm, read_ppm, write_ppm
from demosaick.model import build_model, tiny_config


def _rgb(seed=0, side=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(3, side, side)).astype(np.float64) / 255.0


def _smooth_rgb(seed=0, side=64):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / side
    img = np.stack([yy, xx, 0.5 * (yy + xx)]) + 0.05 * rng.random((3, side, side))
    return np.clip(img, 0.0, 1.0)


def _dataset(tmp_path, n=2, side=64):
    d = tmp_path / "data"
    d.mkdir()
    for i in range(n):
        write_ppm(d / f"img{i}.ppm", _rgb(seed=i, side=side))
    return d


def _quantize(img):
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5) / 255.0


def test_mosaic_clean_matches_library(tmp_path):
    src = tmp_path / "in.ppm"
    out = tmp_path / "out.pgm"
    img = _rgb()
    write_ppm(src, img)
    assert main(["mosaic", str(src), str(out)]) == 0
    # 8-bit lattice values quantize exactly, so the file equals cfa.mosaic
    assert np.array_equal(read_pgm(out), cfa.mosaic(img))
    assert not (tmp_path / "out.pgm.json").exists()


def test_mosaic_sigma_zero_is_byte_identical_to_clean(tmp_path):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb(seed=1))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["mosaic", str(src), str(a)]) == 0
    assert main(["mosaic", str(src), str(b), "--sigma", "0"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert not (tmp_path / "b.pgm.json").exists()


def test_mosaic_noise_sidecar_and_determinism(tmp_path):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb(seed=2))
    a, b, c = (tmp_path / n for n in ("a.pgm", "b.pgm", "c.pgm"))
    assert main(["mosaic", str(src), str(a), "--sigma", "5", "--seed", "3"]) == 0
    side = json.loads((tmp_path / "a.pgm.json").read_text())
    assert side == {"seed": 3, "sigma": 5 / 255.0, "sigma_8bit": 5.0}
    assert main(["mosaic", str(src), str(b), "--sigma", "5", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["mosaic", str(src), str(c), "--sigma", "5", "--seed", "4"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_mosaic_pfm_holds_unquantized_values(tmp_path):
    src = tmp_path / "in.ppm"
    img = _rgb(seed=3)
    write_ppm(src, img)
    out, pfm = tmp_path / "m.pgm", tmp_path / "m.pfm"
    assert main(["mosaic", str(src), str(out), "--pfm", str(pfm)]) == 0
    expect = cfa.mosaic(img).astype(np.float32).astype(np.float64)
    assert np.array_equal(read_pfm(pfm), expect)


def test_mosaic_negative_sigma_exit_3(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb())
    assert main(["mosaic", str(src), str(tmp_path / "o.pgm"), "--sigma", "-1"]) == 3
    assert "non-negative" in capsys.readouterr().err


def test_demosaic_nn_matches_library(tmp_path):
    img = _rgb(seed=4, side=32)
    mos = cfa.mosaic(img)
    src = tmp_path / "m.pgm"
    rec = tmp_path / "r.ppm"
    from demosaick.imageio import write_pgm
    write_pgm(src, mos)
    assert main(["demosaic", str(src), str(rec), "--nn"]) == 0
    expect = _quantize(np.clip(cfa.demosaic_nn(mos), 0.0, 1.0))
    assert np.array_equal(read_ppm(rec), expect)


def test_demosaic_requires_model_choice(tmp_path, capsys):
    from demosaick.imageio import write_pgm
    src = tmp_path / "m.pgm"
    write_pgm(src, cfa.mosaic(_rgb(side=16)))
    assert main(["demosaic", str(src), str(tmp_path / "r.ppm")]) == 1
    assert "--checkpoint or --nn" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:ms_ssim")
def test_demosaic_checkpoint_with_reference_metrics(tmp_path, capsys):
    img = _smooth_rgb(seed=5)
    ref = tmp_path / "ref.ppm"
    write_ppm(ref, img)
    from demosaick.imageio import write_pgm
    src = tmp_path / "m.pgm"
    write_pgm(src, cfa.mosaic(img))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt)

    rec = tmp_path / "r.ppm"
    pfm = tmp_path / "r.pfm"
    code = main(["demosaic", str(src), str(rec), "--checkpoint", str(ckpt),
                 "--ref", str(ref), "--pfm", str(pfm)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    m = re.fullmatch(
        r"psnr_db=(\d+\.\d{4}) ssim=(-?\d\.\d{6}) ms_ssim=(-?\d\.\d{6})", line)
    assert m, line
    assert float(m.group(1)) > 20.0
    assert read_ppm(rec).shape == (3, 64, 64)
    assert read_pfm(pfm).shape == (3, 64, 64)


def test_demosaic_sigma_on_plain_model_exit_3(tmp_path, capsys):
    from demosaick.imageio import write_pgm
    src = tmp_path / "m.pgm"
    write_pgm(src, cfa.mosaic(_rgb(side=32)))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt)
    code = main(["demosaic", str(src), str(tmp_path / "r.ppm"),
                 "--checkpoint", str(ckpt), "--sigma", "5"])
    assert code == 3
    assert "sigma" in capsys.readouterr().err


def test_demosaic_with_a_huge_block_count_in_the_checkpoint_header_exits_3_fast(tmp_path):
    # the checksum covers the payload only, so this edited header passes it;
    # building its 3e11 mixers before comparing the index would run for years
    from demosaick.imageio import write_pgm
    src = tmp_path / "m.pgm"
    write_pgm(src, cfa.mosaic(_rgb(side=32)))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt)
    blob = ckpt.read_bytes()
    good = b'"mixers_per_cell":[2,1,0,1,2]'
    assert blob.count(good) == 1
    ckpt.write_bytes(blob.replace(good, b'"mixers_per_cell":[2,1,0,1,299999999999]'))
    proc = subprocess.run(
        [sys.executable, "-c", _EVAL_SCRIPT, "demosaic", str(src), str(tmp_path / "r.ppm"),
         "--checkpoint", str(ckpt)],
        env=subprocess_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert "blocks" in proc.stderr and len(proc.stderr) < 1000


def test_demosaic_accepts_pfm_input(tmp_path):
    from demosaick.imageio import write_pfm
    src = tmp_path / "m.pfm"
    write_pfm(src, cfa.mosaic(_rgb(seed=6, side=32)))
    assert main(["demosaic", str(src), str(tmp_path / "r.ppm"), "--nn"]) == 0


def test_demosaic_rejects_rgb_input_exit_3(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb(side=16))
    assert main(["demosaic", str(src), str(tmp_path / "r.ppm"), "--nn"]) == 3
    assert "single-channel" in capsys.readouterr().err


def test_missing_input_exit_2(tmp_path, capsys):
    assert main(["mosaic", str(tmp_path / "nope.ppm"), str(tmp_path / "o.pgm")]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert main(["demosaic", str(tmp_path / "nope.pgm"),
                 str(tmp_path / "o.ppm"), "--nn"]) == 2


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["train", "--out", str(tmp_path / "o")]) == 1  # missing --dataset
    assert main(["eval", "--dataset", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_train_cli_end_to_end(tmp_path):
    data = _dataset(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(data), "--out", str(out),
                 "--preset", "tiny", "--steps", "2", "--batch-size", "1",
                 "--patch-size", "32", "--quiet"])
    assert code == 0

    cfg = json.loads((out / "config.json").read_text())
    assert cfg["model"]["preset"] == "tiny"
    assert cfg["train"]["total_steps"] == 2
    assert cfg["train"]["batch_size"] == 1
    assert cfg["loss"]["alpha"] == 0.16

    model = load_checkpoint(out / "final.ckpt")
    assert model.config == tiny_config()

    lines = (out / "history.csv").read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss,val_psnr_db"
    assert len(lines) == 3


def test_train_config_precedence_and_echo(tmp_path):
    data = _dataset(tmp_path)
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({
        "model": {"preset": "tiny"},
        "train": {"total_steps": 5, "base_lr": 1e-3, "batch_size": 1,
                  "patch_size": 32, "val_interval": 100},
    }))
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(data), "--out", str(out),
                 "--config", str(cfg_file), "--quiet",
                 "--set", "train.total_steps=2", "--set", "train.base_lr=0.0005",
                 "--lr", "0.0002"])
    assert code == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["train"]["total_steps"] == 2      # --set beats the file
    assert cfg["train"]["base_lr"] == 0.0002     # flag beats --set
    assert cfg["model"]["preset"] == "tiny"


def test_train_rejects_unknown_keys(tmp_path, capsys):
    data = _dataset(tmp_path)
    out = tmp_path / "o"
    base = ["train", "--dataset", str(data), "--out", str(out), "--quiet",
            "--preset", "tiny", "--steps", "1", "--batch-size", "1",
            "--patch-size", "32"]
    assert main(base + ["--set", "train.bogus=1"]) == 3
    assert main(base + ["--set", "nowhere.key=1"]) == 3
    assert main(base + ["--set", "malformed"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(base + ["--config", str(bad)]) == 3
    sections = tmp_path / "sections.json"
    sections.write_text(json.dumps({"optimizer": {}}))
    assert main(base + ["--config", str(sections)]) == 3
    capsys.readouterr()
    _assert_malformed_configs_exit_3(tmp_path, base, capsys)


# A section that is not a JSON object, a top level that is not one, and a file
# that is not UTF-8 are each refused with exit 3 naming the file.
_MALFORMED_CONFIGS = [
    (b'{"model": "abc"}', "section 'model' must be a JSON object"),
    (b'{"model": 5}', "section 'model' must be a JSON object"),
    (b'{"model": null}', "section 'model' must be a JSON object"),
    (b'{"train": []}', "section 'train' must be a JSON object"),
    (b'{"model": [["preset", "tiny"]]}', "section 'model' must be a JSON object"),
    (b'[{"model": {}}]', "top level must be a JSON object"),
    (b'{"model": {"preset": "\xff"}}', "not valid JSON"),
]


def _assert_malformed_configs_exit_3(tmp_path, base, capsys):
    for i, (blob, msg) in enumerate(_MALFORMED_CONFIGS):
        cfg = tmp_path / f"malformed{i}.json"
        cfg.write_bytes(blob)
        assert main(base + ["--config", str(cfg)]) == 3, blob
        err = capsys.readouterr().err
        assert f"{cfg}: {msg}" in err, (blob, err)


def test_eval_rejects_malformed_config(tmp_path, capsys):
    data = _dataset(tmp_path, n=1, side=16)
    base = ["eval", "--dataset", str(data), "--out", str(tmp_path / "o"), "--nn"]
    _assert_malformed_configs_exit_3(tmp_path, base, capsys)
    assert not (tmp_path / "o").exists()


def test_train_resume_flag(tmp_path):
    data = _dataset(tmp_path)
    out1 = tmp_path / "r1"
    args = ["train", "--dataset", str(data), "--preset", "tiny", "--steps", "2",
            "--batch-size", "1", "--patch-size", "32", "--quiet",
            "--set", "train.checkpoint_interval=1"]
    assert main(args + ["--out", str(out1)]) == 0
    out2 = tmp_path / "r2"
    assert main(args + ["--out", str(out2),
                        "--resume", str(out1 / "step000001.ckpt")]) == 0
    a = load_checkpoint(out1 / "final.ckpt")
    b = load_checkpoint(out2 / "final.ckpt")
    for lf in a.leaves():
        assert np.array_equal(lf.value.data, b.leaf(lf.name).value.data), lf.name


def test_train_resume_beyond_steps_exits_3(tmp_path, capsys):
    data = _dataset(tmp_path)
    args = ["train", "--dataset", str(data), "--preset", "tiny",
            "--batch-size", "1", "--patch-size", "32", "--quiet"]
    out1 = tmp_path / "r1"
    assert main(args + ["--out", str(out1), "--steps", "2"]) == 0
    out2 = tmp_path / "r2"
    assert main(args + ["--out", str(out2), "--steps", "1",
                        "--resume", str(out1 / "final.ckpt")]) == 3
    assert "total_steps" in capsys.readouterr().err
    assert not (out2 / "final.ckpt").exists()


def test_train_resume_without_optimizer_state_exits_3(tmp_path, capsys):
    data = _dataset(tmp_path)
    ckpt = tmp_path / "weights.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt)
    out = tmp_path / "r"
    assert main(["train", "--dataset", str(data), "--preset", "tiny", "--steps", "2",
                 "--batch-size", "1", "--patch-size", "32", "--quiet", "--out", str(out),
                 "--resume", str(ckpt)]) == 3
    assert "opt.step" in capsys.readouterr().err
    assert not (out / "final.ckpt").exists()


@pytest.mark.parametrize("meta,key", [
    ({"step": 1, "train_config": 5}, "train_config"),
    ({"step": 1, "loss_config": []}, "loss_config"),
    ({"step": "x"}, "step"),
    ({"step": [1]}, "step"),
])
def test_train_resume_with_malformed_meta_exits_3_naming_the_key(tmp_path, capsys, meta, key):
    from demosaick.training import AdamW, TrainConfig
    data = _dataset(tmp_path)
    model = build_model(tiny_config(), seed=0)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(model, ckpt, extra_arrays=AdamW(model.leaves(), TrainConfig()).state_arrays(),
                    meta=meta)
    out = tmp_path / "r"
    assert main(["train", "--dataset", str(data), "--preset", "tiny", "--steps", "2",
                 "--batch-size", "1", "--patch-size", "32", "--quiet", "--out", str(out),
                 "--resume", str(ckpt)]) == 3
    assert f"'{key}'" in capsys.readouterr().err
    assert not (out / "final.ckpt").exists()


@pytest.mark.filterwarnings("ignore:ms_ssim")
def test_eval_nn_reports_and_determinism(tmp_path, capsys):
    data = _dataset(tmp_path, n=2, side=32)
    out1 = tmp_path / "e1"
    code = main(["eval", "--dataset", str(data), "--out", str(out1), "--nn",
                 "--sigmas", "0,5", "--seed", "1", "--dump-images"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("sigma=") == 2
    assert "(2 images)" in stdout

    for stem in ("report_sigma0", "report_sigma5"):
        csv = (out1 / f"{stem}.csv").read_text().strip().split("\n")
        assert csv[0].startswith("# dataset=data sigma=")
        assert "model=nearest-neighbor" in csv[0]
        assert csv[1] == "image,psnr_db,ssim,ms_ssim"
        assert len(csv) == 5  # 2 images + mean row
        assert csv[-1].startswith("mean,")
        assert (out1 / f"{stem}.md").exists()
    assert sorted(p.name for p in (out1 / "images").iterdir()) == [
        "img0_s0.ppm", "img0_s5.ppm", "img1_s0.ppm", "img1_s5.ppm"]

    out2 = tmp_path / "e2"
    assert main(["eval", "--dataset", str(data), "--out", str(out2), "--nn",
                 "--sigmas", "0,5", "--seed", "1"]) == 0
    capsys.readouterr()
    for stem in ("report_sigma0", "report_sigma5"):
        assert (out1 / f"{stem}.csv").read_bytes() == (out2 / f"{stem}.csv").read_bytes()


_EVAL_SCRIPT = "import sys; from demosaick.cli import main; sys.exit(main(sys.argv[1:]))"


def test_eval_reports_do_not_depend_on_blas_threads(tmp_path):
    data = _dataset(tmp_path, n=2, side=64)
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(0)
    for leaf in model.leaves():  # step off the warm-start identity
        leaf.value.data[...] += 0.01 * rng.standard_normal(leaf.shape)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _EVAL_SCRIPT, "eval", "--dataset", str(data),
             "--out", str(out), "--checkpoint", str(ckpt), "--sigmas", "0,15", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        reports.append({p.name: p.read_bytes() for p in sorted(out.glob("report_*"))})
    assert sorted(reports[0]) == ["report_sigma0.csv", "report_sigma0.md",
                                  "report_sigma15.csv", "report_sigma15.md"]
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("ignore:ms_ssim")
def test_eval_checkpoint_equals_nn_at_warm_start(tmp_path, capsys):
    # The freshly built model's predictor is exactly the duplicate-pixel
    # baseline, so both eval paths must produce identical reports.
    data = _dataset(tmp_path, n=2, side=32)
    ckpt = tmp_path / "m.ckpt"
    # float64 so the warm-start output carries no float32 rounding
    save_checkpoint(build_model(tiny_config(), seed=0, dtype=np.float64), ckpt)
    out_nn, out_ck = tmp_path / "nn", tmp_path / "ck"
    assert main(["eval", "--dataset", str(data), "--out", str(out_nn), "--nn"]) == 0
    assert main(["eval", "--dataset", str(data), "--out", str(out_ck),
                 "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    nn_rows = (out_nn / "report_sigma0.csv").read_text().split("\n")[1:]
    ck_rows = (out_ck / "report_sigma0.csv").read_text().split("\n")[1:]
    assert nn_rows == ck_rows
    cfg = json.loads((out_ck / "config.json").read_text())
    assert cfg["model_source"] == "m.ckpt"
    assert cfg["model"]["channels_per_cell"] == list(tiny_config().channels_per_cell)


def test_eval_sigma_parsing_errors(tmp_path, capsys):
    data = _dataset(tmp_path, n=1, side=32)
    out = tmp_path / "o"
    assert main(["eval", "--dataset", str(data), "--out", str(out), "--nn",
                 "--sigmas", "a,b"]) == 1
    assert main(["eval", "--dataset", str(data), "--out", str(out), "--nn",
                 "--sigmas", "-3"]) == 3
    capsys.readouterr()


def test_eval_empty_dataset_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--dataset", str(empty), "--out", str(tmp_path / "o"),
                 "--nn"]) == 2
    assert main(["eval", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o"), "--nn"]) == 2
    capsys.readouterr()


def test_console_script_runs(tmp_path):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb(side=16))
    out = tmp_path / "out.pgm"
    proc = subprocess.run([sys.executable, "-m", "demosaick.cli", "mosaic",
                           str(src), str(out)],
                          env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_train_resume_with_other_batch_size_exits_3(tmp_path, capsys):
    data = _dataset(tmp_path)
    args = ["train", "--dataset", str(data), "--preset", "tiny", "--patch-size", "32",
            "--quiet"]
    out1 = tmp_path / "r1"
    assert main(args + ["--out", str(out1), "--steps", "1", "--batch-size", "1"]) == 0
    out2 = tmp_path / "r2"
    assert main(args + ["--out", str(out2), "--steps", "2", "--batch-size", "2",
                        "--resume", str(out1 / "final.ckpt")]) == 3
    assert "train.batch_size" in capsys.readouterr().err
    assert not (out2 / "final.ckpt").exists()


def test_train_resume_with_other_learning_rate_exits_3(tmp_path, capsys):
    data = _dataset(tmp_path)
    args = ["train", "--dataset", str(data), "--preset", "tiny", "--patch-size", "32",
            "--batch-size", "1", "--quiet"]
    out1 = tmp_path / "r1"
    assert main(args + ["--out", str(out1), "--steps", "1"]) == 0
    out2 = tmp_path / "r2"
    assert main(args + ["--out", str(out2), "--steps", "2", "--lr", "1e-4",
                        "--resume", str(out1 / "final.ckpt")]) == 3
    assert "train.base_lr" in capsys.readouterr().err
    assert not (out2 / "final.ckpt").exists()


@pytest.mark.parametrize("override,field", [
    ("train.base_lr=abc", "base_lr"),
    ("train.seed=null", "seed"),
    ("loss.alpha=abc", "alpha"),
    ("model.window=true", "window"),
    ("train.base_lr=NaN", "base_lr"),
    ("train.noise_high=Infinity", "noise_high"),
    ("loss.ms_weights=[0.5, Infinity]", "ms_weights"),
])
def test_train_ill_typed_setting_exits_3_naming_the_field(tmp_path, capsys, override, field):
    data = _dataset(tmp_path, n=1)
    out = tmp_path / "o"
    assert main(["train", "--dataset", str(data), "--out", str(out), "--quiet",
                 "--preset", "tiny", "--steps", "1", "--batch-size", "1",
                 "--patch-size", "32", "--set", override]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ("eval.seed=abc", "seed"),
    ('eval.sigmas=["a"]', "sigmas"),
    ("eval.sigmas=[true]", "sigmas"),
    ("eval.sigmas=[Infinity]", "sigmas"),
])
def test_eval_ill_typed_setting_exits_3_naming_the_field(tmp_path, capsys, override, field):
    data = _dataset(tmp_path, n=1, side=32)
    out = tmp_path / "o"
    assert main(["eval", "--dataset", str(data), "--out", str(out), "--nn",
                 "--set", override]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:ms_ssim")
def test_eval_echoes_sigmas_as_floats(tmp_path, capsys):
    data = _dataset(tmp_path, n=1, side=32)
    out = tmp_path / "o"
    assert main(["eval", "--dataset", str(data), "--out", str(out), "--nn",
                 "--set", "eval.sigmas=[0, 5]", "--set", "eval.seed=2"]) == 0
    capsys.readouterr()
    echo = json.loads((out / "config.json").read_text())["eval"]
    assert echo == {"sigmas": [0.0, 5.0], "seed": 2}
    assert [type(s) for s in echo["sigmas"]] == [float, float]
    assert sorted(p.name for p in out.glob("report_*.csv")) == [
        "report_sigma0.csv", "report_sigma5.csv"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_demosaic_non_finite_mosaic_exits_3(tmp_path, capsys, bad):
    from demosaick.imageio import write_pfm
    mos = cfa.mosaic(_rgb(side=32))
    mos[0, 4, 6] = bad
    src = tmp_path / "m.pfm"
    write_pfm(src, mos)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt)
    for how in (["--nn"], ["--checkpoint", str(ckpt)]):
        out = tmp_path / "r.ppm"
        assert main(["demosaic", str(src), str(out)] + how) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("header", [b"Pf\n-4 2\n-1.0\n", b"Pf\n0 2\n-1.0\n"])
def test_demosaic_pfm_with_bad_dimensions_exits_2(tmp_path, capsys, header):
    src = tmp_path / "m.pfm"
    src.write_bytes(header + bytes(32))
    out = tmp_path / "r.ppm"
    assert main(["demosaic", str(src), str(out), "--nn"]) == 2
    assert "bad dimensions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_mosaic_non_finite_sigma_exits_3(tmp_path, capsys, sigma):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb(side=16))
    out = tmp_path / "o.pgm"
    assert main(["mosaic", str(src), str(out), f"--sigma={sigma}"]) == 3
    assert "--sigma" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o.pgm.json").exists()


@pytest.mark.parametrize("flags", [["--sigmas", "inf"], ["--sigmas", "0,nan"]])
def test_eval_non_finite_sigma_exits_3(tmp_path, capsys, flags):
    data = _dataset(tmp_path, n=1, side=32)
    out = tmp_path / "o"
    assert main(["eval", "--dataset", str(data), "--out", str(out), "--nn"] + flags) == 3
    assert "sigmas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset", ['"huge"', "[1]", "{}"])
def test_train_unknown_preset_in_config_exits_3(tmp_path, capsys, preset):
    data = _dataset(tmp_path, n=1)
    out = tmp_path / "o"
    assert main(["train", "--dataset", str(data), "--out", str(out), "--quiet",
                 "--set", f"model.preset={preset}"]) == 3
    assert "unknown model preset" in capsys.readouterr().err
    assert not out.exists()


def test_train_non_finite_flag_or_config_file_exits_3(tmp_path, capsys):
    data = _dataset(tmp_path, n=1)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"train": {"base_lr": NaN}}')
    out = tmp_path / "o"
    for flags in (["--lr", "nan"], ["--config", str(cfg)]):
        assert main(["train", "--dataset", str(data), "--out", str(out), "--quiet",
                     "--preset", "tiny"] + flags) == 3
        assert "base_lr" in capsys.readouterr().err
        assert not out.exists()


_LIMITED_DEMOSAIC = """
import resource, sys
from demosaick.cli import main
limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("edit", [lambda h: h.update(params=5),
                                  lambda h: h["params"][0].__setitem__(2, "x"),
                                  lambda h: h["extra"][0].__setitem__(2, "zz")],
                         ids=["params", "param_offset", "extra_offset"])
def test_demosaic_with_a_malformed_checkpoint_index_exits_3(tmp_path, capsys, edit):
    from demosaick.imageio import write_pgm
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt, extra_arrays={"opt.step": np.ones(1)})
    line, _, payload = ckpt.read_bytes().partition(b"\n")
    header = json.loads(line)
    edit(header)
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    src = tmp_path / "m.pgm"
    write_pgm(src, cfa.mosaic(_rgb(side=16)))
    assert main(["demosaic", str(src), str(tmp_path / "r.ppm"), "--checkpoint", str(ckpt)]) == 3
    assert "malformed" in capsys.readouterr().err


def test_demosaic_out_of_memory_exits_3_naming_the_mosaic_size(tmp_path):
    # 400 MiB of address space holds the interpreter, numpy and a tiny model
    # with a 64x64 prediction, but not a 2048x2048 one (a 1024x1024 one fits
    # since the deformable front end samples per block). One BLAS thread:
    # OpenBLAS aborts the process on its own when a threaded buffer
    # allocation fails.
    from demosaick.imageio import write_pgm
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), ckpt)
    rng = np.random.default_rng(0)

    def demosaic(side):
        src = tmp_path / f"m{side}.pgm"
        write_pgm(src, rng.random((1, side, side)))
        return subprocess.run(
            [sys.executable, "-c", _LIMITED_DEMOSAIC, "400", "demosaic", str(src),
             str(tmp_path / "out.ppm"), "--checkpoint", str(ckpt)],
            env=subprocess_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
            timeout=300)

    small = demosaic(64)
    assert small.returncode == 0, small.stderr
    big = demosaic(2048)
    assert big.returncode == 3, big.stderr
    assert "Traceback" not in big.stderr
    assert "out of memory" in big.stderr and "2048x2048 mosaic" in big.stderr


def test_negative_seed_exits_3_naming_the_field(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    write_ppm(src, _rgb(side=16))
    out = tmp_path / "o.pgm"
    assert main(["mosaic", str(src), str(out), "--sigma", "5", "--seed", "-1"]) == 3
    assert "--seed" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o.pgm.json").exists()
    data = _dataset(tmp_path, n=1, side=32)
    for cmd in (["train", "--quiet", "--preset", "tiny", "--steps", "1"],
                ["eval", "--nn", "--sigmas", "0,5"]):
        run = tmp_path / cmd[0]
        assert main(cmd + ["--dataset", str(data), "--out", str(run), "--seed", "-1"]) == 3
        assert "seed" in capsys.readouterr().err
        assert not run.exists()
