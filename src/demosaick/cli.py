"""Command-line interface: mosaic, demosaic, train, eval.

Exit codes: 0 success, 1 usage errors, 2 file I/O problems (missing or
corrupt files, empty datasets), 3 contract violations (bad configs, model
and checkpoint mismatches, a mosaic too large for the memory left, named by
its size), 4 non-finite training aborts.

Config resolution, lowest to highest precedence: built-in defaults, the
``--config`` JSON file, ``--set section.key=value`` overrides, dedicated
flags.  Every run that owns an output directory writes the fully resolved
configuration there as ``config.json`` before doing real work.

Noise levels on the command line are in 8-bit units (a sigma of 15 means
15/255 in the unit range the pipeline uses internally).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import cfa, imageio, metrics
from .checkpoint import load_checkpoint
from .errors import ConfigError, ContractError, NonFiniteError
from .losses import LossConfig
from .model import PRESETS, ModelConfig, build_model, param_table, preset_config
from .settings import Settings
from .training import TrainConfig, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(f"{self.prog}: {message}")


# -- config plumbing ---------------------------------------------------------

_SECTIONS = ("model", "train", "loss", "eval")


def _load_run_config(path) -> dict:
    if path is None:
        return {s: {} for s in _SECTIONS}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config sections: {sorted(unknown)}")
    for s, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: section {s!r} must be a JSON object")
    return {s: raw.get(s, {}) for s in _SECTIONS}


def _apply_set_overrides(cfg: dict, pairs) -> None:
    for item in pairs or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        section, field = key.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"--set: unknown section {section!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        cfg[section][field] = parsed


def _resolve_model(section: dict) -> ModelConfig:
    sec = dict(section)
    preset = preset_config(sec.pop("preset", "default"))
    return ModelConfig.from_dict({**preset.to_dict(), **sec})


@dataclasses.dataclass(frozen=True)
class EvalConfig(Settings):
    """Noise levels in 8-bit units and the noise seed of an ``eval`` run."""

    sigmas: tuple[float, ...] = (0.0,)
    seed: int = 0

    def validate(self) -> None:
        if not self.sigmas:
            raise ConfigError("field 'sigmas' must be a non-empty list")
        if any(s < 0 for s in self.sigmas):
            raise ConfigError("field 'sigmas' must be non-negative")
        if self.seed < 0:
            raise ConfigError("field 'seed' must be a non-negative integer")


def _echo_config(out_dir: str, sections: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sections, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_dataset(directory) -> list:
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"dataset directory {directory!r} does not exist")
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".ppm"))
    if not names:
        raise FileNotFoundError(f"dataset directory {directory!r} holds no .ppm files")
    return [(os.path.splitext(n)[0], imageio.read_ppm(os.path.join(directory, n)))
            for n in names]


def _load_model(args):
    """The model ``--checkpoint`` names, or None for the ``--nn`` baseline."""
    if args.nn:
        return None
    if not args.checkpoint:
        raise UsageError(f"{args.command} requires --checkpoint or --nn")
    return load_checkpoint(args.checkpoint)


def _reconstruct(model, mos: np.ndarray, sigma) -> np.ndarray:
    """RGB from the mosaic ``mos``: ``model``'s prediction, or the baseline's for None."""
    if model is None:
        return np.clip(cfa.demosaic_nn(mos), 0.0, 1.0)
    return model.predict(mos, sigma)


# -- subcommands -------------------------------------------------------------

def _cmd_mosaic(args) -> int:
    rgb = imageio.read_ppm(args.input)
    mos = cfa.mosaic(rgb)
    sigma8 = float(args.sigma)
    if not 0 <= sigma8 < math.inf:
        raise ContractError(f"--sigma must be finite and non-negative, got {sigma8}")
    if args.seed < 0:
        raise ContractError(f"--seed must be non-negative, got {args.seed}")
    if sigma8 > 0:
        rng = np.random.default_rng(args.seed)
        mos = cfa.add_noise(mos, sigma8 / 255.0, rng)
        sidecar = {"seed": int(args.seed), "sigma": sigma8 / 255.0, "sigma_8bit": sigma8}
        with open(str(args.output) + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True)
            fh.write("\n")
    imageio.write_pgm(args.output, mos)
    if args.pfm:
        imageio.write_pfm(args.pfm, mos)
    return 0


def _cmd_demosaic(args) -> int:
    arr, kind = imageio.read_image(args.input)
    if arr.shape[0] != 1:
        raise ContractError(f"demosaic expects a single-channel mosaic, got {arr.shape}")
    model = _load_model(args)
    out = _reconstruct(model, arr, None if args.sigma is None else float(args.sigma) / 255.0)
    imageio.write_ppm(args.output, out)
    if args.pfm:
        imageio.write_pfm(args.pfm, out)
    if args.ref:
        ref = imageio.read_ppm(args.ref)
        p, s, m = metrics.scores(out, ref)
        print(f"psnr_db={p:.4f} ssim={s:.6f} ms_ssim={m:.6f}")
    return 0


def _train_flag_overrides(args, tdict: dict) -> None:
    for flag, key in (("steps", "total_steps"), ("batch_size", "batch_size"),
                      ("patch_size", "patch_size"), ("seed", "seed")):
        v = getattr(args, flag)
        if v is not None:
            tdict[key] = int(v)
    if args.lr is not None:
        tdict["base_lr"] = float(args.lr)


def _cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    _apply_set_overrides(cfg, args.set)
    if args.preset is not None:
        cfg["model"]["preset"] = args.preset
    if args.denoise:
        cfg["model"]["denoise"] = True
    _train_flag_overrides(args, cfg["train"])

    mcfg = _resolve_model(cfg["model"])
    tcfg = TrainConfig.from_dict(cfg["train"])
    lcfg = LossConfig.from_dict(cfg["loss"])

    dataset = _load_dataset(args.dataset)
    images = [img for _, img in dataset]

    effective = {
        "model": {**mcfg.to_dict(), "preset": cfg["model"].get("preset", "default")},
        "train": tcfg.to_dict(),
        "loss": lcfg.to_dict(),
    }
    _echo_config(args.out, effective)

    model = build_model(mcfg, seed=tcfg.seed)
    if not args.quiet:
        for prefix, count in param_table(model):
            print(f"{prefix:20s} {count:>10d}")

    def log(step, lr, loss, val, elapsed):
        if args.quiet:
            return
        if val is not None or step == 1 or step == tcfg.total_steps:
            extra = "" if val is None else f" val_psnr={val:.2f}dB"
            print(f"step {step}/{tcfg.total_steps} lr={lr:.3g} loss={loss:.6f}{extra} "
                  f"[{elapsed:.1f}s]")

    result = train(model, images, tcfg, lcfg, out_dir=args.out, resume=args.resume, log=log)
    with open(os.path.join(args.out, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.history_csv())
    if not args.quiet:
        print(f"saved {os.path.join(args.out, 'final.ckpt')}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_run_config(args.config)
    _apply_set_overrides(cfg, args.set)
    if args.sigmas is not None:
        try:
            cfg["eval"]["sigmas"] = [float(tok) for tok in args.sigmas.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"--sigmas expects comma-separated numbers, got {args.sigmas!r}")
    if args.seed is not None:
        cfg["eval"]["seed"] = int(args.seed)
    ecfg = EvalConfig.from_dict(cfg["eval"])
    sigmas = [float(s) for s in ecfg.sigmas]  # `[0, 15]` echoes as `[0.0, 15.0]`

    model = _load_model(args)
    model_name = "nearest-neighbor" if model is None else os.path.basename(str(args.checkpoint))
    denoise = model is not None and model.config.denoise  # sigma goes to these only

    dataset = _load_dataset(args.dataset)
    effective = {"eval": {"sigmas": sigmas, "seed": ecfg.seed}, "model_source": model_name,
                 "model": None if model is None else model.config.to_dict()}
    _echo_config(args.out, effective)
    if args.dump_images:
        os.makedirs(os.path.join(args.out, "images"), exist_ok=True)

    for sidx, sigma8 in enumerate(sigmas):
        report = metrics.MetricReport(
            dataset=f"{os.path.basename(str(args.dataset))} sigma={sigma8:g}", model=model_name)
        for iidx, (name, rgb) in enumerate(dataset):
            mos = cfa.mosaic(rgb)
            if sigma8 > 0:
                rng = np.random.default_rng((ecfg.seed, sidx, iidx))
                mos = cfa.add_noise(mos, sigma8 / 255.0, rng)
            rec = _reconstruct(model, mos, sigma8 / 255.0 if denoise else None)
            report.add(name, *metrics.scores(rec, rgb))
            if args.dump_images:
                imageio.write_ppm(
                    os.path.join(args.out, "images", f"{name}_s{sigma8:g}.ppm"), rec)
        stem = os.path.join(args.out, f"report_sigma{sigma8:g}")
        with open(stem + ".csv", "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        with open(stem + ".md", "w", encoding="utf-8") as fh:
            fh.write(report.to_markdown())
        mp, ms_, mm = report.means()
        print(f"sigma={sigma8:g}: mean psnr={mp:.4f}dB ssim={ms_:.6f} ms_ssim={mm:.6f} "
              f"({len(report.rows)} images)")
    return 0


# -- parser ------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="demosaick", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mosaic", help="sample a Bayer mosaic from an RGB image",
                       parents=[], description="RGGB mosaic of a P6 image, optional noise.")
    p.add_argument("input", help="input P6 (.ppm) image")
    p.add_argument("output", help="output P5 (.pgm) mosaic")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="Gaussian noise sigma in 8-bit units (default 0: none)")
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed")
    p.add_argument("--pfm", default=None, help="also write the unquantized mosaic as PFM")
    p.set_defaults(func=_cmd_mosaic)

    p = sub.add_parser("demosaic", help="reconstruct RGB from a mosaic")
    p.add_argument("input", help="input mosaic (.pgm or .pfm)")
    p.add_argument("output", help="output P6 (.ppm) image")
    p.add_argument("--checkpoint", default=None, help="model checkpoint to use")
    p.add_argument("--nn", action="store_true", help="use the duplicate-pixel baseline")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise sigma in 8-bit units (required by denoising models)")
    p.add_argument("--ref", default=None, help="reference P6 image; prints metrics")
    p.add_argument("--pfm", default=None, help="also write the unclipped output as PFM")
    p.set_defaults(func=_cmd_demosaic)

    p = sub.add_parser("train", help="train a model on a directory of P6 images")
    p.add_argument("--dataset", required=True, help="directory of training .ppm images")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="model preset (overrides config file)")
    p.add_argument("--denoise", action="store_true", help="train with noise conditioning")
    p.add_argument("--steps", type=int, default=None, help="total optimization steps")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--patch-size", type=int, default=None, help="mosaic patch edge (pixels)")
    p.add_argument("--lr", type=float, default=None, help="base learning rate")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model over a dataset at noise levels")
    p.add_argument("--dataset", required=True, help="directory of reference .ppm images")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--checkpoint", default=None, help="model checkpoint to evaluate")
    p.add_argument("--nn", action="store_true", help="evaluate the duplicate-pixel baseline")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--sigmas", default=None, help="comma-separated sigmas in 8-bit units")
    p.add_argument("--seed", type=int, default=None, help="noise RNG seed")
    p.add_argument("--dump-images", action="store_true", help="write reconstructions")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except (ContractError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
