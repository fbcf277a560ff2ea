"""Training loop: AdamW, halving schedule, patch sampling, resume.

Determinism contract: every random decision at step ``t`` comes from a fresh
generator seeded by (seed, t), and validation patches from (seed only, fixed
tag), so a run resumed from a step-``t`` checkpoint replays steps t+1..T with
bit-identical batches.  Combined with the deterministic engine this makes
interrupted and uninterrupted runs produce identical parameters.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from . import cfa
from .checkpoint import load_checkpoint_bundle, save_checkpoint
from .errors import ContractError, NonFiniteError
from .losses import LossConfig, mixed_loss
from .metrics import psnr
from .model import DemosaickModel
from .settings import Settings
from .tensor import Tape, _all_finite, backward, zero_grads

_VAL_TAG = 0x56414C  # distinguishes the validation stream from step streams


@dataclasses.dataclass(frozen=True)
class TrainConfig(Settings):
    """Optimization and sampling hyper-parameters.

    ``patch_size`` is the mosaic patch edge in pixels; noise bounds are in
    [0, 1] units (8-bit sigma / 255) and only apply when the model conditions
    on noise.  ``lr_halve_period`` is in steps.
    """

    total_steps: int = 2000
    batch_size: int = 4
    patch_size: int = 64
    base_lr: float = 2e-4
    lr_halve_period: int = 800
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05
    seed: int = 0
    noise_low: float = 0.0
    noise_high: float = 15.0 / 255.0
    val_interval: int = 100
    val_patches: int = 4
    checkpoint_interval: int = 0

    def validate(self) -> None:
        for name in ("total_steps", "batch_size", "patch_size", "lr_halve_period",
                     "val_interval", "val_patches"):
            if getattr(self, name) < 1:
                raise ContractError(f"field '{name}' must be a positive integer")
        for name in ("checkpoint_interval", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"field '{name}' must be a non-negative integer")
        if self.patch_size % 2:
            raise ContractError("field 'patch_size' must be even")
        if self.base_lr <= 0:
            raise ContractError("field 'base_lr' must be positive")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ContractError(f"field '{name}' must lie in [0, 1)")
        if self.eps <= 0:
            raise ContractError("field 'eps' must be positive")
        if self.weight_decay < 0:
            raise ContractError("field 'weight_decay' must be non-negative")
        if not 0.0 <= self.noise_low <= self.noise_high:
            raise ContractError("noise bounds must satisfy 0 <= noise_low <= noise_high")


def lr_at(step: int, config: TrainConfig) -> float:
    """Step-indexed learning rate: base halved every ``lr_halve_period`` steps."""
    if step < 0:
        raise ContractError(f"step must be non-negative, got {step}")
    return config.base_lr * 2.0 ** (-(step // config.lr_halve_period))


class AdamW:
    """Adam with decoupled weight decay; moments stored per parameter name."""

    def __init__(self, leaves, config: TrainConfig):
        self.leaves = list(leaves)
        self.config = config
        self.step_count = 0
        self.m = {lf.name: np.zeros_like(lf.value.data) for lf in self.leaves}
        self.v = {lf.name: np.zeros_like(lf.value.data) for lf in self.leaves}

    def step(self, lr: float) -> None:
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for lf in self.leaves:
            g = lf.grad
            m = self.m[lf.name]
            v = self.v[lf.name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p = lf.value.data
            if cfg.weight_decay:
                p *= 1.0 - lr * cfg.weight_decay
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)

    def state_arrays(self) -> dict:
        out = {"opt.step": np.array([self.step_count], dtype=np.float64)}
        for name, arr in self.m.items():
            out[f"opt.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"opt.v.{name}"] = arr
        return out

    def load_state_arrays(self, arrays: dict) -> None:
        """Restore what ``state_arrays`` gave, whose moments are the live arrays.
        A missing or mis-shaped array raises ContractError naming it, before
        anything is restored."""
        state = self.state_arrays()
        for key, like in state.items():
            if getattr(arrays.get(key), "shape", None) != like.shape:
                raise ContractError(f"optimizer state {key!r} is missing or not shaped "
                                    f"{like.shape}; resume needs a checkpoint written by training")
        for key, live in state.items():
            live[...] = arrays[key]
        self.step_count = int(round(float(arrays["opt.step"][0])))


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, step))))


def check_dataset(images, patch: int) -> list:
    """Validate training images: RGB CHW float arrays large enough for a patch."""
    if not images:
        raise ContractError("dataset is empty")
    out = []
    for i, img in enumerate(images):
        arr = np.asarray(img, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ContractError(f"image {i}: expected shape (3, H, W), got {arr.shape}")
        if arr.shape[1] < patch or arr.shape[2] < patch:
            raise ContractError(
                f"image {i}: {arr.shape[1]}x{arr.shape[2]} smaller than patch size {patch}")
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"image {i}: non-finite pixel values")
        out.append(arr)
    return out


def sample_batch(images, config: TrainConfig, rng: np.random.Generator,
                 denoise: bool = False):
    """Draw one augmented batch: (mosaic, target RGB, sigma array or None).

    Per item, in fixed draw order: image index, crop corner (even-aligned so
    the CFA phase is preserved), rotation count, horizontal flip, then noise
    sigma and the noise field itself.  Rotation applies before the flip.
    """
    p = config.patch_size
    bayer = np.empty((config.batch_size, 1, p, p), dtype=np.float64)
    target = np.empty((config.batch_size, 3, p, p), dtype=np.float64)
    sigmas = np.zeros(config.batch_size, dtype=np.float64) if denoise else None
    for b in range(config.batch_size):
        idx = int(rng.integers(len(images)))
        img = images[idx]
        _, h, w = img.shape
        y0 = 2 * int(rng.integers((h - p) // 2 + 1))
        x0 = 2 * int(rng.integers((w - p) // 2 + 1))
        crop = img[:, y0:y0 + p, x0:x0 + p]
        k = int(rng.integers(4))
        flip = bool(rng.integers(2))
        aug = np.rot90(crop, k, axes=(-2, -1))
        if flip:
            aug = aug[..., ::-1]
        aug = np.ascontiguousarray(aug)
        target[b] = aug
        mos = cfa.mosaic(aug)
        if denoise:
            sig = float(rng.uniform(config.noise_low, config.noise_high))
            sigmas[b] = sig
            mos = cfa.add_noise(mos, sig, rng)
        bayer[b] = mos
    return bayer, target, sigmas


@dataclasses.dataclass
class TrainResult:
    model: DemosaickModel
    history: list
    final_step: int

    def history_csv(self) -> str:
        lines = ["step,lr,loss,val_psnr_db"]
        for step, lr, loss, val in self.history:
            val_s = "" if val is None else f"{val:.6f}"
            lines.append(f"{step},{lr:.10g},{loss:.8f},{val_s}")
        return "\n".join(lines) + "\n"


def _grad_check(model: DemosaickModel, step: int) -> None:
    for lf in model.leaves():
        if not _all_finite(lf.grad):
            raise NonFiniteError(
                f"non-finite gradient in parameter {lf.name!r} at step {step}")


# Train settings a resumed run must share with its checkpoint: each one
# changes which batches the remaining steps draw or how AdamW applies them.
_RESUME_FIXED = ("seed", "batch_size", "patch_size", "base_lr", "lr_halve_period",
                 "beta1", "beta2", "eps", "weight_decay")
# Fixed too when the model conditions on noise: they bound the drawn sigmas.
_RESUME_FIXED_NOISE = ("noise_low", "noise_high")


def _check_resume_settings(meta: dict, run_meta: dict, denoise: bool) -> None:
    """Reject a resume whose settings would change the stored run's trajectory.

    Checkpoints written before the settings were stored carry none and pass.
    """
    fixed = _RESUME_FIXED + (_RESUME_FIXED_NOISE if denoise else ())
    diffs = []
    if "train_config" in meta:
        diffs += [f"train.{k}" for k in fixed
                  if meta["train_config"].get(k) != run_meta["train_config"][k]]
    if "loss_config" in meta:
        diffs += [f"loss.{k}" for k, v in run_meta["loss_config"].items()
                  if meta["loss_config"].get(k) != v]
    if diffs:
        raise ContractError(
            f"resume settings differ from the checkpoint's in {diffs}; a resumed run "
            "must keep them to replay the same steps")


def train(model: DemosaickModel, images, config: TrainConfig,
          loss_config: LossConfig | None = None, out_dir=None,
          resume=None, log=None) -> TrainResult:
    """Optimize ``model`` in place; returns the history of (step, lr, loss, val).

    ``resume`` names a checkpoint written by this function; training continues
    from its stored step with bit-identical behavior to an uninterrupted run;
    a checkpoint stored past ``config.total_steps``, or one whose stored seed,
    batch size, patch size, learning-rate schedule, AdamW constants, loss
    config or (for a model that conditions on noise) noise bounds differ,
    raises ContractError.
    ``out_dir`` (optional) receives periodic and final checkpoints.
    """
    loss_cfg = loss_config or LossConfig()
    bayer_patch = config.patch_size
    div = 2 * model.config.pad_step
    if bayer_patch % div:
        raise ContractError(
            f"patch size {bayer_patch} must be a multiple of {div} for this model")
    images = check_dataset(images, bayer_patch)
    denoise = model.config.denoise

    opt = AdamW(model.leaves(), config)
    run_meta = {"train_config": config.to_dict(), "loss_config": loss_cfg.to_dict()}
    start_step = 0
    if resume is not None:
        loaded, extras, meta = load_checkpoint_bundle(resume, expect_config=model.config)
        _check_resume_settings(meta, run_meta, denoise)
        opt.load_state_arrays(extras)
        start_step = int(meta.get("step", opt.step_count))
        if start_step > config.total_steps:
            raise ContractError(
                f"resume checkpoint is at step {start_step}, beyond total_steps="
                f"{config.total_steps}; raise total_steps to continue from it")
        for lf in model.leaves():
            lf.value.data = loaded.leaf(lf.name).value.data

    val_rng = _step_rng(config.seed, _VAL_TAG)
    val_cfg = dataclasses.replace(config, batch_size=config.val_patches)
    val_bayer, val_target, val_sigmas = sample_batch(images, val_cfg, val_rng, denoise)

    history: list = []
    t0 = time.monotonic()
    for step in range(start_step, config.total_steps):
        rng = _step_rng(config.seed, step)
        bayer, target, sigmas = sample_batch(images, config, rng, denoise)
        lr = lr_at(step, config)

        zero_grads(model.leaves())
        with Tape() as tape:
            pred = model.forward(bayer, sigmas)
            loss = mixed_loss(pred, target, loss_cfg)
            backward(loss, tape)
        _grad_check(model, step)
        opt.step(lr)

        done = step + 1
        val = None
        if done % config.val_interval == 0 or done == config.total_steps:
            out = model.predict(val_bayer, val_sigmas)
            val = float(np.mean([psnr(out[i], val_target[i]) for i in range(len(out))]))
        history.append((done, lr, float(loss.data), val))
        if log is not None:
            log(done, lr, float(loss.data), val, time.monotonic() - t0)

        if out_dir is not None and config.checkpoint_interval and done % config.checkpoint_interval == 0:
            save_checkpoint(model, os.path.join(out_dir, f"step{done:06d}.ckpt"),
                            extra_arrays=opt.state_arrays(), meta={"step": done, **run_meta})
    final = config.total_steps
    if out_dir is not None:
        save_checkpoint(model, os.path.join(out_dir, "final.ckpt"),
                        extra_arrays=opt.state_arrays(), meta={"step": final, **run_meta})
    return TrainResult(model=model, history=history, final_step=final)
