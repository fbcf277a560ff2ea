"""The benchmark workloads: set-up, reference probe and timed closed loop.

Each workload is a closed loop with one client: the next unit of work starts
only after the previous one has finished, in this one process.

* ``train_tiny``: ``training.train`` on the ``tiny`` preset, batch 4, 64x64
  patches, float32, validation on 16 fixed patches and a checkpoint write
  every 10 steps.  One unit is one optimisation step; step times come from
  the ``log`` callback.
* ``predict_default_256``: ``BayerDemosaicker.from_checkpoint(path).predict``
  on one 256x256 mosaic at a time with the ``default`` preset.  One unit is
  one image.
* ``eval_tiny``: ``demosaick eval`` through ``cli.main`` with a ``tiny``
  checkpoint on a one-image PPM dataset at ``--sigmas 0,15``.  One unit is
  one image evaluated at both sigmas (two (image, sigma) pairs).

The models are built from a fixed seed, and the zero-initialised
``predictor.refine`` weights are filled from that seed too, so a network that
skipped its body would no longer reproduce the reference outputs.  Only the
inputs (textures, patch sampling, noise) come from ``--seed``.

The probe of each workload runs fixed inputs once, as the warm-up unit, and
compares its outputs with ``reference.json`` recorded from this code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import time

import numpy as np

import inputs

MODEL_SEED = 7
# Std of the filled refine weights per preset: each moves the output about
# 0.02 RMS away from the warm start (the feature scales differ ~35x), far
# above the reference tolerance yet small enough that few pixels clip.
REFINE_STD = {"tiny": 2.5e-3, "default": 7.5e-5}
POOL = 6  # distinct images per run; units cycle through them
TAG_TRAIN, TAG_PREDICT, TAG_EVAL, TAG_REFINE = 1, 2, 3, 4

# Stated tolerances for a reference match that is not bitwise (for example a
# BLAS build that dispatches other SIMD kernels on another CPU).
TOL_TRAIN_REL = 1e-5   # losses and per-parameter L2 norms, relative
TOL_PSNR_DB = 1e-3     # any PSNR, absolute
TOL_PIXEL = 1e-4       # predicted pixel values, absolute
TOL_SSIM = 1e-5        # SSIM and MS-SSIM report values, absolute


@dataclasses.dataclass
class Unit:
    """One timed unit of work and the checks made on its outputs."""

    seconds: float
    mpix: float            # mosaic megapixels the unit processed
    psnr: float            # mean PSNR (dB) of its outputs, nan when it has none
    ok: bool
    digest: str            # exact fingerprint of its outputs
    sampled: bool = True   # counts toward step_s_p50


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def psnr_db(out: np.ndarray, ref: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(out, np.float64) - np.asarray(ref, np.float64)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def bench_model(dm, preset: str):
    """The benchmark's model: fixed seed, predictor.refine filled from it."""
    config = {"tiny": dm.tiny_config, "default": dm.default_config}[preset]()
    model = dm.build_model(config, seed=MODEL_SEED)
    refine = model.leaf("predictor.refine.weight")
    rng = inputs.rng_for(MODEL_SEED, TAG_REFINE)
    refine.value.data[...] = rng.normal(0.0, REFINE_STD[preset], refine.shape)
    return model


def _close(a, b, tol) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


class _Stop(Exception):
    """Raised from the train log callback to end the timed loop."""


# ---------------------------------------------------------------------------


class TrainTiny:
    name = "train_tiny"
    batch, patch, interval = 4, 64, 10

    def __init__(self, dm):
        self.dm = dm

    @staticmethod
    def make_inputs(seed: int) -> list:
        return inputs.textures(seed, TAG_TRAIN, 8, 128, 128)

    def setup(self, seed: int, work: str) -> dict:
        return {"seed": seed, "work": work, "images": self.make_inputs(seed),
                "model": bench_model(self.dm, "tiny")}

    def _config(self, seed: int, steps: int):
        return self.dm.TrainConfig(
            total_steps=steps, batch_size=self.batch, patch_size=self.patch,
            val_interval=self.interval, val_patches=16,
            checkpoint_interval=self.interval, seed=seed)

    def probe(self, state: dict) -> dict:
        """Two steps on fixed data from a fresh model, then one validation."""
        model = bench_model(self.dm, "tiny")
        images = inputs.textures(inputs.PROBE_SEED, TAG_TRAIN, 4, 128, 128)
        out = os.path.join(state["work"], "probe")
        os.makedirs(out, exist_ok=True)
        result = self.dm.train(model, images, self._config(inputs.PROBE_SEED, 2), out_dir=out)
        leaves = model.leaves()
        return {
            "losses": [h[2] for h in result.history],
            "val_psnr": result.history[-1][3],
            "param_sha256": sha256(*(lf.value.data.tobytes() for lf in leaves)),
            "param_norms": [float(np.linalg.norm(lf.value.data.astype(np.float64)))
                            for lf in leaves],
        }

    @staticmethod
    def compare(got: dict, ref: dict) -> tuple:
        bitwise = got["losses"] == ref["losses"] and got["param_sha256"] == ref["param_sha256"]
        ok = bitwise or (
            _close(got["losses"], ref["losses"], TOL_TRAIN_REL * max(map(abs, ref["losses"])))
            and abs(got["val_psnr"] - ref["val_psnr"]) <= TOL_PSNR_DB
            and len(got["param_norms"]) == len(ref["param_norms"])
            and all(abs(g - r) <= TOL_TRAIN_REL * max(abs(r), 1e-12)
                    for g, r in zip(got["param_norms"], ref["param_norms"])))
        return ok, bitwise

    def run(self, state: dict, seconds: float, on_unit) -> tuple:
        """Train until ``seconds`` have passed; returns (units, loop wall seconds, psnr)."""
        k = self.interval
        mpix = self.batch * self.patch * self.patch / 1e6
        out = os.path.join(state["work"], "train")
        os.makedirs(out, exist_ok=True)
        units: list = []
        vals: dict = {}
        last = [0.0]

        def log(step, lr, loss, val, elapsed):
            dt, last[0] = elapsed - last[0], elapsed
            ok = math.isfinite(loss) and (val is None or math.isfinite(val))
            if val is not None:
                vals[step] = val
            # A validation step includes the validation; the step after a
            # checkpoint step includes the checkpoint write.
            units.append(Unit(dt, mpix, math.nan, ok, float(loss).hex(),
                              sampled=val is None and step % k != 1))
            if elapsed >= seconds and step > 2 * k:
                raise _Stop  # before this step's checkpoint, which is not checked
            on_unit(step + 1)

        on_unit(1)
        try:
            self.dm.train(state["model"], state["images"], self._config(state["seed"], 10 ** 6),
                          out_dir=out, log=log)
        except _Stop:
            pass
        # Every checkpoint written must load back with the step it was saved at.
        for step in range(k, len(units), k):
            path = os.path.join(out, f"step{step:06d}.ckpt")
            try:
                meta = self.dm.checkpoint.load_checkpoint_bundle(path)[2]
                saved = meta.get("step") == step
            except (OSError, self.dm.CheckpointError):
                saved = False
            units[step - 1].ok &= saved
        return units, last[0], vals[2 * k]


class PredictDefault:
    name = "predict_default_256"
    size = 256

    def __init__(self, dm):
        self.dm = dm

    def make_inputs(self, seed: int) -> list:
        return inputs.textures(seed, TAG_PREDICT, POOL, self.size, self.size)

    def setup(self, seed: int, work: str) -> dict:
        rgb = self.make_inputs(seed)
        path = os.path.join(work, "default.ckpt")
        self.dm.save_checkpoint(bench_model(self.dm, "default"), path)
        return {"rgb": rgb, "mosaics": [self.dm.mosaic(x) for x in rgb],
                "est": self.dm.BayerDemosaicker.from_checkpoint(path)}

    def probe(self, state: dict) -> dict:
        """One 128x128 image: the same code paths at a quarter of the cost."""
        rgb = inputs.texture(inputs.rng_for(inputs.PROBE_SEED, TAG_PREDICT), 128, 128)
        out = state["est"].predict([self.dm.mosaic(rgb)])[0]
        return {"sha256": sha256(out.tobytes()),
                "sample": out[:, ::8, ::8].astype(np.float64).ravel().tolist(),
                "psnr": psnr_db(out, rgb)}

    @staticmethod
    def compare(got: dict, ref: dict) -> tuple:
        bitwise = got["sha256"] == ref["sha256"]
        ok = bitwise or (_close(got["sample"], ref["sample"], TOL_PIXEL)
                         and abs(got["psnr"] - ref["psnr"]) <= TOL_PSNR_DB)
        return ok, bitwise

    def run(self, state: dict, seconds: float, on_unit) -> tuple:
        units: list = []
        mpix = self.size * self.size / 1e6
        t0 = time.perf_counter()
        while not units or time.perf_counter() - t0 < seconds:
            i = len(units) % POOL
            on_unit(len(units) + 1)
            t = time.perf_counter()
            out = state["est"].predict([state["mosaics"][i]])[0]
            dt = time.perf_counter() - t
            ok = (out.shape == (3, self.size, self.size) and bool(np.all(np.isfinite(out)))
                  and float(out.min()) >= 0.0 and float(out.max()) <= 1.0)
            units.append(Unit(dt, mpix, psnr_db(out, state["rgb"][i]), ok,
                              sha256(out.tobytes())))
        wall = time.perf_counter() - t0
        return units, wall, float(np.mean([u.psnr for u in units]))


class EvalTiny:
    name = "eval_tiny"
    size = 256
    sigmas = (0, 15)

    def __init__(self, dm):
        self.dm = dm

    def _write_dataset(self, work: str, label: str, rgb) -> str:
        d = os.path.join(work, "data", label)
        os.makedirs(d, exist_ok=True)
        self.dm.imageio.write_ppm(os.path.join(d, f"{label}.ppm"), rgb)
        return d

    def make_inputs(self, seed: int) -> list:
        return inputs.textures(seed, TAG_EVAL, POOL, self.size, self.size)

    def setup(self, seed: int, work: str) -> dict:
        ckpt = os.path.join(work, "tiny.ckpt")
        self.dm.save_checkpoint(bench_model(self.dm, "tiny"), ckpt)
        rgb = self.make_inputs(seed)
        return {"seed": seed, "work": work, "ckpt": ckpt,
                "datasets": [self._write_dataset(work, f"img{i}", x) for i, x in enumerate(rgb)]}

    def _eval(self, state: dict, dataset: str, seed: int) -> tuple:
        """Run ``demosaick eval``; returns (ok, report rows per sigma, raw report bytes)."""
        out = os.path.join(state["work"], "reports", os.path.basename(dataset))
        argv = ["eval", "--dataset", dataset, "--out", out, "--checkpoint", state["ckpt"],
                "--sigmas", ",".join(str(s) for s in self.sigmas), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.dm.cli.main(argv)
        rows, raw = [], []
        if code != 0:
            return False, rows, b""
        for s in self.sigmas:
            with open(os.path.join(out, f"report_sigma{s}.csv"), "rb") as fh:
                blob = fh.read()
            raw.append(blob)
            lines = blob.decode("ascii").strip().splitlines()
            rows.append([float(v) for v in lines[2].split(",")[1:]])
        ok = all(math.isfinite(p) and -1.0 <= s <= 1.0 and -1.0 <= m <= 1.0 for p, s, m in rows)
        return ok, rows, b"".join(raw)

    def probe(self, state: dict) -> dict:
        rgb = inputs.texture(inputs.rng_for(inputs.PROBE_SEED, TAG_EVAL), self.size, self.size)
        dataset = self._write_dataset(state["work"], "probe", rgb)
        ok, rows, raw = self._eval(state, dataset, 0)
        return {"ok": ok, "rows": rows, "sha256": sha256(raw)}

    @staticmethod
    def compare(got: dict, ref: dict) -> tuple:
        bitwise = got["ok"] and got["sha256"] == ref["sha256"]
        ok = bitwise or (got["ok"] and len(got["rows"]) == len(ref["rows"]) and all(
            abs(g[0] - r[0]) <= TOL_PSNR_DB and _close(g[1:], r[1:], TOL_SSIM)
            for g, r in zip(got["rows"], ref["rows"])))
        return ok, bitwise

    def run(self, state: dict, seconds: float, on_unit) -> tuple:
        units: list = []
        mpix = len(self.sigmas) * self.size * self.size / 1e6
        t0 = time.perf_counter()
        while not units or time.perf_counter() - t0 < seconds:
            on_unit(len(units) + 1)
            t = time.perf_counter()
            ok, rows, raw = self._eval(state, state["datasets"][len(units) % POOL], state["seed"])
            dt = time.perf_counter() - t
            psnr = float(np.mean([r[0] for r in rows])) if rows else math.nan
            units.append(Unit(dt, mpix, psnr, ok, sha256(raw)))
        wall = time.perf_counter() - t0
        return units, wall, float(np.mean([u.psnr for u in units]))


def make(dm, name: str):
    return {cls.name: cls for cls in (TrainTiny, PredictDefault, EvalTiny)}[name](dm)

