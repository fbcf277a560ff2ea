"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_tiny --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in; the
run fails (exit 2, no result) when that source tree is missing.  Workloads,
inputs and output checks are described in ``workloads.py``, the traced run in
``tracing.py``.

One run: import the package, set the workload up three times (the median
counts), run the reference probe once as the warm-up unit, then run the timed
closed loop for ``--seconds``.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (import + median
  set-up + warm-up unit), ``step_s_p50`` (median unit time), ``mpix_per_s``
  (mosaic megapixels of all timed units per wall second of the loop),
  ``peak_rss_mib`` (``ru_maxrss`` of this process) and ``psnr_db`` (mean
  PSNR of the loop's outputs; for ``train_tiny`` the validation PSNR at step
  20).
* ``--trace 1`` runs the loop for half the time untraced, installs the
  tracer, sets up again and runs the same inputs for the other half traced.
  It prints the per-layer metrics, the tracing overhead
  (``trace.overhead_share``: traced over untraced median unit time, minus 1)
  and fails any unit whose traced output is not bit-identical to the
  untraced one.  The spans go to ``.bench_runs/<workload>-seed<n>-spans.json.gz``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` counts the timed units and the probe, ``failed`` those whose
output check failed.  The line before it, and
``.bench_runs/<workload>-seed<n>-trace<t>.json``, hold the details:
environment, contention, unit times, probe match and sample counts.  Exit
code 0 whenever a result is printed; an exception raised by the program
ends the run with a traceback and a non-zero exit code.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import envinfo  # noqa: E402
import tracing  # noqa: E402

END_TO_END = (("setup_s", "s"), ("step_s_p50", "s"), ("mpix_per_s", "Mpix/s"),
              ("peak_rss_mib", "MiB"), ("psnr_db", "dB"))
SETUPS = 3
WORKLOADS = ("train_tiny", "predict_default_256", "eval_tiny")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    n = envinfo.nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > n or int(value) < 1:
            os.environ[var] = str(n)


def load_reference(workload: str):
    try:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(workload)
    except (OSError, ValueError, KeyError):
        return None


def p50(units) -> float:
    return statistics.median(u.seconds for u in units if u.sampled)


def measure(dm, wl, args, work: str, import_s: float) -> tuple:
    """Returns (metrics, attempted, failed, detail)."""
    setups = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        state = wl.setup(args.seed, work)
        setups.append(time.perf_counter() - t)
    t = time.perf_counter()
    probe = wl.probe(state)
    warm_s = time.perf_counter() - t
    ref = load_reference(wl.name)
    probe_ok, bitwise = wl.compare(probe, ref) if ref is not None else (False, False)
    detail = {"import_s": import_s, "setup_runs_s": setups, "warmup_s": warm_s,
              "probe": {"ok": probe_ok, "bitwise": bitwise, "reference_found": ref is not None}}
    setup_s = import_s + statistics.median(setups) + warm_s

    def noop(_unit):
        pass

    if not args.trace:
        units, wall, psnr = wl.run(state, args.seconds, noop)
        metrics = {"setup_s": setup_s, "step_s_p50": p50(units),
                   "mpix_per_s": sum(u.mpix for u in units) / wall,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "psnr_db": psnr}
        failed = sum(not u.ok for u in units) + (not probe_ok)
        detail.update(units=[round(u.seconds, 6) for u in units], loop_wall_s=wall,
                      samples=sum(u.sampled for u in units))
        return metrics, len(units) + 1, failed, detail

    half = args.seconds / 2.0
    plain, _, _ = wl.run(state, half, noop)
    tracer = tracing.Tracer()
    tracer.install(dm)
    try:
        state = wl.setup(args.seed, work)
        traced, _, _ = wl.run(state, half, tracer.set_unit)
        tracer.set_unit("after")
    finally:
        tracer.uninstall()
    # The traced loop replays the untraced loop's inputs from the start, so
    # each common unit must give bit-identical outputs.
    mismatched = [i + 1 for i, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest]
    ids = list(range(1, len(traced) + 1))
    metrics = tracer.per_layer(ids)
    metrics["trace.overhead_share"] = p50(traced) / p50(plain) - 1.0
    metrics["trace.spans"] = tracer.spans_in(ids) / len(ids)
    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".bench_runs", f"{wl.name}-seed{args.seed}-spans.json.gz")
    tracer.write(spans_path)
    mean_unit = statistics.mean(u.seconds for u in traced)
    shares = {k: (metrics[f"ops.{k}.fwd_s"] + metrics[f"ops.{k}.bwd_s"]) / mean_unit
              for k in tracing.OP_KEYS}
    detail.update(
        untraced_units=[round(u.seconds, 6) for u in plain],
        traced_units=[round(u.seconds, 6) for u in traced],
        mismatched_units=mismatched, spans_file=os.path.relpath(spans_path, ROOT),
        top_op_shares=dict(sorted(((k, round(v, 4)) for k, v in shares.items()),
                                  key=lambda kv: -kv[1])[:6]),
        split_s_per_unit={
            "forward": metrics["model.forward_s"] - metrics["model.predict_s"]
            if wl.name == "train_tiny" else metrics["model.forward_s"],
            "loss": metrics["losses.mixed_loss.fwd_s"],
            "backward": metrics["tensor.backward_s"],
            "optimizer": metrics["training.adamw_step_s"],
            "validation": metrics["training.validate_s"],
            "checkpoint": metrics["training.checkpoint_s"],
        })
    failed = (sum(not u.ok for u in plain + traced) + (not probe_ok)
              + sum(1 for i in mismatched if plain[i - 1].ok and traced[i - 1].ok))
    return metrics, len(plain) + len(traced) + 1, failed, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "demosaick", "__init__.py")):
        print(f"perfbench: no demosaick package under {src}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, src)
    before = envinfo.snapshot()

    import demosaick as dm
    import demosaick.cli  # noqa: F401  (binds dm.cli and dm.imageio)
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.make(dm, args.workload)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        metrics, attempted, failed, detail = measure(dm, wl, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit_of = dict(tracing.metric_names()) if args.trace else dict(END_TO_END)
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        failed += 1
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, missing_metrics=missing, env=envinfo.describe(),
                  contention=envinfo.contention(before, envinfo.snapshot()))
    if detail["contention"]["busy"]:
        print("perfbench: warning: another process was busy during this run",
              file=sys.stderr)
    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(metrics, unit_of, attempted, failed)))
    return 0


def result_line(metrics: dict, unit_of: dict, attempted: int, failed: int) -> dict:
    """The result object: exactly correct, attempted, failed and metrics."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in unit_of.items() if name in metrics}}


if __name__ == "__main__":
    sys.exit(main())
