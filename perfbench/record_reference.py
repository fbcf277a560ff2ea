"""Record the probe outputs every run is checked against into reference.json.

Run from the root of a checkout, on a quiet machine, only when the program's
outputs are meant to change::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import envinfo  # noqa: E402
import run  # noqa: E402


def main() -> int:
    run.cap_blas_threads()
    import demosaick as dm
    import demosaick.cli  # noqa: F401
    import workloads

    out = {"workloads": {}, "recorded_with": envinfo.describe()}
    work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            wl = workloads.make(dm, name)
            out["workloads"][name] = wl.probe(wl.setup(0, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # One line per workload keeps the file short and its diffs readable.
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in out["workloads"].items())
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(f'{{"recorded_with": {json.dumps(out["recorded_with"])},\n'
                 f' "workloads": {{\n{rows}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
