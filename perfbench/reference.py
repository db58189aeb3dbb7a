"""Write reference.json: the model workloads' figures at the reference seed.

    python3 perfbench/reference.py

After its measurement, every model-workload run sets up at
inputs.REFERENCE_SEED and REFERENCE_SIZES, trains and predicts, and fails
its reference operation unless val_rmse_avg and the test predictions
equal these figures within the tolerance stated in workloads.py. Rewrite the file only for a change that is meant to alter
the program's arithmetic, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import inputs  # noqa: E402
from workloads import REFERENCE_PATH, reference_figures  # noqa: E402


def main() -> int:
    figures = {}
    work = tempfile.mkdtemp(dir=HERE)
    try:
        for name in ("quick_ci", "paper_cd"):
            found, failures = reference_figures(name, os.path.join(work, name))
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            figures[name] = {"seed": inputs.REFERENCE_SEED, "sizes": inputs.REFERENCE_SIZES[name], **found}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(figures, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
