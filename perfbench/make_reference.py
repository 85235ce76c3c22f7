"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a ghostsim checkout, only when a change is meant to
alter ghostsim's results. The files hold float32 values, well inside the
1e-6-of-peak tolerance the checks allow.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from seeds import Inputs  # noqa: E402


def main() -> int:
    lab = workloads.open_lab()
    signal, background = lab.default_maps()
    first = Inputs("image_sweep", 0).map()
    outputs = {
        "default_image": signal.values,
        "default_background": background.raw_values() / signal.meta["raw_peak"],
        "sweep_seed0_map0": lab.image(lab.pattern(first), first.delta1_deg,
                                      first.delta2_deg).values,
        "interference": lab.interference().values,
        "oracle": lab.oracle(),
    }
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, values in outputs.items():
        path = os.path.join(workloads.REFERENCE_DIR, name + ".npz")
        np.savez_compressed(path, values=np.asarray(values, dtype=np.float32))
        print(f"wrote {path} {np.shape(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
