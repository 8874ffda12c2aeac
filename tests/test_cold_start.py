"""The package runs on numpy alone: scipy is blocked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import freeconv

from _oracles import point_v_curve

COLD_START = """
import json, sys
sys.modules["scipy"] = None
import freeconv, freeconv.cli
from freeconv import ScalarMeasure
from freeconv.harness import semicircle_quantiles
from freeconv.serialize import provenance_block
from freeconv.transforms import biane_v_scalar
v = biane_v_scalar(ScalarMeasure.point(0.0), 1.0, 0.5)
q = semicircle_quantiles(5, 1.0).tolist()
versions = provenance_block("solve", {}, {})["versions"]
print(json.dumps({"v": v, "q": q, "versions": sorted(versions)}))
"""


def test_import_loads_no_scipy_optimize_or_linalg():
    src = str(Path(freeconv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["versions"] == ["freeconv", "numpy", "python"]
    # both root finders run without scipy and give the closed forms
    assert abs(out["v"] - point_v_curve(0.5, 1.0)) <= 1e-10
    q = np.array(out["q"])
    cdf = 0.5 + (q * np.sqrt(4.0 - q * q) / 4.0 + np.arcsin(q / 2.0)) / np.pi
    assert np.max(np.abs(cdf - (np.arange(5) + 0.5) / 5)) < 1e-10
