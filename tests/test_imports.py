"""Import footprint: scipy's linalg and optimize load at first use."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# Each first-use path on fixed inputs, as {name: sha256 of its output}.
FIRST_USES = """\
import hashlib
import numpy as np
from symodes import discover, dynamics, symmetry
from symodes.discover import DiscoveryConfig, equiv_r_fit
from symodes.library import build_library


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


rng = np.random.default_rng(5)
t = np.linspace(0.0, 4.0, 60)
y = np.column_stack([np.sin(t), np.cos(t)]) + 0.05 * rng.normal(size=(60, 2))
lib = build_library(2, 3)
X, dX = rng.uniform(-1.0, 1.0, size=(200, 2)), rng.normal(size=(200, 2))
osc = dynamics.get_system("oscillator")
Xo = rng.uniform(0.3, 1.5, size=(300, 2))
model = equiv_r_fit((Xo, osc.oracle().h(Xo)), osc.library(), osc.generators,
                    DiscoveryConfig(threshold=0.05, lambda_symm=0.1))
hashes = {
    "gp_smooth_series": digest(dynamics.gp_smooth_series(t, y)[0]),
    "_reduce": digest(*discover._reduce(lib.evaluate(X), dX)[:3]),
    "matrix_exponential": digest(symmetry.matrix_exponential(
        [[0.0, 1.0], [-1.0, 0.0]])),
    "equiv_r_fit": digest(model.W),
}
"""

FRESH = """\
import json
import sys
import symodes, symodes.bench, symodes.cli
for name in symodes.dynamics.SYSTEMS:
    system = symodes.dynamics.get_system(name)
    system.library()
    system.oracle()
preloaded = [m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules]
exec(sys.argv[1])
print(json.dumps({"preloaded": preloaded, "hashes": hashes}))
"""


def test_symodes_imports_without_scipy_linalg_or_optimize():
    # A fresh interpreter imports the package, the benchmark and the CLI and
    # builds every registry system's library and oracle without loading
    # scipy.linalg or scipy.optimize.  The paths that use them still load
    # them on first use and give the bits they give in this process.
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", FRESH, FIRST_USES],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    fresh = json.loads(res.stdout.strip().splitlines()[-1])
    assert fresh["preloaded"] == []
    here = {}
    exec(FIRST_USES, here)
    assert fresh["hashes"] == here["hashes"]
