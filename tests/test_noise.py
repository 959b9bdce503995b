"""The abstract's noise claim on paired runs: equiv-c against sindy.

Each level runs K = 20 benchmark runs with the same master seed, so run k
draws the same initial states and noise streams at every level, and sindy
and equiv-c fit the same dataset.  b counts the runs only equiv-c
recovers, c those only sindy recovers; the gate is c = 0 at every level,
and b, the exact McNemar p-value and sindy's count are printed.  The
validation and test splits are left out: no fit reads them, and without
them a run skips their smoothing and the long-term prediction.
"""

import time

import pytest
import scipy.stats

from symodes.bench import BenchConfig, run_benchmark
from symodes.dynamics import NoiseSpec, get_system

RUNS = 20
LEVELS = [
    ("oscillator", "additive_relative", (0.2, 0.4, 0.6, 0.8)),
    ("growth", "multiplicative", (0.05, 0.1, 0.2)),
]


def paired_counts(system, kind, sigma):
    """(sindy, equiv-c, b, c) joint recoveries over RUNS paired runs."""
    counts = (get_system(system).data.n_train, 0, 0)
    report = run_benchmark(BenchConfig(
        system=system, methods=("sindy", "equiv-c"), runs=RUNS, seed=0,
        noise=NoiseSpec(kind, sigma), data=(("counts", counts),), jobs=2))
    joint = {}
    for rec in report["records"]:
        joint.setdefault(rec["method"], {})[rec["run"]] = rec["joint_success"]
    sindy, equiv = joint["sindy"], joint["equiv-c"]
    b = sum(equiv[k] and not sindy[k] for k in range(RUNS))
    c = sum(sindy[k] and not equiv[k] for k in range(RUNS))
    return sum(sindy.values()), sum(equiv.values()), b, c


@pytest.mark.parametrize("system,kind,sigmas", LEVELS,
                         ids=[row[0] for row in LEVELS])
def test_equiv_c_loses_no_run_to_sindy_as_noise_rises(system, kind, sigmas):
    t0 = time.perf_counter()
    rows = []
    for sigma in sigmas:
        sindy, equiv, b, c = paired_counts(system, kind, sigma)
        p = scipy.stats.binomtest(c, b + c, 0.5).pvalue if b + c else 1.0
        rows.append((sigma, sindy, equiv, b, c))
        print(f"[noise] {system} {kind} sigma={sigma}: sindy {sindy}/{RUNS}, "
              f"equiv-c {equiv}/{RUNS}, b={b}, c={c}, McNemar p={p:.2g}")
    falls = any(later[2] < earlier[2] for earlier, later in zip(rows, rows[1:]))
    print(f"[noise] {system}: equiv-c count "
          f"{'falls' if falls else 'does not fall'} as sigma rises, "
          f"{time.perf_counter() - t0:.0f}s")
    assert all(c == 0 for *_, c in rows), rows
