"""Genetic-programming discovery, optionally steered by a symmetry penalty.

The tree-based engine is library-free: it can in principle find terms the
polynomial basis misses, at the cost of a stochastic search.  A known
symmetry turns into a cheap penalty evaluated at pre-transformed data
points, which biases the evolution toward equivariant candidates without
restricting the search space.
"""

import numpy as np

from symodes.discover import DiscoveryConfig, GpConfig, gp_fit
from symodes.dynamics import get_system, make_dataset
from symodes.expressions import to_string


def main():
    print("1) exponential growth, clean data, plain GP")
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(200, 1))
    cfg = DiscoveryConfig(seed=0, gp=GpConfig(population=128, generations=30))
    res = gp_fit((X, X.copy()), cfg)
    print(f"   dx = x recovered as: {to_string(res.exprs[0])} "
          f"(mse {res.fitness[0][1]:.2e})")

    print("\n2) rotationally symmetric oscillator, noisy data")
    system = get_system("oscillator")
    ds = make_dataset(system, seed=1, counts=(10, 2, 2))
    cfg = DiscoveryConfig(seed=1, lambda_symm=0.5, eps=0.1,
                          gp=GpConfig(population=192, generations=40))
    plain = gp_fit(ds, cfg)
    penalized = gp_fit(ds, cfg, symmetry=system.generators)
    print("   plain GP:")
    for line in plain.equations():
        print("     " + line)
    print("   with rotation penalty:")
    for line in penalized.equations():
        print("     " + line)
    print("   truth:")
    print("     x1' = -0.1*x1 - 1*x2")
    print("     x2' = 1*x1 - 0.1*x2")


if __name__ == "__main__":
    main()
