#!/usr/bin/env python3
"""Tabulate how fast the dyadic gamma-ratio product reaches its limit.

Prints |partial(n) - limit| for n = 1..n_max at several x values.  The tail
behaves like ln(2*pi)/2 * 2^-n (independent of x), which is why the suite's
ID-12 gate bound of 1e-6 is reachable only around n = 20.

A second table prints, for each x and n, rho_n = log(partial(n)/limit)
- ln(2*pi)/2 * 2^-n next to 1/(12 x 4^n).  The Stirling series for
ln Gamma(a + 1/2) (DLMF 5.11.8, h = 1/2) puts rho_n in [-1/(12 x 4^n), 0];
acceptance criterion 08 asserts that interval over n = 4..12.

    python scripts/convergence_probe.py [--x 0.1 0.3 0.5 0.7 0.9] [--n-max 20]
"""

import argparse
import cmath
import math

from lerchsum import nielsen_limit, nielsen_partial_product
from lerchsum.oracle import limit_probe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", nargs="+", type=float,
                        default=[0.1, 0.3, 0.5, 0.7, 0.9])
    parser.add_argument("--n-max", type=int, default=20)
    args = parser.parse_args()
    half_ln_2pi = 0.5 * math.log(2 * math.pi)

    header = "n    " + "".join(f"x={x:<12g}" for x in args.x)
    print(header)
    limits = {x: nielsen_limit(x) for x in args.x}
    probes = {x: limit_probe(lambda n, x=x: nielsen_partial_product(x, n),
                             args.n_max)
              for x in args.x}
    for n in range(1, args.n_max + 1):
        row = f"{n:<5d}"
        for x in args.x:
            err = abs(probes[x].values[n - 1] - limits[x])
            row += f"{err:<14.3e}"
        print(row)
    print("\nexpected tail scale ln(2*pi)/2 * 2^-n:")
    for n in (4, 8, 12, 16, 20):
        print(f"  n={n:<3d} {half_ln_2pi * 2.0 ** -n:.3e}")

    print("\nrho_n = log(partial/limit) - ln(2*pi)/2 * 2^-n  vs  bound 1/(12 x 4^n)"
          "  (rho_n must lie in [-bound, 0]):")
    print("n    " + "".join(f"x={x:<26g}" for x in args.x))
    for n in range(1, args.n_max + 1):
        row = f"{n:<5d}"
        for x in args.x:
            rho = (cmath.log(probes[x].values[n - 1] / limits[x]).real
                   - half_ln_2pi * 2.0 ** -n)
            row += f"{rho:<+13.5e} {1.0 / (12.0 * x * 4.0 ** n):<14.5e}"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
