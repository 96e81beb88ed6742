#!/usr/bin/env python3
"""Bound-level empirical checks at desk scale.

Covers the three bound checks that back the rate analysis:
  * likelihood-approximation gap between a statistic and its cuboid center
    (bounded by 2*kappa*s, checked over every composition)
  * class-size sandwich |log2 |T| - r| with a constant fitted at the
    smallest blocklength and required to hold at the larger ones; the
    script exits 1 if any sweep prints VIOLATED
  * Monte Carlo normality of the plug-in self-information (A/sqrt(n) decay)
"""

import argparse
import math
import sys

from tscode.family import FamilySpec
from tscode.quantized import Grid
from tscode.rates import SourceSpec, ml_approx_check, normality_check, sandwich_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--samples", type=int, default=100_000)
    args = parser.parse_args(argv)

    families = {
        "binary": FamilySpec.create([[0.0], [1.0]], rho_max=3.0),
        "ternary": FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=2.0),
    }

    print("== likelihood-approximation gap (bound 2*kappa*s) ==")
    for name, fam in families.items():
        for s in (0.5, 1.0, 2.0):
            bound = 2 * fam.kappa * s
            gaps = [ml_approx_check(fam, Grid.create(n=n, s=s, d=fam.d), n)
                    for n in (8, 16, 32, 64)]
            print(f"  {name} s={s}: max gaps {['%.4f' % g for g in gaps]} "
                  f"bound {bound:.4f}")

    print("== class-size sandwich (constant fitted at n=8) ==")
    wide = {name: FamilySpec.create(list(fam.tau), rho_max=14.0)
            for name, fam in families.items()}
    violated = False
    for name, fam in wide.items():
        for s in (0.5, 1.0, 2.0):
            (_, _, cstar, _), *rest = sandwich_sweep(fam, (8, 16, 32, 64), s)
            devs = [dev for _, dev, _, _ in rest]
            bound = 2 * fam.kappa * s + cstar
            ok = all(fits for *_, fits in rest)
            violated = violated or not ok
            status = "ok" if ok else "VIOLATED"
            print(f"  {name} s={s}: C*={cstar:.3f} deviations "
                  f"{['%.3f' % d for d in devs]} bound {bound:.3f} {status}")

    print("== normality of the plug-in self-information ==")
    src = SourceSpec(families["binary"], (math.log2(0.7 / 0.3),))
    for n in (64, 256, 1024):
        dev = normality_check(src, n, args.samples, seed=args.seed)
        print(f"  n={n:>5}: sup deviation {dev:.5f}  x sqrt(n) = {dev * math.sqrt(n):.4f}")
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
