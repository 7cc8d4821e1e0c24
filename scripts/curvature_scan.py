#!/usr/bin/env python3
"""Radial scan of the higher-order curvatures on an annulus.

Prints kappa_1..kappa_3 along a radius together with their sharp upper bounds
(-4, -144, -82944), which only the disk attains.  The margin column is the
distance of kappa_1 below -4 — strictly positive on any multiply connected
domain, shrinking towards both boundary circles.
"""

import argparse
import sys

import numpy as np

import spanlab as sl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inner-radius", type=float, default=0.5)
    ap.add_argument("--lo", type=float, default=0.55)
    ap.add_argument("--hi", type=float, default=0.95)
    ap.add_argument("--count", type=int, default=17)
    ap.add_argument("--csv", help="also write the table to this CSV file")
    args = ap.parse_args()

    domain = sl.annulus(args.inner_radius)
    radii = np.linspace(args.lo, args.hi, args.count)
    model = sl.build_model(domain, probes=list(radii.astype(complex)), watch_order=3, tol=1e-9)
    print(f"model: degree {model.meta['degree']}, eps_model {model.eps_model:.2e}")

    columns = {"r": radii}
    profiles = [sl.curvature_profile(model, complex(r), orders=(1, 2, 3)) for r in radii]
    for n in (1, 2, 3):
        columns[f"kappa{n}"] = np.array([profile[n] for profile in profiles])
    columns["margin1"] = -4.0 - columns["kappa1"]

    header = f"{'r':>8}  {'kappa1':>14}  {'kappa2':>14}  {'kappa3':>14}  {'margin1':>10}"
    print(header)
    for i, r in enumerate(radii):
        print(
            f"{r:8.4f}  {columns['kappa1'][i]:14.8f}  {columns['kappa2'][i]:14.6f}"
            f"  {columns['kappa3'][i]:14.1f}  {columns['margin1'][i]:10.2e}"
        )
    if np.any(columns["margin1"] <= 0):
        print("WARNING: kappa_1 reached -4; that should only happen on a disk")
        return 1
    if args.csv:
        from spanlab.lab import write_csv

        write_csv(args.csv, columns)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
