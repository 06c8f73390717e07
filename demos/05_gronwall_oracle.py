"""Stochastic Gronwall sanity check on a process with known moments.

The synthetic squared-norm process is geometric Brownian motion, so every
fractional moment has a closed form.  The demo compares three quantities at
each checkpoint: the Monte Carlo estimate, the exact oracle, and the
envelope implied by the moment inequality (with and without source terms).
"""

import numpy as np

from ekbf.harness.estimators import gronwall_test_process


def show(rows, title):
    print(title)
    print("%4s %6s %12s %12s %12s %6s" % ("t", "order", "estimate", "oracle", "envelope", "pass"))
    for r in rows:
        oracle = r.get("oracle", float("nan"))  # odd-order sourced rows have no oracle
        print(
            "%4g %6d %12.5f %12.5f %12.5f %6s"
            % (r["t"], r["n"], r["estimate"], oracle, r["bound"], "yes" if r["pass"] else "NO")
        )
    print()


def main():
    homogeneous = gronwall_test_process(
        a=1.0, w=0.5, y0=1.0, u=0.0, v=0.0, dt=1e-3, T=2.0, n_paths=10_000, seed=3,
        orders=(1, 2),
    )
    show([r for r in homogeneous if r["kind"] == "homogeneous"],
         "pure decay (a=1, w=0.5): moments shrink below exp(-n(a - (n-1)w/2)t/2)")

    sourced = gronwall_test_process(
        a=1.0, w=0.5, y0=1.0, u=0.3, v=0.2, dt=1e-3, T=2.0, n_paths=10_000, seed=3,
        orders=(1, 2),
    )
    show([r for r in sourced if r["kind"] == "sourced"],
         "with drift/diffusion sources (u=0.3, v=0.2): closed-form envelope")


if __name__ == "__main__":
    main()
