"""Print the closed-form bounds report for two contrasting models.

Everything here is analytic: no simulation, just the envelope and radius
formulas evaluated on a time/confidence grid, plus the two structural
conditions that gate the forgetting-rate certificate.  The quadratic-cubic
model fails those conditions (its sensor is too strong relative to the
drift decay), the stiff scalar model passes them.  For machine-readable
output use `ekbf check --config ...` instead.
"""

import numpy as np

from ekbf.bounds import bounds_report, problem_constants
from ekbf.models import LinearModel, QuadraticCubicModel, observation_params

T_GRID = [0.0, 1.0, 2.0, 5.0, 10.0]
DELTA_GRID = [0.5, 1.0, 2.0, 4.0]


def show(name, c):
    report = bounds_report(c, t_grid=T_GRID, delta_grid=DELTA_GRID, alpha=1.1)
    print("== %s ==" % name)
    print("constants: jac decay %g, jac lipschitz %g, one-sided decay %g, tr(R1) %g, sensor gain %g"
          % (c.jac_decay, c.jac_lip, c.drift_decay, c.noise_trace, c.sensor_gain))
    cond = report["conditions"]
    print("spectral gap %s (%.3f vs %.3f needed), small noise %s (lhs %.3f)"
          % (cond["spectral_gap"], cond["spectral_gap_lhs"], cond["spectral_gap_rhs"],
             cond["small_noise"], cond["small_noise_lhs"]))
    if cond["spectral_gap"] and cond["small_noise"] and report["rate"] is not None:
        print("forgetting certificate: rate %.4f, moment exponent %.4f" % (report["rate"], report["exponent"]))
    else:
        print("no forgetting certificate at these constants")
    print()
    print("%8s %12s %12s" % ("t", "tau_t", "sigma^2_t"))
    for t, tau, s2 in zip(report["t_grid"], report["tau"], report["sigma_sq_t"]):
        print("%8.1f %12.6f %12.6f" % (t, tau, s2))
    print()
    print("filter error radius by (delta, t):")
    print("%8s" % "delta" + "".join("%12.1f" % t for t in report["t_grid"]))
    for d, row in zip(report["delta_grid"], report["ekf_radii"]):
        print("%8.1f" % d + "".join("%12.3f" % r for r in row))
    print()


def main():
    qc = QuadraticCubicModel(np.eye(2), np.zeros(2), np.eye(2), 1.0, 0.5 * np.eye(2))
    qc_obs = observation_params(np.eye(2), np.eye(2))
    show("quadratic-cubic, dim 2", problem_constants(qc, qc_obs, 0.5 * np.eye(2)))

    stiff = LinearModel(np.array([[-2.5]]), np.array([[0.01]]))
    stiff_obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    show("stiff scalar linear", problem_constants(stiff, stiff_obs, np.array([[1.0]])))


if __name__ == "__main__":
    main()
