"""Single coupled trial: signal, filter, and the covariance-trace envelope.

Simulates one path of the scalar benchmark (stable linear drift, identity
sensor) together with its extended Kalman-Bucy filter, then prints a short
table showing the filter tracking the signal while tr(P_t) hugs the
closed-form envelope tau_t.
"""

import numpy as np

from ekbf import bounds
from ekbf.dynamics import FilterState, make_path_bundle, simulate_coupled
from ekbf.models import LinearModel, observation_params

DT = 0.01
STEPS = 1000
SEED = 42


def main():
    model = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    x0 = np.zeros(1)
    filters = [FilterState(np.zeros(1), np.ones((1, 1)))]

    paths = make_path_bundle(SEED, 0, STEPS, DT, model.dim, obs.obs_dim)
    rec = simulate_coupled(model, obs, x0, filters, paths, record_every=1)

    consts = bounds.problem_constants(model, obs, np.ones((1, 1)))
    times = DT * np.arange(STEPS + 1)
    envelope = bounds.tau_t(consts, times)

    print("scalar benchmark, one trial, dt=%g, %d steps" % (DT, STEPS))
    print()
    print("%8s %10s %10s %12s %12s" % ("t", "signal", "estimate", "tr(P)", "envelope"))
    for k in range(0, STEPS + 1, 100):
        print(
            "%8.2f %10.4f %10.4f %12.6f %12.6f"
            % (times[k], rec.signal[k, 0], rec.means[0][k, 0], rec.traces[0][k], envelope[k])
        )

    gap = rec.traces[0] - envelope
    print()
    print("max trace overshoot over the whole grid: %.3e" % gap.max())
    print("(anything below 5*dt*tr(R1) = %.0e is discretization error)" % (5 * DT * consts.noise_trace))


if __name__ == "__main__":
    main()
