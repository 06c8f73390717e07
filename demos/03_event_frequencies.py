"""Monte Carlo check of the high-probability error events.

Runs a 2000-trial ensemble of the scalar benchmark and tabulates, for each
confidence level delta and each checkpoint, how often the squared error
stayed inside its radius.  The observed frequency should dominate
1 - e^{-delta}; the Wilson interval quantifies the Monte Carlo slack.
"""

import numpy as np

from ekbf.harness.estimators import estimate_event_probability, run_ensemble
from ekbf.models import LinearModel, observation_params

DELTAS = (0.5, 1.0, 2.0, 4.0)


def main():
    model = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    res = run_ensemble(
        model, obs,
        x0=np.zeros(1),
        filters=[(np.zeros(1), np.ones((1, 1)))],
        dt=0.01, steps=1000,
        n_trials=2000, seed=11,
        checkpoint_steps=[100, 500, 1000],
    )

    for kind in ("signal", "ekf"):
        rows = estimate_event_probability(res, DELTAS, kind)
        print("%s error events (radius from the closed-form bound)" % kind)
        print("%6s %6s %10s %10s %22s %6s" % ("t", "delta", "target", "observed", "wilson 95%", "pass"))
        for r in rows:
            print(
                "%6g %6g %10.4f %10.4f      [%.4f, %.4f] %6s"
                % (r["t"], r["delta"], r["threshold"], r["frequency"],
                   r["ci_low"], r["ci_high"], "yes" if r["pass"] else "NO")
            )
        print()


if __name__ == "__main__":
    main()
