"""Two filters, same observations, different initializations: watch them merge.

The benchmark drift is stiff enough (decay 5, unit sensor, weak noise) for
the exponential-forgetting certificate to apply, so the measured contraction
of the gap between the two filters should beat the certified rate.
"""

import numpy as np

from ekbf.harness.estimators import estimate_forgetting_rate, run_ensemble
from ekbf.models import LinearModel, observation_params


def main():
    model = LinearModel(np.array([[-2.5]]), np.array([[0.01]]))
    obs = observation_params(np.array([[1.0]]), np.array([[1.0]]))
    filters = [
        (np.array([1.0]), np.array([[1.0]])),   # optimist
        (np.array([-1.0]), np.array([[0.1]])),  # pessimist
    ]
    steps = 4000
    res = run_ensemble(
        model, obs, np.zeros(1), filters,
        dt=1e-3, steps=steps, n_trials=300, seed=5,
        checkpoint_steps=[steps],
        record_steps=range(0, steps + 1, 10),
    )
    report = estimate_forgetting_rate(res, eps=0.5, alpha=1.1)

    print("status            %s" % report["status"])
    print("conditions hold   %s" % report["conditions_hold"])
    print("moment exponent   %.4f" % report["exponent"])
    print("certified rate    %.4f  (need half of this after the safety factor)" % report["theory_rate"])
    print("threshold         %.4f" % report["threshold"])
    print("fitted rate       %.4f +- %.4f" % (report["fitted_rate"], report["rate_stderr"]))
    print("trend p-values    n=1: %.3f, n=2: %.3f (small would mean the gap grows)"
          % (report["trend_pvalue_n1"], report["trend_pvalue_n2"]))
    print("verdict           %s" % ("PASS" if report["pass"] else "FAIL"))


if __name__ == "__main__":
    main()
