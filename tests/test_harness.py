"""Harness: statistics calibration, engine determinism, config and CLI contract."""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekbf import bounds, dynamics, linalg
from ekbf.dynamics import FilterState, make_path_bundle, simulate_coupled
from ekbf.errors import ConfigError, InvalidArgument
from ekbf.harness import cli, estimators, stats
from ekbf.harness.cli import run_cli
from ekbf.harness.config import config_from_dict
from ekbf.harness.estimators import (
    estimate_chi2_laplace,
    estimate_ekf_laplace,
    estimate_event_probability,
    estimate_forgetting_rate,
    estimate_moments,
    gronwall_test_process,
    run_ensemble,
    verify_trace_bound,
)
from ekbf.harness.stats import (
    EstimateWithCI,
    bootstrap_mean_ci,
    fit_decay_rate,
    increasing_trend_pvalue,
    log_mean_exp_ci,
    normal_mean_ci,
    wilson_interval,
)
from ekbf.models import LinearModel, QuadraticCubicModel, observation_params

OU = LinearModel(np.array([[-1.0]]), np.array([[1.0]]))
OBS1 = observation_params(np.array([[1.0]]), np.array([[1.0]]))
QC2 = QuadraticCubicModel(np.eye(2), np.zeros(2), np.eye(2), 1.0, 0.5 * np.eye(2))
OBS2 = observation_params(np.eye(2), np.eye(2))
# non-diagonal everywhere: a BLAS product would round rows differently at
# different batch widths
LIN2 = LinearModel(np.array([[-1.0, 0.3], [-0.2, -1.5]]), np.array([[0.5, 0.1], [0.1, 0.4]]))
OBS2_SKEW = observation_params(np.array([[1.0, 0.2], [0.0, 1.0]]), np.diag([1.0, 0.5]))
QC2_SKEW = QuadraticCubicModel(
    np.array([[1.2, 0.3], [0.3, 0.9]]), np.array([0.1, -0.2]), np.array([[1.0, 0.4], [0.4, 0.7]]),
    0.8, np.array([[0.5, 0.1], [0.1, 0.4]]),
)
# d = 3, non-normal (A A^T != A^T A), seen through a 2 x 3 sensor
LIN3 = LinearModel(np.array([[-1.0, 0.8, 0.0], [0.0, -1.2, 0.6], [0.3, 0.0, -0.9]]),
                   np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]]))
OBS3 = observation_params(np.array([[1.0, 0.2, -0.3], [0.0, 1.0, 0.4]]), np.array([[1.0, 0.1], [0.1, 0.5]]))


def _ou_ensemble(n_trials=200, steps=100, seed=51, filters=None, record=None):
    filters = filters or [(np.zeros(1), np.ones((1, 1)))]
    return run_ensemble(
        OU, OBS1, np.zeros(1), filters, 0.01, steps, n_trials, seed,
        checkpoint_steps=[steps // 2, steps], record_steps=record,
    )


# ---------------------------------------------------------------- statistics


def test_wilson_frozen_and_edges():
    est = wilson_interval(90, 100)
    assert est.point == pytest.approx(0.9)
    assert est.ci_low == pytest.approx(0.8256343384950865, rel=1e-12)
    assert est.ci_high == pytest.approx(0.9447708629393249, rel=1e-12)
    assert wilson_interval(0, 50).ci_low == 0.0
    assert wilson_interval(50, 50).ci_high == 1.0
    with pytest.raises(InvalidArgument):
        wilson_interval(5, 4)


def test_wilson_coverage_on_known_bernoulli():
    # the 95% interval must cover the true p in at least 93% of repetitions
    rng = np.random.default_rng(606)
    p, n, reps = 0.7, 200, 500
    covered = 0
    for _ in range(reps):
        k = int(rng.binomial(n, p))
        est = wilson_interval(k, n)
        covered += est.ci_low <= p <= est.ci_high
    assert covered / reps >= 0.93


def test_bootstrap_ci_deterministic_and_covering():
    rng = np.random.default_rng(607)
    x = rng.standard_normal(400) + 2.0
    (a,) = bootstrap_mean_ci(x[None], np.random.default_rng(11))
    (b,) = bootstrap_mean_ci(x[None], np.random.default_rng(11))
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    assert a.ci_low <= 2.0 <= a.ci_high


def _whole_matrix_interval(samples, seed, n_resamples):
    """The bootstrap percentiles from one (n_resamples, n) index matrix."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    idx = rng.integers(0, samples.size, size=(n_resamples, samples.size))
    return np.percentile(samples[idx].mean(axis=1), [2.5, 97.5])


@settings(max_examples=60, deadline=None, database=None)
@given(
    k=st.integers(1, 4),
    n=st.integers(2, 3000),
    n_resamples=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_matches_whole_matrix(k, n, n_resamples, seed, data_seed):
    # k statistics of the same n units share one resample stream: row j is
    # bit for bit the whole-matrix interval of x[j] alone
    x = np.random.default_rng(data_seed).lognormal(size=(k, n))
    with mock.patch.object(stats, "BOOTSTRAP_RESAMPLES", n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        ests = bootstrap_mean_ci(x, rng)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        (single,) = bootstrap_mean_ci(x[:1], rng)
    assert len(ests) == k
    assert single == ests[0]  # a (1, n) sample is one statistic
    for row, est in zip(x, ests):
        low, high = _whole_matrix_interval(row, seed, n_resamples)
        point = float(row.mean())
        assert est.point == point
        assert est.ci_low == min(float(low), point)  # bit for bit, not approx
        assert est.ci_high == max(float(high), point)


def test_bootstrap_edge_shapes():
    rng = np.random.default_rng(3)
    assert bootstrap_mean_ci(np.empty((0, 5)), rng) == []
    one_unit = bootstrap_mean_ci(np.array([[2.0], [3.0]]), rng)
    assert [(e.ci_low, e.point, e.ci_high) for e in one_unit] == [(2.0, 2.0, 2.0), (3.0, 3.0, 3.0)]
    with pytest.raises(InvalidArgument):
        bootstrap_mean_ci(np.empty((2, 0)), rng)
    with pytest.raises(InvalidArgument):
        bootstrap_mean_ci(np.ones((2, 2, 2)), rng)
    with pytest.raises(InvalidArgument):  # one statistic is a (1, n) array
        bootstrap_mean_ci(np.arange(3.0), rng)


def test_normal_ci_edge_shapes():
    assert normal_mean_ci(np.empty((0, 5))) == []
    one_unit = normal_mean_ci(np.array([[2.0], [3.0]]))
    assert [(e.ci_low, e.point, e.ci_high) for e in one_unit] == [(2.0, 2.0, 2.0), (3.0, 3.0, 3.0)]
    (flat,) = normal_mean_ci(np.full((1, 7), 2.5))  # zero variance: the interval is the point
    assert (flat.ci_low, flat.point, flat.ci_high) == (2.5, 2.5, 2.5)
    with pytest.raises(InvalidArgument):
        normal_mean_ci(np.empty((2, 0)))
    with pytest.raises(InvalidArgument):
        normal_mean_ci(np.ones((2, 2, 2)))
    with pytest.raises(InvalidArgument):  # one statistic is a (1, n) array
        normal_mean_ci(np.arange(3.0))


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(1, 5), n=st.integers(2, 3000), data_seed=st.integers(0, 2**32 - 1))
def test_normal_ci_rows_independent_and_inside_the_samples(k, n, data_seed):
    # row j of a (k, n) table is bit for bit a one-row call, and both ends
    # lie within the row's samples, as a percentile interval's do
    x = np.random.default_rng(data_seed).lognormal(sigma=2.0, size=(k, n))
    ests = normal_mean_ci(x)
    assert len(ests) == k
    for j, (row, est) in enumerate(zip(x, ests)):
        assert normal_mean_ci(x[j:j + 1]) == [est]
        assert est.point == float(row.mean())
        half = stats.Z95 * float(row.std(ddof=1)) / np.sqrt(n)
        assert est.ci_low == max(est.point - half, row.min())
        assert est.ci_high == min(est.point + half, row.max())
        assert row.min() <= est.ci_low <= est.ci_high <= row.max()


def test_normal_ci_lower_side_coverage_on_gaussian_powers():
    """The side `pass` reads misses a true Z^2 or Z^4 mean at most 0.048 of the time.

    A row FAILs when ci_low lies above its bound, so on a correct simulator
    a false FAIL needs the true mean below ci_low: the lower side's miss,
    nominally 0.025.  Over 400 independent replications the miss count of
    a calibrated lower side is Binomial(400, 0.025), whose rate has standard
    deviation sqrt(0.025 * 0.975 / 400) = 0.0078.  The tolerance is three
    of them, 0.025 + 3 * 0.0078 = 0.048: a calibrated lower side exceeds
    it, 20 misses or more, with binomial probability 0.003.  Each replication is 2000 standard
    normals Z, and the rows are Z^2 and Z^4 with means 1 and 3: the samples
    of the order-1 and order-2 moment rows, the orders the shipped configs
    use, are scaled copies, and the interval is scale-equivariant.
    """
    reps, n = 400, 2000
    z2 = np.random.default_rng(2303).standard_normal((reps, n)) ** 2
    ests = normal_mean_ci(np.concatenate([z2, z2**2]))
    low = np.array([e.ci_low for e in ests]).reshape(2, reps)
    tol = 0.025 + 3.0 * np.sqrt(0.025 * 0.975 / reps)
    miss = (np.array([[1.0], [3.0]]) < low).mean(axis=1)
    assert np.all(miss <= tol), (miss, tol)


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(1, 5), n=st.integers(2, 3000), scale=st.floats(0.1, 400.0),
       data_seed=st.integers(0, 2**32 - 1))
def test_log_mean_exp_ci_rows_independent_and_inside_the_samples(k, n, scale, data_seed):
    # row j of a (k, n) table of exponents is bit for bit a one-row call,
    # and both ends lie within the row's samples exp(x), even where exp(x)
    # overflows for the largest exponents
    x = scale * np.random.default_rng(data_seed).standard_normal((k, n)) ** 2
    ests = log_mean_exp_ci(x)
    assert len(ests) == k
    for j, (row, est) in enumerate(zip(x, ests)):
        assert log_mean_exp_ci(x[j:j + 1]) == [est]
        w = np.exp(row - row.max())
        with np.errstate(over="ignore"):
            samples = np.exp(row)
            point = np.exp(row.max() + np.log(w.mean()))
        assert samples.min() <= est.ci_low <= est.point <= est.ci_high <= samples.max()
        assert est.point == pytest.approx(point, rel=1e-15)


def test_log_mean_exp_ci_edge_shapes():
    assert log_mean_exp_ci(np.empty((0, 5))) == []
    one_unit = log_mean_exp_ci(np.array([[0.0], [1.0]]))
    assert [(e.ci_low, e.point, e.ci_high) for e in one_unit] == [(1.0, 1.0, 1.0), (np.e, np.e, np.e)]
    (flat,) = log_mean_exp_ci(np.full((1, 7), 0.5))  # zero variance: the interval is the point
    assert flat.ci_low == flat.point == flat.ci_high == np.exp(0.5)
    with pytest.raises(InvalidArgument):
        log_mean_exp_ci(np.empty((2, 0)))
    with pytest.raises(InvalidArgument):
        log_mean_exp_ci(np.ones((2, 2, 2)))
    with pytest.raises(InvalidArgument):  # one statistic is a (1, n) array
        log_mean_exp_ci(np.arange(3.0))


def test_log_mean_exp_ci_matches_the_mean_where_nothing_overflows():
    # on the log scale the point is the sample mean of exp(x) up to rounding
    x = np.random.default_rng(71).standard_normal((3, 5000)) ** 2 / 4
    for row, est in zip(x, log_mean_exp_ci(x)):
        assert est.point == pytest.approx(np.exp(row).mean(), rel=1e-13)
        assert est.ci_low < est.point < est.ci_high


def test_laplace_row_keeps_an_overflowing_sample():
    # exp(800) overflows, yet the sample stays in the mean: the estimate
    # passes the float range, so the row FAILs with no estimate or end, and
    # n_overflow counts no dropped sample; dropping it would leave 999 ones
    # and a PASS against e
    exponents = np.zeros(1000)
    exponents[-1] = 800.0
    row = estimators._laplace_row(exponents, True, np.e, "initial-error-laplace", mode="chi2")
    assert row["pass"] is False and row["n_overflow"] == 0
    assert not {"estimate", "ci_low", "ci_high"} & set(row)
    json.loads(json.dumps(row), parse_constant=lambda c: pytest.fail(f"row holds {c}"))
    # a non-finite exponent or a diverged trial is left out and counted
    exponents[-1] = np.inf
    keep = np.ones(1000, dtype=bool)
    keep[0] = False
    row = estimators._laplace_row(exponents, keep, np.e, "initial-error-laplace", mode="chi2")
    assert row["pass"] and row["n_overflow"] == 2
    assert row["estimate"] == row["ci_low"] == row["ci_high"] == 1.0
    with pytest.raises(InvalidArgument):
        estimators._laplace_row(exponents, np.zeros(1000, dtype=bool), np.e, "initial-error-laplace")


def test_log_mean_exp_ci_lower_side_coverage_on_laplace_samples():
    """The side `pass` reads misses a true Laplace mean at most 0.048 of the time.

    The tolerance is that of
    test_normal_ci_lower_side_coverage_on_gaussian_powers.  Each of the 400
    replications is 2000 standard normals Z, and the rows are the exponents
    of the two Laplace rows on the benchmark's OU run: Z^2 / 4 (the
    chi-square row at P0 = 1), with E exp(Z^2 / 4) = sqrt(2), and c v Z^2
    (the filter row, c v = 0.030657 * 0.41716), with
    E exp(c v Z^2) = (1 - 2 c v)^(-1/2).
    """
    reps, n, cv = 400, 2000, 0.030656620097620192 * 0.41716323157595303
    z2 = np.random.default_rng(2707).standard_normal((reps, n)) ** 2
    ests = log_mean_exp_ci(np.concatenate([z2 / 4.0, cv * z2]))
    low = np.array([e.ci_low for e in ests]).reshape(2, reps)
    tol = 0.025 + 3.0 * np.sqrt(0.025 * 0.975 / reps)
    miss = (np.array([[np.sqrt(2.0)], [(1.0 - 2.0 * cv) ** -0.5]]) < low).mean(axis=1)
    assert np.all(miss <= tol), (miss, tol)


def test_no_row_bootstraps_and_each_laplace_row_takes_one_log_scale_interval(monkeypatch):
    # moment, Gronwall and both Laplace rows take a closed form; each Laplace
    # row calls the log-scale interval once on its one statistic
    res = _ou_ensemble(n_trials=200, steps=100, seed=38)
    boots, logs = [], []

    def counting_bootstrap(samples, rng):
        boots.append(np.shape(samples))
        return stats.bootstrap_mean_ci(samples, rng)

    def counting_log_scale(exponents):
        logs.append(np.shape(exponents))
        return stats.log_mean_exp_ci(exponents)

    monkeypatch.setattr(estimators, "bootstrap_mean_ci", counting_bootstrap)
    monkeypatch.setattr(estimators, "log_mean_exp_ci", counting_log_scale)
    estimate_moments(res, [1, 2])
    gronwall_test_process(
        a=1.0, w=0.3, dt=1e-2, T=1.0, n_paths=100, seed=39, orders=(1, 2),
        y0=1.0, u=0.5, v=0.2,
    )
    assert logs == []
    estimate_ekf_laplace(res, 0.5)
    assert logs == [(1, 200)]
    logs.clear()
    estimate_chi2_laplace(np.eye(1), 300, 40)
    assert logs == [(1, 300)]
    assert boots == []


def test_sourced_row_with_a_negative_normal_end_maps_to_zero(monkeypatch):
    # half the sourced paths sit at the clip 0 after two wide steps, so the
    # unclipped normal end of E Y_T is negative; the row's x -> x^{2/n} map
    # then reads 0 at n = 2 and 4, not NaN, and the row is no InvalidArgument
    tables = []

    def recording(samples):
        tables.append(np.array(samples))
        return stats.normal_mean_ci(samples)

    monkeypatch.setattr(estimators, "normal_mean_ci", recording)
    rows = gronwall_test_process(
        a=1.0, w=0.0, dt=0.5, T=1.0, n_paths=3, seed=5, orders=(2, 4), y0=0.0, u=0.01, v=10.0,
    )
    (samples,) = tables
    for row, sample in zip(rows, samples):
        unclipped = sample.mean() - stats.Z95 * sample.std(ddof=1) / np.sqrt(sample.size)
        assert sample.min() == 0.0 and unclipped < 0.0
        assert row["ci_low"] == 0.0
        assert np.isfinite([row["estimate"], row["ci_high"]]).all()
        assert row["ci_low"] <= row["estimate"] <= row["ci_high"]


def test_estimate_with_ci_invariant():
    with pytest.raises(InvalidArgument):
        EstimateWithCI(point=1.0, ci_low=1.1, ci_high=1.2)


def test_trend_pvalue_directions():
    t = np.arange(30.0)
    assert increasing_trend_pvalue(t, t + 0.01 * np.sin(t)) < 0.05
    assert increasing_trend_pvalue(t, -t) > 0.5
    assert increasing_trend_pvalue(t, np.ones(30)) == 1.0
    # growth far below any absolute tolerance is still growth
    t = np.linspace(0.0, 5.0, 50)
    assert increasing_trend_pvalue(t, 1e-12 * np.exp(t)) < 1e-60
    with pytest.raises(InvalidArgument):
        increasing_trend_pvalue([0.0, 1.0, 1.0, 2.0], np.arange(4.0))


def test_discordant_pairs_match_direct_count():
    rng = np.random.default_rng(611)
    for n in list(range(1, 40)) + [64, 65, 257]:
        ranks = rng.integers(0, max(1, n // 3), n)
        direct = sum(int((ranks[:j] > ranks[j]).sum()) for j in range(n))
        assert stats._discordant_pairs(ranks) == direct


def test_trend_pvalue_matches_scipy_exact_branch():
    kendalltau = pytest.importorskip("scipy.stats").kendalltau

    rng = np.random.default_rng(612)
    for k in range(400):
        n = int(rng.integers(3, 34))
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        v = (k % 3 - 1) * rng.uniform(0.0, 0.3) * np.arange(n) + rng.standard_normal(n)
        want = float(kendalltau(t, v, alternative="greater").pvalue)
        assert increasing_trend_pvalue(t, v) == want
    # past 33 points, a series within one pair of monotone stays exact
    t = np.arange(60.0)
    for v in (t, -t, np.r_[t[1], t[0], t[2:]], -np.r_[t[1], t[0], t[2:]]):
        want = float(kendalltau(t, v, alternative="greater").pvalue)
        assert increasing_trend_pvalue(t, v) == want


def test_trend_pvalue_matches_scipy_asymptotic_branch():
    import time

    kendalltau = pytest.importorskip("scipy.stats").kendalltau

    rng = np.random.default_rng(613)
    for n in (34, 35, 100, 1000, 10_000, 100_000):
        for drift in (-1.0, 0.0, 0.02, 1.0):
            t = np.linspace(0.0, 1.0, n)
            # rounding to one decimal makes ties
            v = np.round(drift * np.sqrt(n) * t + 3.0 * rng.standard_normal(n), 1)
            assert np.unique(v).size < n
            start = time.perf_counter()
            got = increasing_trend_pvalue(t, v)
            elapsed = time.perf_counter() - start
            want = float(kendalltau(t, v, alternative="greater").pvalue)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
            assert elapsed < 1.0


def test_fit_decay_rate_recovers_exponential():
    t = np.linspace(0.0, 5.0, 60)
    fit = fit_decay_rate(t, 3.0 * np.exp(-1.7 * t))
    assert fit.rate == pytest.approx(1.7, abs=1e-10)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    rng = np.random.default_rng(608)
    noisy = 3.0 * np.exp(-1.7 * t) * np.exp(0.05 * rng.standard_normal(60))
    fit = fit_decay_rate(t, noisy)
    assert abs(fit.rate - 1.7) <= 4.0 * fit.stderr + 0.05


def test_fit_decay_rate_drops_dead_points():
    t = np.linspace(0.0, 5.0, 20)
    v = np.exp(-10.0 * t)
    v[v < 1e-12] = 1e-17
    fit = fit_decay_rate(t, v)
    assert fit.n_used < 20


# -------------------------------------------------------------------- engine


BITWISE_CASES = {
    "ou-one-filter": (OU, OBS1, np.zeros(1), [(np.zeros(1), np.ones((1, 1)))]),
    "qc2-two-filters": (
        QC2, OBS2, np.zeros(2),
        [(np.zeros(2), 0.5 * np.eye(2)), (np.array([1.0, -0.5]), np.eye(2))],
    ),
    "lin2-two-filters": (
        LIN2, OBS2_SKEW, np.array([0.3, -0.2]),
        [(np.zeros(2), np.eye(2)), (np.array([1.0, -0.5]), np.array([[0.4, 0.1], [0.1, 0.3]]))],
    ),
    # the second filter trips the divergence guard on its first step, which
    # gives every trial its own covariance from then on
    "lin2-frozen-filter": (
        LIN2, OBS2_SKEW, np.zeros(2),
        [(np.zeros(2), np.eye(2)), (np.array([5e8, 0.0]), np.eye(2))],
    ),
    # a bank of two linear filters at d = 1, the forgetting benchmark's shape
    "ou-two-filters": (OU, OBS1, np.zeros(1), [(np.zeros(1), np.ones((1, 1))),
                                               (np.array([2.0]), 0.5 * np.ones((1, 1)))]),
    "lin3-two-filters": (
        LIN3, OBS3, np.array([0.3, -0.2, 0.1]),
        [(np.zeros(3), np.eye(3)), (np.array([1.0, -0.5, 0.2]), 0.5 * np.eye(3))],
    ),
    # the signal and filter 0 start just inside the guard on a barely
    # decaying drift: trials 0, 2 and 4 of the chunk freeze filter 0 after
    # 28 to 47 healthy steps of the shared flow, trial 3 never does
    "ou-late-freeze": (
        LinearModel(np.array([[-1e-9]]), np.array([[1.0]])), OBS1, np.array([1e8 - 0.5]),
        [(np.array([1e8 - 0.5]), np.ones((1, 1))), (np.zeros(1), np.ones((1, 1)))],
    ),
    # behind a sensor too weak to pull it down, the second filter's shared
    # covariance passes the guard on its first step, so the shared flow's
    # own verdict freezes it in every trial
    "ou-covariance-guard": (
        OU, observation_params(np.array([[1.0]]), np.array([[1e18]])), np.zeros(1),
        [(np.zeros(1), np.ones((1, 1))), (np.zeros(1), 1.03e8 * np.ones((1, 1)))],
    ),
}
# simulate_coupled takes these cases' plain (mean, cov) pairs unwrapped
BITWISE_CASES["qc2-plain-tuples"] = BITWISE_CASES["qc2-two-filters"]


@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_engine_matches_single_trial_api_bitwise(case):
    model, obs, x0, filters = BITWISE_CASES[case]
    seed, trial, steps, dt = 31, 3, 120, 0.01
    bundle = make_path_bundle(seed, trial, steps, dt, model.dim, obs.obs_dim)
    plain = case.endswith("plain-tuples")
    states = filters if plain else [FilterState(mean=m, cov=P) for m, P in filters]
    rec = simulate_coupled(model, obs, x0, states, bundle, record_every=10)
    for f in range(len(filters)):
        # the engine reports the errors of filter 0 only: rotate filter f to the front
        res = run_ensemble(
            model, obs, x0, filters[f:] + filters[:f], dt, steps, 5, seed,
            checkpoint_steps=[steps // 2, steps], record_steps=range(0, steps + 1, 10),
        )
        e = rec.signal[-1] - rec.means[f, -1]
        # bit-for-bit, not approx; the engine sums |e|^2 in ascending order,
        # which np.einsum matches only up to d = 2
        assert res.filter_err_sq[trial, 1] == linalg.sumsq(e)
        if f == 0 and len(filters) > 1:
            assert np.array_equal(res.delta_sq[trial], rec.delta)


@pytest.mark.parametrize("case, frozen", [("ou-late-freeze", [True, False, True, False, True]),
                                          ("ou-covariance-guard", [True] * 5)])
def test_engine_freezes_every_trial_as_the_single_trial_api_does(case, frozen):
    # frozen or not, every trial of the chunk keeps the bits of its own run,
    # its trace gap too, over the shared steps before a freeze widens P and
    # the per-trial steps after it
    model, obs, x0, filters = BITWISE_CASES[case]
    seed, steps, dt = 31, 120, 0.01
    res = run_ensemble(model, obs, x0, filters, dt, steps, 5, seed, checkpoint_steps=[60, steps])
    tau = np.asarray(bounds.tau_t(res.constants, np.arange(steps + 1) * dt))
    for trial in range(5):
        bundle = make_path_bundle(seed, trial, steps, dt, model.dim, obs.obs_dim)
        rec = simulate_coupled(model, obs, x0, [FilterState(*f) for f in filters], bundle, 60)
        assert res.diverged[trial] == rec.diverged.any() == frozen[trial], trial
        assert np.array_equal(res.filter_err_sq[trial], linalg.sumsq(rec.signal[1:] - rec.means[0, 1:]))
        assert res.trace_gap_max[trial] == np.max(rec.traces[0] - tau), trial


def test_engine_matches_single_trial_api_across_a_noise_block():
    # past NOISE_BLOCK steps each trial's stream state is read back between
    # blocks and the last block is 7 steps, a short last tile; d = 3, r = 2
    model, obs, x0, filters = BITWISE_CASES["lin3-two-filters"]
    seed, steps, dt, n_trials = 31, dynamics.NOISE_BLOCK + 7, 0.01, 3
    grid = dynamics.record_grid(steps, 512)  # steps 0, 512, ..., NOISE_BLOCK, steps
    res = run_ensemble(model, obs, x0, filters, dt, steps, n_trials, seed,
                       checkpoint_steps=grid, record_steps=grid)
    tau = np.asarray(bounds.tau_t(res.constants, np.arange(steps + 1) * dt))
    for trial in range(n_trials):
        bundle = make_path_bundle(seed, trial, steps, dt, model.dim, obs.obs_dim)
        rec = simulate_coupled(model, obs, x0, [FilterState(*f) for f in filters], bundle, 512)
        assert np.array_equal(res.filter_err_sq[trial], linalg.sumsq(rec.signal - rec.means[0])), trial
        assert np.array_equal(res.delta_sq[trial], rec.delta), trial
        assert res.trace_gap_max[trial] == np.max(rec.traces[0] - tau), trial
    assert not res.diverged.any()


def _assert_engine_unchanged_by(patch, model, obs, n_trials, n_filters, seed):
    """The arrays of one run equal those of the same run under patch, bit for bit."""
    d = model.dim
    filters = [(np.resize([1.0 - f, 0.5 * f], d), (0.5 + f) * np.eye(d)) for f in range(n_filters)]

    def run():
        return run_ensemble(
            model, obs, np.zeros(d), filters, 0.01, 25, n_trials, seed,
            checkpoint_steps=[10, 25], record_steps=range(0, 26, 5),
        )

    whole = run()
    with patch:
        split = run()
    for name in ("signal_err_sq", "filter_err_sq", "mean_dev_sq", "trace_gap_max",
                 "diverged", "delta_sq"):
        a, b = getattr(whole, name), getattr(split, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_engine_invariant_to_chunk_size(data):
    n_trials = data.draw(st.integers(1, 40), label="n_trials")
    # one-row chunks are where a width-dependent product shows most often
    chunk = data.draw(st.just(1) | st.integers(1, n_trials), label="chunk")
    n_filters = data.draw(st.integers(1, 3), label="n_filters")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    model, obs = data.draw(
        st.sampled_from([(QC2, OBS2), (QC2_SKEW, OBS2_SKEW), (LIN2, OBS2_SKEW), (OU, OBS1),
                         (LIN3, OBS3)]), label="model"
    )
    _assert_engine_unchanged_by(mock.patch.object(estimators, "CHUNK", chunk),
                                model, obs, n_trials, n_filters, seed)


@pytest.mark.parametrize("model, obs", [(QC2, OBS2), (LIN2, OBS2_SKEW)], ids=["qc2", "lin2"])
def test_engine_chunks_of_one_trial_match_the_whole_width(model, obs):
    # at one trial per chunk a per-row covariance has the shape of a shared
    # one, so only the Jacobian tells the engine whether the run's shared
    # Riccati flow applies
    _assert_engine_unchanged_by(mock.patch.object(estimators, "CHUNK", 1), model, obs, 6, 2, 2024)


@pytest.mark.parametrize("tile", [1, 3, 40])
@pytest.mark.parametrize("model, obs", [(QC2, OBS2), (LIN3, OBS3)], ids=["qc2", "lin3"])
def test_engine_invariant_to_tile_length(model, obs, tile):
    # the noise is handed to the stepper in time-major tiles; one step per
    # tile, tiles that straddle the record grid, and one tile longer than
    # the 25-step run all give the same bits
    _assert_engine_unchanged_by(mock.patch.object(dynamics, "TILE", tile), model, obs, 13, 2, 77)


@pytest.mark.parametrize("frozen", [False, True])
def test_linear_engine_projects_one_covariance_per_filter(monkeypatch, frozen):
    # a linear model's Riccati flow ignores the data: one covariance per
    # filter and step for the whole run, however many chunks share it, until
    # a filter freezes; from then on each chunk steps one per trial and filter
    rows = []
    project = linalg.psd_project_stack

    def counting(P):
        rows.append(int(np.prod(P.shape[:-2])))
        return project(P)

    monkeypatch.setattr(linalg, "psd_project_stack", counting)
    filters = [(np.zeros(2), np.eye(2)), (np.array([1.0, -0.5]), 0.5 * np.eye(2))]
    if frozen:
        filters.append((np.array([5e8, 0.0]), np.eye(2)))
    n_f, m, steps = len(filters), 7, 30
    want = {
        (False, 7): [n_f] * steps,
        (False, 3): [n_f] * steps,
        (True, 7): [n_f] + [n_f * 7] * (steps - 1),
        # the first chunk's step 0 writes the shared flow; the freeze then
        # widens every chunk, whose later steps are its own: 3 + 3 + 1 trials
        (True, 3): [n_f] + [n_f * 3] * (steps - 1) + [n_f * 3] * (steps - 1) + [n_f] * (steps - 1),
    }
    for chunk in (7, 3):
        rows.clear()
        monkeypatch.setattr(estimators, "CHUNK", chunk)
        res = run_ensemble(
            LIN2, OBS2_SKEW, np.zeros(2), filters, 0.01, steps, m, 44, checkpoint_steps=[steps],
        )
        # the frozen third filter is read by no estimator, so no trial is diverged
        assert not res.diverged.any()
        assert rows == want[frozen, chunk], chunk


def test_no_command_starts_a_thread(tmp_path, monkeypatch):
    # every chunk of a state-dependent model runs on the calling thread too
    def refuse(self):
        raise AssertionError(f"a thread was started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(estimators, "CHUNK", 4)
    cfg = _base_config(
        init={"x0": [0.0, 0.0], "filters": [[[0.0, 0.0], [[0.5, 0.0], [0.0, 0.5]]],
                                            [[1.0, -0.5], [[1.0, 0.0], [0.0, 1.0]]]]},
        **QC2_CONFIG,
    )
    cfg["sim"]["n_trials"] = 11
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200}
    path = _write_cfg(tmp_path, cfg)
    assert run_cli(["report", "--config", path, "--out", str(tmp_path / "out")]) in (0, 1)


def test_engine_rerun_is_bitwise_identical():
    a = _ou_ensemble(seed=33)
    b = _ou_ensemble(seed=33)
    assert np.array_equal(a.filter_err_sq, b.filter_err_sq)
    assert np.array_equal(a.mean_dev_sq, b.mean_dev_sq)


def test_empty_filter_bank_rejected():
    bundle = make_path_bundle(seed=1, trial=0, steps=5, dt=0.01, signal_dim=1, obs_dim=1)
    with pytest.raises(InvalidArgument, match="at least one filter"):
        simulate_coupled(OU, OBS1, np.zeros(1), [], bundle, record_every=1)
    with pytest.raises(InvalidArgument, match="at least one filter"):
        run_ensemble(OU, OBS1, np.zeros(1), [], 0.01, 5, 2, 1, [5])


# ---------------------------------------------------------------- estimators


def test_event_probability_rows():
    res = _ou_ensemble(n_trials=400, steps=100, seed=34)
    rows = estimate_event_probability(res, [0.0, 1.0], "ekf")
    assert len(rows) == 4  # two checkpoints x two deltas
    zero = [r for r in rows if r["delta"] == 0.0]
    assert all(r["pass"] for r in zero)  # threshold 1 - e^0 = 0
    assert all(0.0 <= r["frequency"] <= 1.0 for r in rows)
    assert {r["paper_ref"] for r in rows} == {"event-radius-filter"}


def test_moment_rows_structure():
    res = _ou_ensemble(n_trials=400, steps=100, seed=35)
    rows = estimate_moments(res, [1, 2])
    assert len(rows) == 8  # two checkpoints x two orders x two processes
    assert all(r["ci_low"] <= r["estimate"] <= r["ci_high"] for r in rows)
    assert all(r["bound"] > 0 for r in rows)
    with pytest.raises(InvalidArgument):
        estimate_moments(res, [5])


def test_chi2_laplace_near_gaussian_mgf():
    row = estimate_chi2_laplace(np.array([[1.0]]), 20000, seed=42)
    assert row["estimate"] == pytest.approx(np.sqrt(2.0), abs=0.05)
    assert row["pass"] and row["n_overflow"] == 0
    assert row["mode"] == "chi2"


def test_ekf_laplace_row():
    res = _ou_ensemble(n_trials=400, steps=300, seed=36)
    row = estimate_ekf_laplace(res, eps=0.5)
    assert row["bound"] == pytest.approx(1.8826702301384135, rel=1e-12)
    assert row["estimate"] >= 1.0
    assert row["pass"]
    assert row["mode"] == "ekf"


def test_trace_bound_row():
    res = _ou_ensemble(n_trials=100, steps=200, seed=37)
    row = verify_trace_bound(res)
    assert row["threshold"] == pytest.approx(5 * 0.01 * 1.0)
    assert row["pass"]


def test_forgetting_degenerate_on_identical_inits():
    filters = [(np.zeros(1), np.ones((1, 1))), (np.zeros(1), np.ones((1, 1)))]
    res = _ou_ensemble(n_trials=20, steps=50, seed=38, filters=filters, record=range(0, 51, 5))
    report = estimate_forgetting_rate(res, eps=0.5, alpha=1.1)
    assert report["status"] == "degenerate_input"
    assert report["pass"]


def test_forgetting_rejects_a_run_without_its_record():
    # one filter, or two without a record grid, leave no distance to fit
    with_one = _ou_ensemble(n_trials=20, steps=50, seed=38, record=range(0, 51, 5))
    filters = [(np.zeros(1), np.ones((1, 1))), (np.ones(1), np.ones((1, 1)))]
    unrecorded = _ou_ensemble(n_trials=20, steps=50, seed=38, filters=filters)
    for res in (with_one, unrecorded):
        assert res.delta_sq is None
        with pytest.raises(InvalidArgument, match="two filters and a record grid"):
            estimate_forgetting_rate(res, eps=0.5, alpha=1.1)


def test_filter_event_radius_reads_the_runs_initial_offset():
    # x0 = 0 and a filter started at 1: the radius forgets |x0 - xhat0|^2 = 1
    res = _ou_ensemble(n_trials=50, steps=100, seed=3, filters=[(np.ones(1), np.ones((1, 1)))])
    rows = estimate_event_probability(res, [1.0, 2.0], "ekf")
    assert len(rows) == 4
    for row in rows:
        want = bounds.ekf_radius(res.constants, row["delta"], row["t"], 1.0)
        assert row["radius"] == float(want)
    assert res.init_sq == 1.0


def test_forgetting_runs_on_distinct_inits():
    model = LinearModel(np.array([[-2.5]]), np.array([[0.01]]))
    filters = [(np.array([1.0]), np.ones((1, 1))), (np.array([-1.0]), 0.1 * np.ones((1, 1)))]
    res = run_ensemble(
        model, OBS1, np.zeros(1), filters, 1e-3, 2000, 100, 39,
        checkpoint_steps=[2000], record_steps=range(0, 2001, 20),
    )
    report = estimate_forgetting_rate(res, eps=0.5, alpha=1.1)
    assert report["status"] == "ok"
    assert report["conditions_hold"]
    assert report["fitted_rate"] > 0.0
    assert report["exponent"] == pytest.approx(1.118033988749895)


def test_gronwall_deterministic_case():
    rows = gronwall_test_process(
        a=1.0, w=0.0, dt=1e-3, T=1.0, n_paths=50, seed=40, orders=(2,), y0=1.0, u=0.0, v=0.0
    )
    final = [r for r in rows if r["t"] == pytest.approx(1.0)][0]
    # no bracket: every path equals the Euler product, which sits just under e^{-t}
    assert final["estimate"] == pytest.approx(np.exp(-1.0), rel=2e-3)
    assert final["pass"]


def test_gronwall_stochastic_case_matches_oracle():
    rows = gronwall_test_process(
        a=1.0, w=0.5, dt=1e-3, T=1.0, n_paths=4000, seed=41, orders=(2,), y0=1.0, u=0.0, v=0.0
    )
    final = [r for r in rows if r["t"] == pytest.approx(1.0)][0]
    assert final["oracle"] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert final["oracle_pass"]
    assert final["pass"]


def test_gronwall_sourced_rows():
    rows = gronwall_test_process(
        a=1.0, w=0.3, dt=1e-3, T=1.0, n_paths=2000, seed=43, orders=(1, 2), y0=1.0, u=0.5, v=0.2
    )
    sourced = {r["n"]: r for r in rows if r["kind"] == "sourced"}
    assert sorted(sourced) == [1, 2]
    assert all(r["pass"] for r in sourced.values())
    # the even order carries the exact moment as its oracle
    assert sourced[2]["oracle"] == bounds.gronwall_sourced_moment(2, 1.0, 1.0, 0.3, 0.5, 0.2)
    assert sourced[2]["oracle_pass"]
    # no exact value is computed at odd n: the row carries no oracle at all
    # rather than a NaN one with an invented verdict
    assert "oracle" not in sourced[1] and "oracle_pass" not in sourced[1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gronwall_sourced_rows_pass_at_long_horizons(seed):
    # E Y_T tends to u/a = 0.3; an envelope that decays in T falls below it by T = 5
    for T in (5.0, 10.0):
        rows = gronwall_test_process(
            a=1.0, w=0.5, dt=1e-2, T=T, n_paths=2000, seed=seed, orders=(1, 2, 4),
            y0=0.0, u=0.3, v=0.2,
        )
        assert [r["kind"] for r in rows] == ["sourced"] * 3
        assert all(r["pass"] for r in rows), rows


# ------------------------------------------------------------ config and CLI


def _base_config(**overrides):
    cfg = {
        "model": {"variant": "linear", "A": [[-1.0]], "R1": [[1.0]]},
        "obs": {"B": [[1.0]], "R2": [[1.0]]},
        "sim": {"dt": 0.01, "T": 1.0, "n_trials": 50, "seed": 7, "record_every": 5},
        "init": {"x0": [0.0], "xhat0": [0.0], "P0": [[1.0]]},
        "test": {"delta_grid": [1.0], "n_orders": [1], "checkpoints": [0.5, 1.0]},
    }
    cfg.update(overrides)
    return cfg


# the model and sensor sections of a two-dimensional quadratic-cubic config
QC2_CONFIG = {
    "model": {"variant": "quadratic_cubic", "Q1": [[1.0, 0.0], [0.0, 1.0]],
              "Q2": [[1.0, 0.0], [0.0, 1.0]], "R1": [[0.5, 0.0], [0.0, 0.5]]},
    "obs": {"B": [[1.0, 0.0], [0.0, 1.0]], "R2": [[1.0, 0.0], [0.0, 1.0]]},
}


def test_config_round_trip():
    cfg = config_from_dict(_base_config())
    assert cfg.steps == 100
    assert cfg.checkpoint_steps() == [50, 100]
    assert cfg.scenario == "ekf-vs-signal"
    assert len(cfg.filters) == 1


def test_config_errors_carry_dotted_paths():
    bad = _base_config()
    del bad["sim"]["dt"]
    with pytest.raises(ConfigError, match="sim.dt"):
        config_from_dict(bad)
    with pytest.raises(ConfigError, match="variant"):
        config_from_dict(_base_config(model={"variant": "pendulum", "R1": [[1.0]]}))
    with pytest.raises(ConfigError, match="dt rejected"):
        config_from_dict(_base_config(sim={"dt": 0.4, "T": 1.0, "n_trials": 1, "seed": 0}))
    # init.filters given with a P0 that init.filters would leave unread
    init = {"x0": [0.0], "filters": [[[0.0], [[1.0]]], [[1.0], [[0.5]]]], "P0": [[-5.0]]}
    with pytest.raises(ConfigError, match=r"^init\.filters cannot be given with init\.P0$"):
        config_from_dict(_base_config(init=init))


def test_config_trims_checkpoints_to_horizon():
    cfg = config_from_dict(
        _base_config(test={"checkpoints": [0.5, 5.0, 10.0], "delta_grid": [1.0]})
    )
    assert cfg.checkpoints == [0.5]


@pytest.mark.parametrize("checkpoints", [[-1.0, 0.5], [-0.001, 0.5]])
def test_config_rejects_negative_checkpoints(checkpoints):
    # -0.001 would round to step 0 at dt = 0.01; it is refused all the same
    with pytest.raises(ConfigError, match="test.checkpoints entries must be non-negative"):
        config_from_dict(_base_config(test={"checkpoints": checkpoints}))


def _fuzz_bases():
    """Two valid configs that between them set every config key."""
    linear = _base_config()
    linear["test"].update(alpha=1.5, scenario="trace-bound", eps=0.4)
    linear["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.1, "v": 0.1, "y0": 1.0, "n_paths": 100}
    qc = _base_config(
        model={
            "variant": "quadratic_cubic", "Q1": [[1.0]], "q": [0.0], "Q2": [[1.0]],
            "beta": 1.0, "R1": [[0.5]],
        },
        init={"x0": [0.0], "filters": [[[1.0], [[1.0]]], [[-1.0], [[0.1]]]]},
    )
    return [linear, qc]


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_FUZZ_CASES = [(i, path) for i, base in enumerate(_fuzz_bases()) for path in _key_paths(base)]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None, database=None)
@given(case=st.sampled_from(_FUZZ_CASES), value=_json_values)
def test_config_fuzz_raises_only_config_error(case, value):
    # one key of a valid config replaced by any JSON value: the config
    # either loads or is rejected with a ConfigError, never another exception
    which, path = case
    raw = _fuzz_bases()[which]
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        config_from_dict(raw)
    except ConfigError:
        pass


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sim", "seed", -1),
        ("test", "delta_grid", 1.0),
        ("test", "n_orders", 2),
        ("test", "checkpoints", 5),
        ("init", "P0", [[-1.0]]),
        # init.filters replaces the base config's init.xhat0 and init.P0
        ("init", "filters", [[[0.0], [[1.0]]], [[1.0], [[0.5]]]]),
    ],
)
def test_cli_rejects_bad_values_as_config_errors(tmp_path, capsys, section, key, value):
    cfg = _base_config()
    cfg[section][key] = value
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli(["report", "--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {section}.{key} ")


@pytest.mark.parametrize("argv", [["check"], ["verify", "--scenario", "trace-bound"], ["forgetting"]])
@pytest.mark.parametrize(
    "init, named",
    [
        ({"x0": [0.0, 0.0], "xhat0": [0.0, 0.0], "P0": [[1.0, 0.5], [0.0, 1.0]]}, "init.P0"),
        # eigenvalues 3 and -1: the first step's projection would hide it
        ({"x0": [0.0, 0.0], "xhat0": [0.0, 0.0], "P0": [[1.0, 2.0], [2.0, 1.0]]}, "init.P0"),
        ({"x0": [0.0, 0.0], "filters": [[[0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]],
                                         [[1.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]]]},
         "init.filters[1].cov"),
    ],
)
def test_cli_rejects_filter_covariance_not_symmetric_psd(tmp_path, capsys, argv, init, named):
    # refused as the config loads, whichever command runs; a zero prior stays valid
    path = _write_cfg(tmp_path, _base_config(init=init, **QC2_CONFIG))
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli(argv + ["--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {named} must be symmetric positive")


@pytest.mark.parametrize("command", ["report", "gronwall"])
@pytest.mark.parametrize(
    "key, value", [("n_paths", 1), ("w", -0.5), ("u", -0.1), ("v", -0.2), ("y0", -1.0)]
)
def test_cli_rejects_bad_gronwall_section_before_running(tmp_path, capsys, command, key, value):
    cfg = _base_config()
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200, key: value}
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")), \
            mock.patch.object(cli, "gronwall_test_process", side_effect=AssertionError("simulated")):
        assert run_cli([command, "--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: gronwall.{key} ")


@pytest.mark.parametrize(
    "argv, section, key, value, named",
    [
        (["gronwall"], "gronwall", None, {"y0": 0, "u": 0, "v": 0}, "gronwall.y0"),
        (["report"], "gronwall", None, {"y0": 0.0, "u": 0.0, "v": 0.0}, "gronwall.y0"),
        (["verify", "--scenario", "signal-vs-flow"], "test", "delta_grid", [], "test.delta_grid"),
        (["verify", "--scenario", "signal-vs-flow"], "test", "n_orders", [], "test.n_orders"),
        (["verify", "--scenario", "signal-vs-flow"], "test", "n_orders", [1, 1], "test.n_orders"),
        (["report"], "test", "delta_grid", [1.0, 2.0, 1], "test.delta_grid"),
    ],
)
def test_cli_rejects_a_selection_with_no_row_or_a_repeated_row(
    tmp_path, capsys, argv, section, key, value, named
):
    # a check that selects no row would read PASS (0/0 checks), and a
    # repeated grid entry would count its rows twice: both fail to load
    cfg = _base_config()
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")), \
            mock.patch.object(cli, "gronwall_test_process", side_effect=AssertionError("simulated")):
        assert run_cli(argv + ["--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {named}")


@pytest.mark.parametrize("command", ["report", "gronwall"])
def test_cli_rejects_horizon_of_one_step_before_running(tmp_path, capsys, command):
    # the Gronwall process needs T > dt; a config with T == dt must not load
    cfg = _base_config()
    cfg["sim"]["T"] = cfg["sim"]["dt"]
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "n_paths": 200}
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")), \
            mock.patch.object(cli, "gronwall_test_process", side_effect=AssertionError("simulated")):
        assert run_cli([command, "--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: sim.T ")


class _RecordedSeedSequence(np.random.SeedSequence):
    created = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.created.append((self.entropy, tuple(self.spawn_key)))


class _StateLog:
    """A trial generator that records every state set on its bit generator."""

    def __init__(self, gen, log):
        self._gen, self._log = gen, log

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value):
        self._log.append(value)
        self._gen.bit_generator.state = value

    def standard_normal(self, *args, **kwargs):
        return self._gen.standard_normal(*args, **kwargs)


def test_report_interval_rows_follow_one_rule(tmp_path):
    # every moment, Laplace and Gronwall row is judged the same way
    cfg = _base_config()
    cfg["test"]["n_orders"] = [1, 2]
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200}
    path = _write_cfg(tmp_path, cfg)
    run_cli(["report", "--config", path, "--out", str(tmp_path / "out")])
    details = json.loads((tmp_path / "out" / "report.json").read_text())["details"]
    refs = ("moment-envelope-signal", "moment-envelope-filter-mean", "initial-error-laplace",
            "filter-error-laplace", "gronwall-envelope", "gronwall-sourced-envelope")
    rows = [d for d in details if d.get("paper_ref") in refs]
    assert {d["paper_ref"] for d in rows} == set(refs)
    for d in rows:
        assert d["pass"] == (d["ci_low"] <= d["bound"]), d
        if "oracle" in d:
            assert d["oracle_pass"] == (d["ci_low"] <= d["oracle"] <= d["ci_high"]), d
        else:
            assert "oracle_pass" not in d
    assert any(d["paper_ref"] == "gronwall-sourced-envelope" and "oracle" in d for d in rows)


def test_report_streams_are_independent(tmp_path, monkeypatch):
    cfg = _base_config()
    cfg["test"]["n_orders"] = [1, 2]
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200}
    path = _write_cfg(tmp_path, cfg)
    monkeypatch.setattr(_RecordedSeedSequence, "created", [])
    trial_rng, states = estimators.trial_rng, []
    monkeypatch.setattr(estimators, "trial_rng", lambda seed, k: _StateLog(trial_rng(seed, k), states))
    with mock.patch.object(np.random, "SeedSequence", _RecordedSeedSequence):
        run_cli(["report", "--config", path, "--out", str(tmp_path / "out")])
    keys = _RecordedSeedSequence.created
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    assert not repeated, f"streams used twice: {repeated}"
    # trials keep (k,): trial k's draws come from exactly one state, the
    # one numpy seeds from (k,); every other stream has its own (purpose, index)
    assert states == [np.random.PCG64(np.random.SeedSequence(7, spawn_key=(k,))).state
                      for k in range(50)]
    # the one one-word key is the chunk's generator, trial 0's own stream:
    # any other stream keyed (k,) would share trial k's draws
    assert [k for _, k in keys if len(k) == 1] == [(0,)]
    # every row takes a closed-form interval and draws nothing; the retired
    # bootstrap keys (1, 0), (2, 0), (3, 1), (5, 0) and (5, 1) renumber no other key
    assert sorted(k for _, k in keys if len(k) != 1) == [(3, 0), (4, 0), (4, 1)]
    assert {e for e, _ in keys} == {7}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_imports_without_scipy():
    # scipy is a test dependency only; the command line must not load it
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import ekbf.harness.cli as cli\n"
        "cli.load_config(sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "demos" / "configs" / "forgetting.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_loads_without_estimators():
    # config.py is the one home of the run defaults, so loading a config
    # imports no estimator, through a package facade or otherwise
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import ekbf.harness.config as config\n"
        "config.load_config(sys.argv[1])\n"
        "print('ekbf.harness.estimators' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "demos" / "configs" / "forgetting.json")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_check_prints_json(tmp_path, capsys):
    path = _write_cfg(tmp_path, _base_config())
    assert run_cli(["check", "--config", path]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["constants"]["jac_decay"] == 2.0
    assert "rate" in blob and "conditions" in blob


def test_cli_report_prints_only_its_verdict(tmp_path, capsys):
    path = _write_cfg(tmp_path, _base_config())
    run_cli(["check", "--config", path, "--out", str(tmp_path / "check")])
    capsys.readouterr()
    run_cli(["report", "--config", path, "--out", str(tmp_path / "report")])
    verdict = r"report: (PASS|FAIL) \(\d+/\d+ checks\)(; oracle (PASS|FAIL) \(\d+/\d+\))?\n"
    assert re.fullmatch(verdict, capsys.readouterr().out)
    bounds_json = (tmp_path / "report" / "bounds.json").read_bytes()
    assert bounds_json == (tmp_path / "check" / "bounds.json").read_bytes()


def test_cli_verify_writes_documented_columns(tmp_path):
    path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "out"
    code = run_cli(["verify", "--config", path, "--out", str(out)])
    assert code in (0, 1)
    header = (out / "events.csv").read_text().splitlines()[0]
    assert header.startswith("t,delta,frequency,ci_low,ci_high,threshold,pass")
    assert (out / "moments.csv").exists()
    assert (out / "verify.json").exists()


def test_cli_reruns_are_byte_identical(tmp_path):
    path = _write_cfg(tmp_path, _base_config())
    bank = _base_config()
    bank["init"] = {"x0": [0.0], "filters": [[[1.0], [[1.0]]], [[-1.0], [[0.1]]]]}
    bank["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200}
    bank_path = _write_cfg(tmp_path, bank, "bank.json")
    report_files = ("events.csv", "moments.csv", "laplace.csv", "trace.csv", "gronwall.csv",
                    "bounds.json", "report.json")
    for command, cfg_path, names in (
        ("verify", path, ("events.csv", "moments.csv", "verify.json")),
        ("simulate", path, ("ensemble.csv", "trajectory.csv")),
        ("forgetting", bank_path, ("forgetting.csv", "forgetting.json")),
        ("gronwall", bank_path, ("gronwall.csv", "gronwall.json")),
        ("report", bank_path, report_files),
    ):
        out_a, out_b = tmp_path / command / "a", tmp_path / command / "b"
        run_cli([command, "--config", cfg_path, "--out", str(out_a)])
        run_cli([command, "--config", cfg_path, "--out", str(out_b)])
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_forgetting_csv_reproduces_verdict(tmp_path):
    # the published curve is the one the verdict was fitted on, bit for bit
    cfg = _base_config(
        model={"variant": "linear", "A": [[-2.5]], "R1": [[0.01]]},
        init={"x0": [0.0], "filters": [[[1.0], [[1.0]]], [[-1.0], [[0.1]]]]},
    )
    cfg["sim"].update(n_trials=300, record_every=2)
    out = tmp_path / "out"
    run_cli(["forgetting", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    row = json.loads((out / "forgetting.json").read_text())["details"][0]
    lines = (out / "forgetting.csv").read_text().splitlines()
    columns = lines[0].split(",")
    curve = {name: np.array([float(line.split(",")[j]) for line in lines[1:]])
             for j, name in enumerate(columns)}
    assert row["status"] == "ok"
    t = curve["t"]
    window = t >= estimators.FORGETTING_BURN_IN * t[-1]
    fit = fit_decay_rate(t[window], curve["mean_delta_pow"][window])
    assert (fit.rate, fit.stderr) == (row["fitted_rate"], row["rate_stderr"])
    assert increasing_trend_pvalue(t, curve["mean_delta_n1"]) == row["trend_pvalue_n1"]
    assert increasing_trend_pvalue(t, curve["mean_delta_n2"]) == row["trend_pvalue_n2"]


def test_forgetting_csv_fills_the_power_curve_on_identical_filters(tmp_path):
    # a degenerate row carries no exponent, but the curve still has one
    cfg = _base_config(init={"x0": [0.0], "filters": [[[0.0], [[1.0]]], [[0.0], [[1.0]]]]})
    out = tmp_path / "out"
    assert run_cli(["forgetting", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    row = json.loads((out / "forgetting.json").read_text())["details"][0]
    assert row["status"] == "degenerate_input"
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert lines[0] == "t,mean_delta_pow,mean_delta_n1,mean_delta_n2"
    assert len(lines) == 22  # the header and record times 0, 0.05, ..., 1
    assert all(line.split(",")[1:] == ["0", "0", "0"] for line in lines[1:])


def test_cli_exit_codes(tmp_path):
    assert run_cli(["check", "--config", str(tmp_path / "missing.json")]) == 2
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert run_cli(["check", "--config", str(mangled)]) == 2
    # forgetting needs two filter initializations
    path = _write_cfg(tmp_path, _base_config())
    assert run_cli(["forgetting", "--config", path]) == 2


def test_cli_filter_laplace_row_past_the_float_range_fails(tmp_path, capsys):
    # a filter mean started 5000 away: every exponent c e^2 is finite but
    # its exponential overflows, so the row keeps all 50 trials and FAILs
    # (exit 1) with no estimate or interval in its CSV or strict JSON
    cfg = _base_config(init={"x0": [0.0], "xhat0": [5000.0], "P0": [[1.0]]})
    cfg["sim"]["T"] = 0.1
    cfg["test"]["checkpoints"] = [0.1]
    out = tmp_path / "out"
    assert run_cli(["verify", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    (row,) = [d for d in _strict_json(out / "verify.json")["details"] if d["paper_ref"] == "filter-error-laplace"]
    assert row["pass"] is False and row["n_overflow"] == 0
    assert not {"estimate", "ci_low", "ci_high"} & set(row)
    assert _csv_header(out / "laplace.csv") == ["mode", "t", "eps", "coefficient", "bound", "n_overflow",
                                                 "pass", "paper_ref"]


@pytest.mark.parametrize(
    "failure, line",
    [(InvalidArgument("all samples overflowed or diverged"), "error: all samples overflowed or diverged"),
     (OverflowError(34, "Numerical result out of range"),
      "error: OverflowError: Numerical result out of range")],
    ids=["ekbf-error", "overflow"],
)
def test_cli_runtime_error_exits_three(tmp_path, capsys, failure, line):
    # a failure of the run itself, not of a config value: a package error,
    # or a Python-float power past the float range, as an envelope of a
    # huge prior or noise raises it, in one line and not a traceback
    path = _write_cfg(tmp_path, _base_config())
    with mock.patch.object(cli, "run_ensemble", side_effect=failure):
        assert run_cli(["report", "--config", path]) == 3
    assert capsys.readouterr().err.splitlines() == [line]


def test_cli_refuses_to_write_non_finite_json(tmp_path):
    # a signal noise of 1e200 overflows the envelope radii: check exits 3
    # and names the file rather than write Infinity into bounds.json; a
    # subprocess keeps numpy's overflow warnings out of this process
    cfg = _base_config()
    cfg["model"]["R1"] = [[1e200]]
    root, out = Path(__file__).resolve().parents[1], tmp_path / "out"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ekbf.harness.cli", "check", "--config", _write_cfg(tmp_path, cfg),
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("error: bounds.json would hold a non-finite value")
    assert not (out / "bounds.json").exists()


@pytest.mark.parametrize(
    "failure, line",
    [(MemoryError(), "error: out of memory"),
     (MemoryError("Unable to allocate 7.28 TiB"), "error: out of memory: Unable to allocate 7.28 TiB")],
)
def test_cli_out_of_memory_exits_three(tmp_path, capsys, failure, line):
    # an array too large to allocate fails the run, not a check, and says so
    # in one line even when the error carries no message; the error is
    # raised here, never by a real allocation
    path = _write_cfg(tmp_path, _base_config())
    with mock.patch.object(cli, "run_ensemble", side_effect=failure):
        assert run_cli(["verify", "--scenario", "trace-bound", "--config", path]) == 3
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_cli_rejects_out_that_cannot_be_a_directory(tmp_path, capsys, command, below):
    # an existing file, or a path through one, is a config error found
    # before anything runs
    path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "taken"
    out.write_text("a file\n")
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli([command, "--config", path, "--out", str(out / below)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: --out ") and "cannot be made a directory" in line
    assert out.read_text() == "a file\n"


def test_cli_write_failure_exits_three(tmp_path, capsys):
    # a directory where report.json goes makes open() fail, also as root,
    # whom file permissions do not stop
    path = _write_cfg(tmp_path, _base_config())
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    assert run_cli(["report", "--config", path, "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "report.json" in line


@pytest.mark.parametrize(
    "argv", [["report"], ["forgetting"], ["verify", "--scenario", "signal-vs-flow"]]
)
def test_filter_no_check_reads_fails_no_row(tmp_path, capsys, argv):
    # the third filter trips the divergence guard at step 1; no estimator
    # reads it, so it marks no trial diverged and every row passes
    init = {"x0": [0.0], "filters": [[[0.0], [[1.0]]], [[1.0], [[0.5]]], [[5e8], [[1.0]]]]}
    cfg = _base_config(init=init)
    cfg["sim"]["T"] = 2.0
    cfg["sim"]["n_trials"] = 100
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(argv + ["--config", path, "--out", str(out)]) == 0
    rows = _strict_json(out / f"{argv[0]}.json")["details"]
    assert all(row.get("n_diverged", 0) == row.get("n_overflow", 0) == 0 for row in rows)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["report"], ["verify", "--scenario", "chi2-laplace"]])
def test_cli_rejects_single_trial_before_simulating(tmp_path, capsys, argv):
    cfg = _base_config()
    cfg["sim"]["n_trials"] = 1
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli(argv + ["--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sim.n_trials must be >= 2 for the chi-square Laplace row"
    ]


@pytest.mark.parametrize("argv", [["report"], ["verify", "--scenario", "chi2-laplace"]])
@pytest.mark.parametrize(
    "init",
    [
        {"x0": [0.0], "xhat0": [0.0], "P0": [[0.0]]},
        {"x0": [0.0], "filters": [[[0.0], [[0.0]]], [[1.0], [[1.0]]]]},
    ],
)
def test_cli_rejects_zero_prior_before_simulating(tmp_path, capsys, argv, init):
    # the chi-square row normalizes by the prior's top eigenvalue, so a zero
    # prior is a config error found before the ensemble runs
    path = _write_cfg(tmp_path, _base_config(init=init))
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli(argv + ["--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: init.P0 (or init.filters[0].cov) must have a positive top eigenvalue"
        " for the chi-square Laplace row"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "ekf-vs-signal"],
        ["verify", "--scenario", "signal-vs-flow"],
        ["report"],
    ],
)
def test_cli_rejects_high_moment_orders_before_simulating(tmp_path, capsys, argv):
    cfg = _base_config()
    cfg["test"]["n_orders"] = [1, 5]
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli(argv + ["--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: test.n_orders entries above 4 are too tail-sensitive"
    ]


@pytest.mark.parametrize("command", ["forgetting", "report"])
def test_cli_rejects_record_grid_too_coarse_for_the_forgetting_fit(tmp_path, capsys, command):
    # T = 1, dt = 0.01, burn-in 0.2: every 50 steps leaves the record times
    # 0.5 and 1 to fit, every 40 steps leaves 0.4, 0.8 and 1
    cfg = _base_config(
        model={"variant": "linear", "A": [[-2.5]], "R1": [[0.01]]},
        init={"x0": [0.0], "filters": [[[1.0], [[1.0]]], [[-1.0], [[0.1]]]]},
    )
    cfg["sim"]["record_every"] = 50
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli([command, "--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: sim.record_every leaves fewer than 3 record times past the forgetting burn-in"
    ]
    cfg["sim"]["record_every"] = 40
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli([command, "--config", path, "--out", str(out)]) in (0, 1)
    rows = json.loads((out / f"{command}.json").read_text())["details"]
    assert [r["n_fit_points"] for r in rows if r["paper_ref"] == "forgetting-rate"] == [3]


@pytest.mark.parametrize("command", ["forgetting", "report"])
def test_cli_rejects_zero_gain_sensor_for_the_forgetting_rate(tmp_path, capsys, command):
    # the forgetting rate divides by the sensor gain, so a sensor that sees
    # nothing is a config error found before the ensemble runs
    cfg = _base_config(
        obs={"B": [[0.0]], "R2": [[1.0]]},
        init={"x0": [0.0], "filters": [[[1.0], [[1.0]]], [[-1.0], [[0.1]]]]},
    )
    path = _write_cfg(tmp_path, cfg)
    with mock.patch.object(cli, "run_ensemble", side_effect=AssertionError("simulated")):
        assert run_cli([command, "--config", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: obs.B must give a positive sensor gain (B^T R2^-1 B nonzero) for the forgetting rate"
    ]


def test_emit_returns_one_when_any_check_fails(tmp_path, capsys):
    # honest configs essentially never FAIL (the bounds hold), so drive the
    # verdict plumbing directly
    from ekbf.harness.cli import _emit

    details = [
        {"t": 1.0, "pass": True, "paper_ref": "event-radius-filter"},
        {"t": 5.0, "pass": False, "paper_ref": "event-radius-filter"},
    ]
    code = _emit("ekf-vs-signal", [("events", details)], str(tmp_path), "verify")
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL (1/2 checks)" in out
    assert "oracle" not in out  # no row carries an oracle
    on_disk = json.loads((tmp_path / "verify.json").read_text())
    assert on_disk["pass"] is False
    assert on_disk["oracle_pass"] is True
    assert on_disk["paper_refs"] == ["event-radius-filter"]


def test_emit_shows_oracle_misses_but_exits_on_pass_alone(tmp_path, capsys):
    # the bound holds while the simulated moment misses its exact value: the
    # line and the summary show it, and the exit code still reads pass alone
    from ekbf.harness.cli import _emit

    details = [{"t": 1.0, "n": 2, "kind": "homogeneous", "oracle": 0.5, "oracle_pass": False,
                "pass": True, "paper_ref": "gronwall-envelope"}]
    assert _emit("gronwall-test", [("gronwall", details)], str(tmp_path), "gronwall") == 0
    assert capsys.readouterr().out == "gronwall-test: PASS (1/1 checks); oracle FAIL (0/1)\n"
    on_disk = json.loads((tmp_path / "gronwall.json").read_text())
    assert on_disk["pass"] is True and on_disk["oracle_pass"] is False


def test_emit_routes_each_check_to_its_csv(tmp_path, capsys):
    # rows go to the CSV their check names, in check order; a check named
    # None reaches the summary alone, and a check with no rows writes no file
    from ekbf.harness.cli import _emit

    first, second = {"t": 1.0, "pass": True}, {"t": 2.0, "pass": True}
    rate = {"status": "ok", "pass": True, "paper_ref": "forgetting-rate"}
    checks = [("events", [first]), (None, [rate]), ("moments", []), ("events", [second])]
    assert _emit("report", checks, str(tmp_path), "report") == 0
    assert capsys.readouterr().out == "report: PASS (3/3 checks)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "report.json"]
    assert (tmp_path / "events.csv").read_text() == "t,pass\n1,1\n2,1\n"
    assert json.loads((tmp_path / "report.json").read_text())["details"] == [first, rate, second]


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def _csv_header(path):
    return path.read_text().splitlines()[0].split(",")


# The check CSV of each paper_ref, as the README's table of output files gives it.
_CHECK_CSVS = {
    "event-radius-signal": "events", "event-radius-filter": "events",
    "moment-envelope-signal": "moments", "moment-envelope-filter-mean": "moments",
    "initial-error-laplace": "laplace", "filter-error-laplace": "laplace",
    "trace-envelope": "trace",
    "gronwall-envelope": "gronwall", "gronwall-sourced-envelope": "gronwall",
}


def test_check_csv_columns_are_the_fields_their_rows_carry(tmp_path):
    # one rule for every check CSV: the columns are the ROW_FIELDS names that
    # the file's JSON rows carry, in that order; nothing dropped or invented
    cfg = _base_config()
    cfg["test"]["n_orders"] = [1, 2]
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200}
    path = _write_cfg(tmp_path, cfg)
    runs = {
        "report": (["report"], "report.json"),
        "chi2": (["verify", "--scenario", "chi2-laplace"], "verify.json"),
        "trace": (["verify", "--scenario", "trace-bound"], "verify.json"),
    }
    for name, (argv, summary) in runs.items():
        out = tmp_path / name
        assert run_cli(argv + ["--config", path, "--out", str(out)]) in (0, 1)
        families = {}
        for row in _strict_json(out / summary)["details"]:
            if row["paper_ref"] in _CHECK_CSVS:
                families.setdefault(_CHECK_CSVS[row["paper_ref"]], []).append(row)
        written = {p.stem for p in out.glob("*.csv")}
        assert written == set(families), name
        for stem, rows in families.items():
            keys = set().union(*rows)
            assert keys <= set(estimators.ROW_FIELDS), (name, stem)
            header = _csv_header(out / f"{stem}.csv")
            assert header == [f for f in estimators.ROW_FIELDS if f in keys], (name, stem)
    assert set(_csv_header(tmp_path / "chi2" / "laplace.csv")) >= {"mode", "n_samples"}
    assert "dt" in _strict_json(tmp_path / "trace" / "verify.json")["details"][0]
    assert {p.name for p in (tmp_path / "report").glob("*.csv")} == {
        "events.csv", "moments.csv", "laplace.csv", "trace.csv", "gronwall.csv"
    }


def _csv_rows(path):
    """The data rows of a check CSV, each without its empty cells."""
    header, *lines = path.read_text().splitlines()
    return [{k: v for k, v in zip(header.split(","), line.split(",")) if v} for line in lines]


def test_report_writes_the_same_check_files_as_each_command(tmp_path):
    # report runs every check, so every row and check file of each checking
    # command reappears unchanged under report
    cfg = _base_config(init={"x0": [0.0], "filters": [[[0.5], [[1.0]]], [[-0.5], [[0.5]]]]})
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "u": 0.3, "v": 0.2, "n_paths": 200}
    path = _write_cfg(tmp_path, cfg)
    report = tmp_path / "report"
    run_cli(["report", "--config", path, "--out", str(report)])
    report_rows = _strict_json(report / "report.json")["details"]
    scenarios = ("signal-vs-flow", "ekf-vs-signal", "trace-bound", "chi2-laplace")
    runs = [["verify", "--scenario", s] for s in scenarios] + [["forgetting"], ["gronwall"]]
    written, union = set(), []
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        run_cli(argv + ["--config", path, "--out", str(out)])
        rows = _strict_json(out / f"{argv[0]}.json")["details"]
        assert rows and all(row in report_rows for row in rows), argv
        union += rows
        for csv_path in out.glob("*.csv"):
            written.add(csv_path.name)
            mine, theirs = csv_path.read_bytes(), (report / csv_path.name).read_bytes()
            if csv_path.name in ("events.csv", "laplace.csv"):
                # under report these files also hold the other event or Laplace check
                assert all(r in _csv_rows(report / csv_path.name) for r in _csv_rows(csv_path)), argv
            else:
                assert mine == theirs, (argv, csv_path.name)
    assert written == {p.name for p in report.glob("*.csv")}
    assert all(row in union for row in report_rows)


def test_cli_simulate_prints_counts_and_claims_no_check(tmp_path, capsys):
    # simulate makes no check: no verdict, no check count, no summary JSON
    path = _write_cfg(tmp_path, _base_config())
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "simulate: 50 trials, 0 diverged\n"
    assert sorted(p.name for p in out.iterdir()) == ["ensemble.csv", "trajectory.csv"]
    header, *rows = (out / "ensemble.csv").read_text().splitlines()
    assert header == "t,mean_signal_err_sq,mean_filter_err_sq,mean_dev_sq,n_diverged"
    assert [r.split(",")[0] for r in rows] == ["0.5", "1"]


def test_cli_simulate_trajectory_is_trial_zero_on_its_record_grid(tmp_path):
    # trajectory.csv is simulate_coupled's record of trial 0, the trace of
    # filter 0 at the record steps and the trace envelope there; 7 does not
    # divide the 100 steps, so the final step closes the grid
    raw = _base_config(
        init={"x0": [0.3, -0.2], "xhat0": [0.0, 0.1], "P0": [[1.0, 0.2], [0.2, 0.5]]}, **QC2_CONFIG
    )
    raw["sim"]["record_every"] = 7
    path = _write_cfg(tmp_path, raw)
    assert run_cli(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 0
    header, *lines = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
    assert header == "t,x_0,x_1,xhat_0,xhat_1,trace_P,trace_envelope"
    cfg = config_from_dict(raw)
    bundle = make_path_bundle(cfg.seed, 0, cfg.steps, cfg.dt, 2, 2)
    rec = simulate_coupled(cfg.model, cfg.obs, cfg.x0, cfg.filters, bundle, 7)
    steps = [*range(0, 100, 7), 100]
    np.testing.assert_array_equal(rec.times, np.array(steps) * cfg.dt)
    c = bounds.problem_constants(cfg.model, cfg.obs, cfg.filters[0][1])
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    np.testing.assert_array_equal(table[:, 0], rec.times)
    np.testing.assert_array_equal(table[:, 1:3], rec.signal)
    np.testing.assert_array_equal(table[:, 3:5], rec.means[0])
    np.testing.assert_array_equal(table[:, 5], rec.traces[0, steps])
    np.testing.assert_array_equal(table[:, 6], bounds.tau_t(c, rec.times))


def test_cli_simulate_and_gronwall(tmp_path):
    cfg = _base_config()
    cfg["gronwall"] = {"a": 1.0, "w": 0.5, "n_paths": 500}
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--config", path, "--out", str(out)]) == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x_0,xhat_0,trace_P,trace_envelope"
    assert len(traj) > 10
    assert run_cli(["gronwall", "--config", path, "--out", str(out)]) == 0
    assert (out / "gronwall.csv").exists()


def test_cli_chi2_scenario(tmp_path):
    cfg = _base_config(test={"scenario": "chi2-laplace", "delta_grid": [1.0]})
    cfg["sim"]["n_trials"] = 5000
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "chi"
    assert run_cli(["verify", "--config", path, "--out", str(out)]) == 0
    row = (out / "laplace.csv").read_text().splitlines()
    assert row[0].startswith("mode,")
    assert os.path.exists(out / "verify.json")


def test_forgetting_conditions_follow_test_alpha(tmp_path, capsys):
    # at alpha = 60 the forgetting config breaks the small-noise condition;
    # the forgetting row must say so, as check does
    cfg = _base_config(
        model={"variant": "linear", "A": [[-2.5]], "R1": [[0.01]]},
        init={"x0": [0.0], "filters": [[[1.0], [[1.0]]], [[-1.0], [[0.1]]]]},
    )
    cfg["test"]["alpha"] = 60.0
    path = _write_cfg(tmp_path, cfg)
    assert run_cli(["check", "--config", path]) == 0
    conditions = json.loads(capsys.readouterr().out)["conditions"]
    assert not conditions["small_noise"]
    out = tmp_path / "out"
    run_cli(["forgetting", "--config", path, "--out", str(out)])
    row = json.loads((out / "forgetting.json").read_text())["details"][0]
    assert row["status"] == "ok"
    assert row["conditions_hold"] == (conditions["spectral_gap"] and conditions["small_noise"])


def test_cli_verify_scenario_messages(tmp_path, capsys):
    path = _write_cfg(tmp_path, _base_config())
    handled = "verify handles signal-vs-flow, ekf-vs-signal, trace-bound, chi2-laplace"
    assert run_cli(["verify", "--config", path, "--scenario", "trace-bnd"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: unknown scenario 'trace-bnd'; {handled}"
    ]
    assert run_cli(["verify", "--config", path, "--scenario", "coupled-forgetting"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: scenario 'coupled-forgetting' has its own subcommand; {handled}"
    ]
