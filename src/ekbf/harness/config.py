"""JSON experiment configuration: parsing, validation, model construction.

A config file has four required sections (model, obs, sim, init), an
optional test section with estimator knobs, and an optional gronwall
section for the synthetic test process.  Anything malformed raises
ConfigError with the dotted path of the offending key; the CLI maps that
to exit code 2.  SCENARIOS maps each scenario to its command and checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .. import linalg
from ..dynamics import check_step_size, record_grid
from ..errors import ConfigError, EkbfError
from ..models import LinearModel, ObservationModel, QuadraticCubicModel

# Each scenario: the command that runs it and the checks it selects, named
# as in cli's battery.  report runs every check; verify runs one scenario.
SCENARIOS = {
    "signal-vs-flow": ("verify", ("events-signal", "moments")),
    "ekf-vs-signal": ("verify", ("events-ekf", "moments", "ekf-laplace")),
    "coupled-forgetting": ("forgetting", ("forgetting",)),
    "trace-bound": ("verify", ("trace",)),
    "gronwall-test": ("gronwall", ("gronwall",)),
    "chi2-laplace": ("verify", ("chi2",)),
}

# Defaults of test.eps and test.alpha.  eps = 0.5 leaves headroom for Monte
# Carlo noise in the Laplace and forgetting-rate checks; alpha > 1 is the
# margin of the small-noise condition.
DEFAULT_EPS = 0.5
DEFAULT_ALPHA = 1.1
_DEFAULT_DELTAS = (0.5, 1.0, 2.0, 4.0)
_DEFAULT_ORDERS = (1, 2)
_DEFAULT_CHECKPOINTS = (1.0, 5.0, 10.0)
_GRONWALL_DEFAULTS = {"a": 1.0, "w": 0.5, "u": 0.0, "v": 0.0, "y0": 1.0, "n_paths": 10000}
# what building a model or sensor from finite but extreme entries may raise
_REJECTED = (EkbfError, ArithmeticError, np.linalg.LinAlgError)


def _get(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing key {path}.{key}")
    return section[key]


def _section(raw: dict, name: str) -> dict:
    value = _get(raw, name, "config")
    if not isinstance(value, dict):
        raise ConfigError(f"config.{name} must be an object")
    return value


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        out = float(value)
    except OverflowError:
        out = np.inf
    if not np.isfinite(out):
        raise ConfigError(f"{path} must be finite")
    return out


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _array(value, path: str, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} must be a numeric {what}") from exc
    if arr.size == 0 or not np.isfinite(arr).all():
        raise ConfigError(f"{path} must be non-empty with finite entries")
    return arr


def _vec(value, path: str) -> np.ndarray:
    arr = np.atleast_1d(_array(value, path, "vector"))
    if arr.ndim != 1:
        raise ConfigError(f"{path} must be a flat vector")
    return arr


def _mat(value, path: str) -> np.ndarray:
    arr = _array(value, path, "matrix")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ConfigError(f"{path} must be a matrix")
    return arr


def _cov(value, path: str) -> np.ndarray:
    """A filter covariance: symmetric and PSD up to linalg's tolerances (zero is valid)."""
    arr = _mat(value, path)
    try:
        linalg.sym_sqrt(arr)
    except _REJECTED as exc:
        raise ConfigError(f"{path} must be symmetric positive semidefinite: {exc}") from exc
    return arr


def _items(section: dict, key: str, default, parse, path: str) -> list:
    value = section.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}.{key} must be a list")
    return [parse(x, f"{path}.{key}") for x in value]


def _grid(test: dict, key: str, default, parse) -> list:
    """A test grid that selects rows: empty would select none, a repeat would count one twice."""
    values = _items(test, key, default, parse, "test")
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"test.{key} must be a non-empty list without repeats")
    return values


@dataclass
class ExperimentConfig:
    """Validated experiment: built model objects plus run and test settings."""

    model: object
    obs: ObservationModel
    x0: np.ndarray
    filters: list
    dt: float
    T: float
    n_trials: int
    seed: int
    record_every: int
    delta_grid: list
    n_orders: list
    alpha: float
    scenario: str
    checkpoints: list
    eps: float
    gronwall: dict | None = None

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def checkpoint_steps(self) -> list:
        return [int(round(t / self.dt)) for t in self.checkpoints]

    def record_steps(self) -> list:
        return record_grid(self.steps, self.record_every)

    def gronwall_kwargs(self) -> dict:
        """Arguments of gronwall_test_process; the defaults when the section is absent."""
        g = self.gronwall if self.gronwall is not None else _gronwall_section({})
        return dict(g, dt=self.dt, T=self.T, seed=self.seed, orders=self.n_orders)


def _gronwall_section(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("config.gronwall must be an object")
    g = {}
    for key, default in _GRONWALL_DEFAULTS.items():
        parse = _int if key == "n_paths" else _num
        g[key] = parse(section.get(key, default), f"gronwall.{key}")
    if g["a"] <= 0:
        raise ConfigError("gronwall.a must be positive")
    for key in ("w", "u", "v", "y0"):
        if g[key] < 0:
            raise ConfigError(f"gronwall.{key} must be non-negative")
    if g["n_paths"] < 2:
        raise ConfigError("gronwall.n_paths must be >= 2")
    if g["y0"] == g["u"] == g["v"] == 0:
        raise ConfigError("gronwall.y0, gronwall.u and gronwall.v are all 0, which starts no process")
    return g


def _build_model(section: dict):
    variant = _get(section, "variant", "model")
    R1 = _mat(_get(section, "R1", "model"), "model.R1")
    try:
        if variant == "linear":
            return LinearModel(_mat(_get(section, "A", "model"), "model.A"), R1)
        if variant == "quadratic_cubic":
            Q1 = _mat(_get(section, "Q1", "model"), "model.Q1")
            q = _vec(section.get("q", np.zeros(Q1.shape[0])), "model.q")
            Q2 = _mat(_get(section, "Q2", "model"), "model.Q2")
            beta = _num(section.get("beta", 1.0), "model.beta")
            return QuadraticCubicModel(Q1, q, Q2, beta, R1)
    except _REJECTED as exc:
        raise ConfigError(f"model section rejected: {exc}") from exc
    raise ConfigError(f"model.variant must be 'linear' or 'quadratic_cubic', got {variant!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    model = _build_model(_section(raw, "model"))

    obs_sec = _section(raw, "obs")
    try:
        obs = ObservationModel(
            _mat(_get(obs_sec, "B", "obs"), "obs.B"),
            _mat(_get(obs_sec, "R2", "obs"), "obs.R2"),
        )
    except _REJECTED as exc:
        raise ConfigError(f"obs section rejected: {exc}") from exc
    if obs.state_dim != model.dim:
        raise ConfigError("obs.B column count must match the model dimension")

    sim = _section(raw, "sim")
    dt = _num(_get(sim, "dt", "sim"), "sim.dt")
    T = _num(_get(sim, "T", "sim"), "sim.T")
    n_trials = _int(_get(sim, "n_trials", "sim"), "sim.n_trials")
    seed = _int(_get(sim, "seed", "sim"), "sim.seed")
    record_every = _int(sim.get("record_every", 1), "sim.record_every")
    if not 0 < dt < T:
        raise ConfigError("sim.T must exceed sim.dt, and sim.dt must be positive")
    if not np.isfinite(T / dt):
        raise ConfigError("sim.T / sim.dt overflows the step count")
    if n_trials < 1:
        raise ConfigError("sim.n_trials must be >= 1")
    if seed < 0:
        raise ConfigError("sim.seed must be >= 0")
    if record_every < 1:
        raise ConfigError("sim.record_every must be >= 1")
    try:
        check_step_size(model, dt)
    except _REJECTED as exc:
        raise ConfigError(f"sim.dt rejected: {exc}") from exc

    init = _section(raw, "init")
    x0 = _vec(_get(init, "x0", "init"), "init.x0")
    if x0.size != model.dim:
        raise ConfigError("init.x0 length must match the model dimension")
    if "filters" in init:
        both = [f"init.{key}" for key in ("xhat0", "P0") if key in init]
        if both:
            raise ConfigError(f"init.filters cannot be given with {' or '.join(both)}")
        entries = init["filters"]
        if not isinstance(entries, list) or len(entries) == 0:
            raise ConfigError("init.filters must be a non-empty list of [mean, cov] pairs")
        filters = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(f"init.filters[{i}] must be a [mean, cov] pair")
            filters.append(
                (_vec(entry[0], f"init.filters[{i}].mean"), _cov(entry[1], f"init.filters[{i}].cov"))
            )
    else:
        filters = [
            (_vec(_get(init, "xhat0", "init"), "init.xhat0"), _cov(_get(init, "P0", "init"), "init.P0"))
        ]
    for mean, cov in filters:
        if mean.size != model.dim or cov.shape != (model.dim, model.dim):
            raise ConfigError("filter initializations must match the model dimension")

    test = raw.get("test", {})
    if not isinstance(test, dict):
        raise ConfigError("config.test must be an object")
    delta_grid = _grid(test, "delta_grid", _DEFAULT_DELTAS, _num)
    if any(d < 0 for d in delta_grid):
        raise ConfigError("test.delta_grid entries must be non-negative")
    n_orders = _grid(test, "n_orders", _DEFAULT_ORDERS, _int)
    if any(n < 1 for n in n_orders):
        raise ConfigError("test.n_orders entries must be >= 1")
    alpha = _num(test.get("alpha", DEFAULT_ALPHA), "test.alpha")
    if alpha <= 1.0:
        raise ConfigError("test.alpha must exceed 1")
    scenario = test.get("scenario", "ekf-vs-signal")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"test.scenario must be one of {', '.join(SCENARIOS)}")
    checkpoints = _items(test, "checkpoints", _DEFAULT_CHECKPOINTS, _num, "test")
    if any(t < 0 for t in checkpoints):
        raise ConfigError("test.checkpoints entries must be non-negative")
    checkpoints = [t for t in checkpoints if t <= T] or [T]
    eps = _num(test.get("eps", DEFAULT_EPS), "test.eps")
    if not (0.0 < eps < 1.0):
        raise ConfigError("test.eps must lie in (0, 1)")

    gronwall = raw.get("gronwall")
    if gronwall is not None:
        gronwall = _gronwall_section(gronwall)

    return ExperimentConfig(
        model=model,
        obs=obs,
        x0=x0,
        filters=filters,
        dt=dt,
        T=T,
        n_trials=n_trials,
        seed=seed,
        record_every=record_every,
        delta_grid=delta_grid,
        n_orders=n_orders,
        alpha=alpha,
        scenario=scenario,
        checkpoints=checkpoints,
        eps=eps,
        gronwall=gronwall,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
