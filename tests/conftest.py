"""Shared scenario factories and file helpers for the test suite."""

import dataclasses
import json

import numpy as np
import pytest

from wpcn_ee import (
    GeometryConfig,
    SystemParams,
    dbm_to_watts,
    generate_scenario,
    scenario_from_values,
    with_initial_energy,
)


def stock_params(Rmin=None, **overrides):
    """20 kHz / -110 dBm / 43 dBm / 0.5 W / 5 mW reference parameters."""
    base = dict(
        W=20e3,
        sigma2=dbm_to_watts(-110.0),
        Gamma=1.0,
        eta=0.9,
        xi=1.0,
        varsigma=1.0,
        Pc=0.5,
        pc=5e-3,
        Pmax=dbm_to_watts(43.0),
        Tmax=1.0,
        Rmin=Rmin,
    )
    base.update(overrides)
    return SystemParams(**base)


def random_scenario(rng, K, params=None, q_mode="zero"):
    """Random channels in a controlled range; q_mode picks the battery
    pattern: all zero, all positive, or an even zero/positive mix."""
    if params is None:
        params = stock_params()
    # keep the harvest sum clearly admissible
    h = rng.uniform(0.001, 0.9 / (params.eta * params.xi * K), size=K)
    gamma = rng.uniform(0.5, 50.0, size=K)
    if q_mode == "zero":
        Q = np.zeros(K)
    elif q_mode == "positive":
        Q = rng.uniform(0.05, 2.0, size=K)
    elif q_mode == "mixed":
        Q = np.where(np.arange(K) % 2 == 0, 0.0, rng.uniform(0.05, 2.0, size=K))
    else:
        raise ValueError(q_mode)
    return scenario_from_values(params, h, gamma, Q)


def with_floor(scen, rmin):
    """The scenario's channels and batteries under the throughput floor rmin."""
    par = dataclasses.replace(scen.params, Rmin=rmin)
    return scenario_from_values(par, scen.h, scen.gamma, scen.Q)


def cfg_file(tmp_path, payload: dict, name: str = "cfg.json") -> str:
    """Write payload as a JSON configuration file; returns its path."""
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def params():
    return stock_params()


@pytest.fixture
def scen5():
    geo = GeometryConfig(K=5, seed=42)
    return generate_scenario(geo, stock_params())
