import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heliport import dynamics, selfcheck
from heliport.config import parse_config


def spread_positions(seed, n, half_width=0.4, min_gap=0.02):
    """n points in a cube of half-width half_width (lambda_0), at least
    min_gap apart, drawn by rejection from a seeded generator."""
    rng = np.random.default_rng(seed)
    pos = np.empty((0, 3))
    while len(pos) < n:
        p = rng.uniform(-half_width, half_width, size=3)
        if not len(pos) or np.linalg.norm(pos - p, axis=1).min() >= min_gap:
            pos = np.vstack([pos, p])
    return pos


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
@example(seed=0, n=1)
def test_check_battery_passes_on_random_geometries(tmp_path_factory, seed, n):
    path = tmp_path_factory.mktemp("geometry") / "positions.json"
    path.write_text(json.dumps({"positions": spread_positions(seed, n).tolist()}))
    cfg, errs = parse_config({"mode": "check", "geometry": {"file": str(path)}})
    assert errs == []
    n_fail, report = selfcheck.run_checks(cfg, log=lambda _line: None)
    assert len(report) == len(selfcheck.CHECKS)
    assert n_fail == 0, [r for r in report if not r["passed"]]


@pytest.mark.parametrize("sites_per_turn", [5, 9])
def test_check_battery_passes_on_helices_with_many_sites_per_turn(sites_per_turn):
    cfg, errs = parse_config({
        "mode": "check",
        "geometry": {"helix": {"radius": 0.05, "pitch": 0.175,
                               "sites_per_turn": sites_per_turn, "turns": 2}},
        "bloch": {"n_k": 21, "m_cut": 120}})
    assert errs == []
    n_fail, report = selfcheck.run_checks(cfg, log=lambda _line: None)
    assert n_fail == 0, [r for r in report if not r["passed"]]


def _check_config():
    cfg, errs = parse_config({"mode": "check", "geometry": {"helix": {
        "radius": 0.05, "pitch": 0.175, "sites_per_turn": 3, "turns": 4}}})
    assert errs == []
    return cfg


def _zero_up_z_kernel(kernel):
    def faulty(positions, pts, k):
        near = kernel(positions, pts, k)
        k[1] = 0.0                              # s z w / sqrt 2: F_z of spin up
        return near
    return faulty


def _s_without_inverse_r2(factors):
    def faulty(r2, out=None):
        pa, s = factors(r2, out)
        s *= r2
        return pa, s
    return faulty


def _half_period_reduction(factors):
    """factors with d reduced modulo lambda_0 / 2 instead of lambda_0."""
    class HalfPeriodNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def rint(d, out=None):
            return np.multiply(0.5, np.rint(2.0 * d), out=out)

    return types.FunctionType(factors.__code__,
                              {**factors.__globals__, "np": HalfPeriodNumpy()},
                              factors.__name__, factors.__defaults__)


@pytest.mark.parametrize("target, plant", [("_field_kernel", _zero_up_z_kernel),
                                           ("_green_factors", _s_without_inverse_r2),
                                           ("_green_factors", _half_period_reduction)],
                         ids=["zeroed_up_z_kernel", "s_without_1/r2",
                              "half_period_phase_reduction"])
def test_field_factor_check_fails_on_a_planted_fault(monkeypatch, target, plant):
    from heliport import field

    monkeypatch.setattr(field, target, plant(getattr(field, target)))
    with pytest.raises(selfcheck.CheckFailure, match="of the map maximum"):
        selfcheck.check_field_factors(_check_config(), np.random.default_rng(7))
    # the battery reports it under "field map sanity"
    n_fail, report = selfcheck.run_checks(_check_config(), log=lambda _line: None)
    assert [r["name"] for r in report if not r["passed"]] == ["field map sanity"]


def _rolled_spectrum(apply):
    def faulty(self, b, spectrum):
        return apply(self, b, np.roll(spectrum, 1, axis=-1))
    return faulty


def _halved_degree(plan):
    def faulty(box, t_max):
        steps, degree, center, rho = plan(box, t_max)
        return steps, degree // 2, center, rho
    return faulty


@pytest.mark.parametrize("owner, name, plant",
                         [(dynamics.ScrewProduct, "_apply", _rolled_spectrum),
                          (dynamics, "series_plan", _halved_degree)],
                         ids=["spectrum_rolled_by_one_block", "degree_halved"])
def test_matrix_free_check_fails_on_a_planted_fault(monkeypatch, owner, name, plant):
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    with pytest.raises(selfcheck.CheckFailure, match="matrix-free series vs spectral"):
        selfcheck.check_master_equation(_check_config(), np.random.default_rng(7))
    # the battery reports it under "master equation cross-check"
    n_fail, report = selfcheck.run_checks(_check_config(), log=lambda _line: None)
    assert [r["name"] for r in report if not r["passed"]] == ["master equation cross-check"]
