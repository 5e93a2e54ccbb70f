"""Argument errors from the library are named package errors."""

import math

import numpy as np
import pytest

from cascade4.correlations import default_tau_grid, g2, scan_tau_d
from cascade4.dynamics import evolve, steady_state
from cascade4.errors import Cascade4Error, InvalidArgument
from cascade4.model import AffineGenerator, build_generator, prepare_state, preset
from cascade4.perturbation import (
    Regime,
    analytic_g2,
    analytic_g2_sum,
    laplace_observable,
    laplace_solve,
    talbot_g2_value,
)
from cascade4.ratfunc import (ExponentialSum, RationalFunction, talbot_invert,
                              talbot_invert_rf, talbot_nodes_required)
from cascade4.validation import brute_force_evolve, rk_evolve

from conftest import closed_cascade


def _fig2_generator():
    return build_generator(preset("fig2", "unit"))


def _strong_rf_point():
    return closed_cascade(omega1=0.2, omega_rf=20.0, omega3=0.2)


def _evolve_to(t):
    return evolve(_fig2_generator(), prepare_state(1), [0.0, t])


def _evolve_from(x0):
    return evolve(_fig2_generator(), x0, [0.0, 1.0])


def _steady_state_with(entry, value):
    # a nan in b leaked scipy's ValueError, a nan in A numpy's LinAlgError
    # and an inf in A a SingularGenerator
    gen = _fig2_generator()
    A, b = gen.A.copy(), gen.b.copy()
    {"A": A, "b": b}[entry].flat[1] = value
    return steady_state(AffineGenerator(A=A, b=b))


def _brute_force_to(t, x0=None):
    # nan returned an all-nan state, inf raised a bare RuntimeWarning, "1"
    # a bare TypeError and a 3-component x0 a bare ValueError
    x0 = prepare_state(1) if x0 is None else x0
    return brute_force_evolve(_fig2_generator(), x0, t)


def _talbot_g31_with_denominator(ss):
    # ss = 0 raised a bare ZeroDivisionError; -1 and nan returned numbers
    return talbot_g2_value(_strong_rf_point(), "strong", (3, 1), 0.5, ss=ss)


def _invert_with_nodes(nodes):
    # 1/(s+1) at t = 1: a node count that is not an integer >= 32 gave
    # plausible wrong values (0.2 at 0 nodes, 0.3746 at 2.5) for e^-1
    return talbot_invert(lambda s: 1 / (s + 1), 1.0, nodes=nodes)


BAD_CALLS = {
    "correlations.scan_tau_d": lambda: scan_tau_d(preset("fig2", "unit"),
                                                  "omega1", [4.0, 0.0]),
    "correlations.default_tau_grid: tau_max 0": lambda: default_tau_grid(
        preset("fig2", "unit"), tau_max=0.0),
    "correlations.default_tau_grid: tau_max nan": lambda: default_tau_grid(
        preset("fig2", "unit"), tau_max=math.nan),
    "correlations.default_tau_grid: tau_max -1": lambda: default_tau_grid(
        preset("fig2", "unit"), tau_max=-1.0),
    "correlations.g2: nan time": lambda: g2(_fig2_generator(), (3, 1),
                                            [0.0, math.nan]),
    # an int pair, a float n and a 2-d sweep grid raised bare TypeErrors
    "correlations.g2: pair 31": lambda: g2(_fig2_generator(), 31, [0.0, 1.0]),
    "correlations.default_tau_grid: n 2000.0": lambda: default_tau_grid(
        preset("fig2", "unit"), n=2000.0),
    "correlations.scan_tau_d: 2-d grid": lambda: scan_tau_d(
        preset("fig2", "unit"), "omega1", [[4.0, 5.0]]),
    # no params and no tau_max raised AttributeError; a str tau_max a bare
    # TypeError
    "correlations.default_tau_grid: no params": lambda: default_tau_grid(None),
    "correlations.default_tau_grid: tau_max '5'": lambda: default_tau_grid(
        preset("fig2", "unit"), tau_max="5"),
    # non-numeric grids raised numpy's bare ValueError, a list as the swept
    # field TypeError: unhashable
    "correlations.g2: str grid": lambda: g2(_fig2_generator(), (3, 1), "abc"),
    "correlations.scan_tau_d: str grid": lambda: scan_tau_d(
        preset("fig2", "unit"), "omega1", ["a"]),
    "correlations.scan_tau_d: list field": lambda: scan_tau_d(
        preset("fig2", "unit"), ["omega1"], [4.0, 5.0]),
    "dynamics.evolve: str x0": lambda: _evolve_from("abc"),
    "dynamics.evolve: str grid": lambda: evolve(_fig2_generator(),
                                                prepare_state(1), "abc"),
    "perturbation.analytic_g2: str grid": lambda: analytic_g2(
        _strong_rf_point(), "strong", (3, 1), "x"),
    "dynamics.evolve: nan time": lambda: _evolve_to(math.nan),
    "dynamics.evolve: inf time": lambda: _evolve_to(math.inf),
    "dynamics.evolve: x0 of 14 components": lambda: _evolve_from(
        prepare_state(1)[:14]),
    "dynamics.evolve: x0 of shape (1, 15)": lambda: _evolve_from(
        prepare_state(1)[None]),
    "dynamics.evolve: nan x0": lambda: _evolve_from(prepare_state(1) * math.nan),
    "model.AffineGenerator: nan in b": lambda: _steady_state_with("b", np.nan),
    "model.AffineGenerator: nan in A": lambda: _steady_state_with("A", np.nan),
    "model.AffineGenerator: inf in A": lambda: _steady_state_with("A", np.inf),
    "model.prepare_state: level 2.0": lambda: prepare_state(2.0),
    "perturbation.analytic_g2: tau -1": lambda: analytic_g2(
        _strong_rf_point(), "strong", (3, 1), [-1.0]),
    "perturbation.talbot_g2_value: tau nan": lambda: talbot_g2_value(
        _strong_rf_point(), "strong", (3, 1), math.nan),
    "perturbation.talbot_g2_value: ss 0": lambda: _talbot_g31_with_denominator(0.0),
    "perturbation.talbot_g2_value: ss -1": lambda: _talbot_g31_with_denominator(-1.0),
    "perturbation.talbot_g2_value: ss nan": lambda: _talbot_g31_with_denominator(math.nan),
    "perturbation.talbot_g2_value: ss inf": lambda: _talbot_g31_with_denominator(math.inf),
    "perturbation.talbot_g2_value: ss 1e-13": lambda: _talbot_g31_with_denominator(1e-13),
    # a str or one-element list denominator raised a bare TypeError
    "perturbation.talbot_g2_value: ss '1'": lambda: _talbot_g31_with_denominator("1"),
    "perturbation.talbot_g2_value: ss [0.5]": lambda: _talbot_g31_with_denominator([0.5]),
    # b/s made the hierarchy nan+nanj at s = 0, with a RuntimeWarning
    "perturbation.laplace_solve: s 0": lambda: laplace_solve(
        _strong_rf_point(), "strong", 1, 0j),
    "perturbation.laplace_observable: s 0": lambda: laplace_observable(
        _strong_rf_point(), "strong", 3, "rho22")(0),
    "perturbation.Regime.coerce": lambda: Regime.coerce("moderate"),
    "perturbation.analytic_g2_sum: pair 31": lambda: analytic_g2_sum(
        _strong_rf_point(), "strong", 31),
    "perturbation.talbot_g2_value: pair 31": lambda: talbot_g2_value(
        _strong_rf_point(), "strong", 31, 0.5),
    "ratfunc.talbot_invert": lambda: talbot_invert(lambda s: 1 / s, 0.0),
    "ratfunc.talbot_invert: t inf": lambda: talbot_invert(lambda s: 1 / s,
                                                          math.inf),
    "ratfunc.talbot_invert: t nan": lambda: talbot_invert(lambda s: 1 / s,
                                                          math.nan),
    "ratfunc.talbot_invert: nodes 0": lambda: _invert_with_nodes(0),
    "ratfunc.talbot_invert: nodes -3": lambda: _invert_with_nodes(-3),
    "ratfunc.talbot_invert: nodes 2.5": lambda: _invert_with_nodes(2.5),
    "ratfunc.talbot_invert: nodes 31": lambda: _invert_with_nodes(31),
    "ratfunc.talbot_invert: nodes 48.0": lambda: _invert_with_nodes(48.0),
    # a str, None or 1-element array time raised bare TypeErrors
    "perturbation.talbot_g2_value: tau '0.3'": lambda: talbot_g2_value(
        _strong_rf_point(), "strong", (3, 1), "0.3"),
    "perturbation.talbot_g2_value: tau None": lambda: talbot_g2_value(
        _strong_rf_point(), "strong", (3, 1), None),
    "perturbation.talbot_g2_value: tau [0.3]": lambda: talbot_g2_value(
        _strong_rf_point(), "strong", (3, 1), np.array([0.3])),
    "ratfunc.talbot_invert: t '1'": lambda: talbot_invert(lambda s: 1 / s, "1"),
    "ratfunc.talbot_nodes_required: t '1'": lambda: talbot_nodes_required(
        "1", [(-1 + 2j, 1), (-1 - 2j, 1)]),
    "ratfunc.ExponentialSum: str t": lambda: ExponentialSum(((1.0, -1.0, 0),))("x"),
    "ratfunc.talbot_invert_rf: t inf": lambda: talbot_invert_rf(
        RationalFunction.from_factors([1.0], [(-1 + 2j, 1), (-1 - 2j, 1)]),
        math.inf),
    "validation.brute_force_evolve": lambda: _brute_force_to(-1.0),
    "validation.brute_force_evolve: t nan": lambda: _brute_force_to(math.nan),
    "validation.brute_force_evolve: t inf": lambda: _brute_force_to(math.inf),
    "validation.brute_force_evolve: t '1'": lambda: _brute_force_to("1"),
    "validation.brute_force_evolve: x0 of shape (3,)": lambda: _brute_force_to(
        1.0, np.zeros(3)),
    "validation.rk_evolve: t -1": lambda: rk_evolve(
        _fig2_generator(), prepare_state(1), [-1.0, 0.0]),
}


@pytest.mark.parametrize("site", sorted(BAD_CALLS))
def test_bad_argument_raises_named_error(site):
    with pytest.raises(Cascade4Error) as info:
        BAD_CALLS[site]()
    # Still a ValueError for callers that catch the builtin.
    assert isinstance(info.value, InvalidArgument)
    assert isinstance(info.value, ValueError)
