import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade4
from cascade4.correlations import default_tau_grid, g2
from cascade4.dynamics import SPECTRAL_COND_LIMIT, evolve, steady_state
from cascade4.errors import SingularGenerator, UnstableGenerator
from cascade4.model import (
    DIM,
    P22,
    RESIDUAL_TOL,
    AffineGenerator,
    SystemParams,
    build_generator,
    populations,
    prepare_state,
    preset,
)
from cascade4.validation import brute_force_evolve, rk_evolve

from conftest import closed_cascade, lu_fixed_point, stable_params


def test_steady_state_no_optical_pumping():
    p = closed_cascade(omega_rf=7.0)  # omega1 = omega3 = 0
    x = steady_state(build_generator(p))
    assert np.max(np.abs(x)) < 1e-14  # everything in rho11


def test_steady_state_two_level_closed_form():
    # resonant two-level atom: rho22 = 2 W^2 / (G^2/2 + 4 W^2)
    for w, g in ((4.0, 1.0), (0.3, 0.7), (9.0, 2.5)):
        p = SystemParams(omega1=w, gamma2=g, gamma3=1.0, gamma4=0.16,
                         gamma23=1.0, gamma34=0.16)
        x = steady_state(build_generator(p))
        expected = 2 * w ** 2 / (g ** 2 / 2 + 4 * w ** 2)
        assert abs(x[P22] - expected) < 1e-12


def test_steady_state_residual(fig2_unit):
    gen = build_generator(fig2_unit)
    x = steady_state(gen)
    assert np.max(np.abs(gen.A @ x + gen.b)) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=stable_params(),
       deltas=st.none() | st.tuples(*3 * [st.floats(-30.0, 30.0)]))
def test_fixed_point_matches_scipy_lu_oracle(p, deltas):
    if deltas is not None:
        p = replace(p, delta1=deltas[0], delta2=deltas[1], delta3=deltas[2])
    gen = build_generator(p)
    x, ref = gen.fixed_point, lu_fixed_point(gen)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(gen.A @ x + gen.b)) < RESIDUAL_TOL


def test_fixed_point_refinement_step(fig2_unit):
    # The first solve's residual is one ulp of b[im rho12] = 9000, above
    # RESIDUAL_TOL, so one refinement step runs and brings it below.
    gen = build_generator(fig2_unit.with_drives(omega1=9000.0, omega_rf=1000.0))
    first = np.linalg.solve(gen.A, -gen.b)
    assert np.max(np.abs(gen.A @ first + gen.b)) > RESIDUAL_TOL
    x, ref = gen.fixed_point, lu_fixed_point(gen)
    assert np.max(np.abs(x - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.max(np.abs(gen.A @ x + gen.b)) < RESIDUAL_TOL


def test_large_drive_steady_state_at_rounding_floor(fig2_unit):
    # At omega1 = 1e4 one ulp of b[im rho12] is 1.8e-12 and refinement
    # cannot go below it; cond(A) is only 6e4, so the residual certificate
    # accepts the rounding floor of A x + b instead of refusing the point
    # as SingularGenerator.
    gen = build_generator(fig2_unit.with_drives(omega1=1e4))
    x, ref = steady_state(gen), lu_fixed_point(gen)
    assert np.max(np.abs(gen.A @ x + gen.b)) > RESIDUAL_TOL
    assert np.max(np.abs(x - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_steady_state_matches_long_time_limit(fig2_unit):
    gen = build_generator(fig2_unit)
    x_ss = steady_state(gen)
    x = evolve(gen, prepare_state(3), np.array([0.0, 400.0]))
    assert np.max(np.abs(x[-1] - x_ss)) < 1e-8


def test_singular_generator_raises():
    gen = AffineGenerator(A=np.zeros((DIM, DIM)), b=np.zeros(DIM))
    with pytest.raises(SingularGenerator):
        steady_state(gen)


def test_evolve_pure_decay():
    p = SystemParams(gamma2=1.4, gamma3=1.0, gamma4=0.16,
                     gamma23=1.0, gamma34=0.16)
    gen = build_generator(p)
    ts = np.linspace(0.0, 4.0, 9)
    x = evolve(gen, prepare_state(2), ts)
    assert np.max(np.abs(x[:, P22] - np.exp(-1.4 * ts))) < 1e-12


def test_evolve_single_point_is_identity(fig2_unit):
    gen = build_generator(fig2_unit)
    x0 = prepare_state(2)
    assert np.array_equal(evolve(gen, x0, np.array([0.0]))[0], x0)
    assert np.array_equal(rk_evolve(gen, x0, np.array([0.0]))[0], x0)


def test_backends_agree(fig2_unit):
    gen = build_generator(fig2_unit)
    ts = np.linspace(0.0, 5.0, 51)
    a = evolve(gen, prepare_state(3), ts)
    b = rk_evolve(gen, prepare_state(3), ts)
    assert np.max(np.abs(a - b)) < 1e-8


def test_semigroup_property(fig2_unit):
    # propagate to t1, restart from x(t1) for t2-t1 (time-invariant system)
    gen = build_generator(fig2_unit)
    x0 = prepare_state(3)
    full = evolve(gen, x0, np.array([0.0, 1.0, 2.5]))
    mid = evolve(gen, full[1], np.array([0.0, 1.5]))
    assert np.max(np.abs(mid[-1] - full[-1])) < 1e-9


def test_contraction_to_steady_state():
    for gammas in ("unit", "physical"):
        p = preset("fig2", gammas)
        gen = build_generator(p)
        x_ss = steady_state(gen)
        T = 50.0 / p.min_gamma
        x = evolve(gen, prepare_state(3), np.array([0.0, T]))
        assert np.max(np.abs(x[-1] - x_ss)) < 1e-6


def test_population_bounds_along_trajectories():
    for drives in ("fig2", "fig4_rf4", "fig4_rf10", "fig4_rf20"):
        for gammas in ("unit", "physical"):
            p = preset(drives, gammas)
            gen = build_generator(p)
            ts = np.linspace(0.0, 30.0, 400)
            for level in (1, 2, 3, 4):
                pops = np.stack(populations(evolve(gen, prepare_state(level), ts)))
                assert pops.min() > -1e-9
                assert pops.max() < 1 + 1e-9


def test_evolve_grid_validation(fig2_unit):
    gen = build_generator(fig2_unit)
    with pytest.raises(ValueError):
        evolve(gen, prepare_state(1), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        evolve(gen, prepare_state(1), np.array([-1.0, 0.5]))


def test_evolve_zero_time_is_exact():
    # exp(0) = I, so the t = 0 row is x0 itself, not x0 - x_ss + x_ss.
    for gammas in ("unit", "physical"):
        p = preset("fig2", gammas)
        gen = build_generator(p)
        taus = default_tau_grid(p, n=100)
        for level in (1, 2, 3, 4):
            x0 = prepare_state(level)
            assert np.array_equal(evolve(gen, x0, taus)[0], x0)
            assert np.array_equal(rk_evolve(gen, x0, taus)[0], x0)


def test_steady_state_cached_read_only(fig2_unit):
    gen = build_generator(fig2_unit)
    x = steady_state(gen)
    assert steady_state(gen) is x
    assert not x.flags.writeable
    assert not gen.eigensystem.V.flags.writeable


def _max_error_vs_taylor(p, level, n=120):
    gen = build_generator(p)
    taus = default_tau_grid(p, n=n)
    x0 = prepare_state(level)
    x = evolve(gen, x0, taus)
    ref = np.array([brute_force_evolve(gen, x0, t) for t in taus])
    return np.max(np.abs(x - ref))


def test_evolve_defective_zero_drive_takes_fallback():
    # Gamma2 = Gamma3 with gamma23 != 0 and no drive: the rho22/rho33 block
    # is a Jordan block, so the eigen-expansion alone is off by O(0.1).
    p = closed_cascade()
    assert build_generator(p).eigensystem.cond > SPECTRAL_COND_LIMIT
    for level in (3, 4):
        assert _max_error_vs_taylor(p, level) < 1e-10


def test_evolve_weak_drive_spectral():
    p = closed_cascade(omega1=1e-6, omega_rf=1e-6, omega3=1e-6)
    assert 1e3 < build_generator(p).eigensystem.cond < SPECTRAL_COND_LIMIT
    for level in (1, 3, 4):
        assert _max_error_vs_taylor(p, level) < 1e-10


def test_evolve_near_defective_weak_drive_takes_fallback():
    # Weak drives with Gamma2 = Gamma3 put cond V near 1.3e5, where the
    # eigen-expansion was 3.8e-12 from the oracle; the stepped expm is at
    # rounding level.
    p = SystemParams(
        omega1=1.35e-6, omega_rf=3.8e-8, omega3=2.6e-7,
        gamma2=0.681, gamma3=0.681, gamma4=1.354,
        gamma23=0.681, gamma34=1.354, gamma24=0.0)
    assert build_generator(p).eigensystem.cond > SPECTRAL_COND_LIMIT
    for level in (3, 4):
        assert _max_error_vs_taylor(p, level) < 1e-13


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(p=stable_params(), level=st.sampled_from((1, 2, 3, 4)))
def test_backends_agree_property(p, level):
    gen = build_generator(p)
    ts = np.array([0.0, 0.3, 2.0])
    x0 = prepare_state(level)
    a = evolve(gen, x0, ts)
    b = rk_evolve(gen, x0, ts)
    ref = np.array([brute_force_evolve(gen, x0, t) for t in ts])
    assert np.max(np.abs(a - ref)) < 1e-7
    assert np.max(np.abs(b - ref)) < 1e-7


def test_unstable_generator_refused():
    # Literal unit transfer rates with Gamma4 = 0.16 at fig-2 drives: the
    # spectral abscissa is about +0.029.
    gen = build_generator(SystemParams(omega1=4.0, omega3=4.0, omega_rf=20.0))
    assert gen.eigensystem.abscissa > 0.0
    with pytest.raises(UnstableGenerator):
        steady_state(gen)
    with pytest.raises(UnstableGenerator):
        g2(gen, (3, 1), np.array([0.0, 1.0]))


def test_fixed_point_refuses_unstable_generator():
    # The generator's cached fixed point is the one checked steady state: it
    # refuses a repelling fixed point as steady_state does.
    gen = build_generator(SystemParams(omega1=4.0, omega3=4.0, omega_rf=20.0))
    with pytest.raises(UnstableGenerator):
        gen.fixed_point


# Imported only inside the functions that need them: scipy by the expm
# fallback and the RK oracle, mpmath by the Talbot node tables.
LAZY_MODULES = ("scipy", "scipy.linalg", "scipy.integrate", "scipy.optimize",
                "mpmath")


def lazy_modules_loaded_by(code):
    """The LAZY_MODULES that a fresh interpreter has loaded after `code`."""
    src = os.path.dirname(os.path.dirname(cascade4.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cascade4\n" + code +
            f"print(' '.join(m for m in {LAZY_MODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_and_delay_scan_leave_lazy_modules_unloaded():
    assert lazy_modules_loaded_by(
        "cascade4.scan_tau_d(cascade4.preset('fig2', 'unit'), 'omega_rf',"
        " [4.0, 12.0])\n") == []


def test_default_path_leaves_lazy_modules_unloaded():
    # what the cs, steady and g2 commands compute: the steady state, the
    # three g2 of the Cauchy-Schwarz ratio and an analytic sum
    assert lazy_modules_loaded_by(
        "p = cascade4.preset('fig2', 'unit')\n"
        "gen = cascade4.build_generator(p)\n"
        "cascade4.steady_state(gen)\n"
        "taus = cascade4.default_tau_grid(p)\n"
        "g = [cascade4.g2(gen, pair, taus) for pair in ((3, 1), (1, 1), (3, 3))]\n"
        "cascade4.cs_ratio(*g)\n"
        "cascade4.analytic_g2_sum(p, 'strong', (3, 1))\n") == []


def test_expm_fallback_loads_scipy_linalg_only_when_taken():
    # Zero drive with Gamma2 = Gamma3 = gamma23 = 1: from |3>, rho33 = e^-t
    # and rho22 = t e^-t (a Jordan block, so the fallback steps with expm).
    assert lazy_modules_loaded_by(
        "from cascade4.dynamics import SPECTRAL_COND_LIMIT\n"
        "import numpy as np\n"
        "gen = cascade4.build_generator(cascade4.SystemParams(gamma34=0.16))\n"
        "assert gen.eigensystem.cond > SPECTRAL_COND_LIMIT\n"
        "cascade4.steady_state(gen)\n"
        "assert 'scipy' not in sys.modules\n"
        "t = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])\n"
        "x = cascade4.evolve(gen, cascade4.prepare_state(3), t)\n"
        "err = np.abs(x[:, -3:] - np.stack([t * np.exp(-t), np.exp(-t),"
        " 0 * t], axis=1))\n"
        "assert err.max() < 1e-15, err.max()\n") == ["scipy", "scipy.linalg"]


def test_residue_path_leaves_mpmath_unloaded():
    # the analytic sums and the partial-fraction engine never touch mpmath
    assert "mpmath" not in lazy_modules_loaded_by(
        "from cascade4 import perturbation as pt, ratfunc\n"
        "p = cascade4.preset('fig2', 'unit')\n"
        "pt.analytic_g2_sum(p, 'strong', (3, 1))\n"
        "ratfunc.invert_rational(pt.appendix_rational(p, 'strong', 3, 'rho22'))\n")
