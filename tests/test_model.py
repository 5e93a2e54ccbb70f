import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade4.correlations import default_tau_grid
from cascade4.dynamics import evolve
from cascade4.errors import InvalidLevel, InvalidParams
from cascade4.model import (
    _pack,
    _unpack,
    DIM,
    P33,
    P44,
    SystemParams,
    build_generator,
    populations,
    prepare_state,
    preset,
)

from conftest import (
    closed_cascade,
    complex_rhs,
    random_stable_params,
    stable_params,
)


def test_generator_matches_complex_form_evaluation():
    # 20 random states, random params incl. detunings: A x + b must equal
    # the independently coded complex-form derivative term by term.
    rng = np.random.default_rng(7)
    for _ in range(4):
        p = SystemParams(
            omega1=rng.uniform(0, 10), omega_rf=rng.uniform(0, 25),
            omega3=rng.uniform(0, 10), delta1=rng.uniform(-2, 2),
            delta2=rng.uniform(-2, 2), delta3=rng.uniform(-2, 2),
            gamma2=rng.uniform(0.2, 3), gamma3=rng.uniform(0.2, 3),
            gamma4=rng.uniform(0.1, 2), gamma23=rng.uniform(0, 2),
            gamma34=rng.uniform(0, 2), gamma24=rng.uniform(0, 1))
        gen = build_generator(p)
        for _ in range(20):
            x = rng.standard_normal(DIM)
            assert np.max(np.abs(gen.A @ x + gen.b - complex_rhs(p, x))) < 1e-13


def test_generator_dimensions(fig2_unit):
    gen = build_generator(fig2_unit)
    assert gen.A.shape == (DIM, DIM)
    assert gen.b.shape == (DIM,)


def test_zero_drive_block_structure():
    p = SystemParams(gamma2=1.3, gamma3=0.9, gamma4=0.3,
                     gamma23=0.9, gamma34=0.3, gamma24=0.0)
    gen = build_generator(p)
    A = gen.A
    # coherence rows decay with their half-sum rates, no population coupling
    assert A[0, 0] == -p.gamma2 / 2
    assert A[2, 2] == -(p.gamma2 + p.gamma3) / 2
    assert A[4, 4] == -(p.gamma3 + p.gamma4) / 2
    assert np.all(A[:12, 12:] == 0.0)
    assert np.all(A[12:, :12] == 0.0)
    # population cascade feeds downward only
    pop = A[12:, 12:]
    assert np.all(np.tril(pop, -1) == 0.0)
    assert pop[0, 1] == p.gamma23
    assert pop[1, 2] == p.gamma34
    assert np.all(gen.b == np.eye(1, DIM, 1) * 0.0) or gen.b[1] == 0.0


def test_constant_vector_only_from_trace_elimination():
    p = closed_cascade(omega1=3.0, omega_rf=11.0, omega3=2.0)
    gen = build_generator(p)
    expected = np.zeros(DIM)
    expected[1] = p.omega1
    assert np.array_equal(gen.b, expected)


def test_fig2_generator_nonsingular_by_lu(fig2_unit):
    # independent dense LU rank check
    gen = build_generator(fig2_unit)
    _pl, _l, u = scipy.linalg.lu(gen.A)
    assert np.min(np.abs(np.diag(u))) > 1e-8


def test_generator_eigenvalues_nonpositive_on_presets():
    rng = np.random.default_rng(11)
    cases = [preset(d, g) for d in ("fig2", "fig4_rf4", "fig4_rf10")
             for g in ("unit", "physical")]
    cases += [random_stable_params(rng) for _ in range(10)]
    for p in cases:
        lam = np.linalg.eigvals(build_generator(p).A)
        assert lam.real.max() <= 1e-10


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        SystemParams(gamma2=0.0)
    with pytest.raises(InvalidParams):
        SystemParams(gamma4=-0.2)
    with pytest.raises(InvalidParams):
        SystemParams(omega1=-1.0)


@pytest.mark.parametrize("name", ["omega1", "omega_rf", "delta2", "gamma2",
                                  "gamma24"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   "4", None, 1j])
def test_non_finite_params_rejected(name, value):
    # nan passes every sign check (nan < 0 is False), so it needs its own;
    # "4", None and 1j made math.isfinite raise a bare TypeError
    with pytest.raises(InvalidParams, match=f"{name} must be finite"):
        SystemParams(**{name: value})


def test_prepare_state():
    assert np.array_equal(prepare_state(1), np.zeros(DIM))
    x3 = prepare_state(3)
    assert x3[P33] == 1.0 and np.sum(np.abs(x3)) == 1.0
    with pytest.raises(InvalidLevel):
        prepare_state(5)
    with pytest.raises(InvalidLevel):
        prepare_state(0)


def test_populations_trace():
    x = prepare_state(4)
    r11, r22, r33, r44 = populations(x)
    assert (r11, r22, r33, r44) == (0.0, 0.0, 0.0, 1.0)


def test_density_matrix_roundtrip():
    rng = np.random.default_rng(3)
    # build a legitimate density matrix from a random pure state
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    m = np.outer(v, v.conj())
    assert np.max(np.abs(_unpack(_pack(m)) - m)) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=stable_params(weak_decades=(-8.0, -4.0)),
       level=st.sampled_from((1, 2, 3, 4)))
def test_evolved_states_are_density_matrices(p, level):
    # Trace and hermiticity hold by construction of the packed state;
    # positivity is what the propagator must preserve, including on the
    # near-defective eigenbases of weak drives with Gamma2 = Gamma3, where
    # the eigen-expansion's error grows like 5e-17 cond(V) and the
    # propagator steps with expm instead (see SPECTRAL_COND_LIMIT).
    gen = build_generator(p)
    states = evolve(gen, prepare_state(level), default_tau_grid(p, n=200))
    for x in states:
        m = _unpack(x)
        assert np.linalg.eigvalsh(m)[0] >= -1e-12
        assert _pack(m).tobytes() == x.tobytes()


def test_preset_spellings():
    p = preset("fig2", "physical")
    assert p.omega_rf == 20.0
    assert abs(p.gamma2 - 6.0 / (2 * np.pi)) < 1e-15
    with pytest.raises(InvalidParams):
        preset("fig9", "unit")
