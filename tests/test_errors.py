"""Argument errors from the library are named package errors."""

import pytest

from cascade4.correlations import scan_tau_d
from cascade4.dynamics import evolve
from cascade4.errors import Cascade4Error, InvalidArgument
from cascade4.model import build_generator, prepare_state, preset
from cascade4.perturbation import Regime
from cascade4.ratfunc import talbot_invert
from cascade4.validation import brute_force_evolve


def _fig2_generator():
    return build_generator(preset("fig2", "unit"))


BAD_CALLS = {
    "correlations.scan_tau_d": lambda: scan_tau_d(preset("fig2", "unit"),
                                                  "omega1", [4.0, 0.0]),
    "dynamics.evolve": lambda: evolve(_fig2_generator(), prepare_state(1),
                                      [0.0, 1.0], backend="euler"),
    "perturbation.Regime.coerce": lambda: Regime.coerce("moderate"),
    "ratfunc.talbot_invert": lambda: talbot_invert(lambda s: 1 / s, 0.0),
    "validation.brute_force_evolve": lambda: brute_force_evolve(
        _fig2_generator(), prepare_state(1), -1.0),
}


@pytest.mark.parametrize("site", sorted(BAD_CALLS))
def test_bad_argument_raises_named_error(site):
    with pytest.raises(Cascade4Error) as info:
        BAD_CALLS[site]()
    # Still a ValueError for callers that catch the builtin.
    assert isinstance(info.value, InvalidArgument)
    assert isinstance(info.value, ValueError)
