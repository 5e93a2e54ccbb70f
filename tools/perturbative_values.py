"""Write the perturbative layer's outputs over fixed parameter sets to OUTFILE,
one `repr` per value, so that two runs or two revisions can be compared
byte for byte.

    python tools/perturbative_values.py OUTFILE

Both regimes on both gamma presets, three drive sets each, at the drive
ranges of the benchmark's `perturbative` workload.  Per parameter set it
writes every term (coefficient, rate, power) of the three analytic g2 sums
and their values at the Talbot delays, the Talbot g2 value of each pair at
those delays, and both inversion engines' values of each catalogue entry of
the regime.  The package comes from the src/ directory next to this
script's tools/, so a copy of the script placed in another checkout runs
that checkout's code (`cmp A B` then checks bit-identity across revisions).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cascade4 import perturbation, preset, ratfunc  # noqa: E402

# (regime, drives): strong rf with weak optical drives, weak rf with strong
# optical drives, each at the low end, the middle and the high end of the
# workload's draws.
CASES = (
    ("strong_rf", dict(omega_rf=10.5, omega1=0.06, omega3=0.2)),
    ("strong_rf", dict(omega_rf=20.0, omega1=0.2, omega3=0.2)),
    ("strong_rf", dict(omega_rf=29.0, omega1=0.55, omega3=0.17)),
    ("weak_rf", dict(omega1=2.2, omega3=5.7, omega_rf=0.05)),
    ("weak_rf", dict(omega1=4.0, omega3=4.0, omega_rf=0.2)),
    ("weak_rf", dict(omega1=5.9, omega3=3.3, omega_rf=0.16)),
)
GAMMAS = ("unit", "physical")
PAIRS = ((1, 1), (3, 3), (3, 1))
TALBOT_TAUS = (0.3, 1.5)
CATALOGUE_TAUS = (0.07, 0.5, 1.8)


def values(params, regime):
    """Lines of `label: repr` for one parameter set in one regime."""
    regime = perturbation.Regime(regime)
    for pair in PAIRS:
        es, ss = perturbation.analytic_g2_sum(params, regime, pair)
        yield f"sum {pair} ss: {ss!r}"
        for k, (c, r, p) in enumerate(es.terms):
            yield f"sum {pair} term {k}: {complex(c)!r} {complex(r)!r} {int(p)}"
        for tau, v in zip(TALBOT_TAUS, es(np.array(TALBOT_TAUS))):
            yield f"sum {pair} at {tau}: {float(v)!r}"
        for tau in TALBOT_TAUS:
            v = perturbation.talbot_g2_value(params, regime, pair, tau, ss=ss)
            yield f"talbot {pair} at {tau}: {float(v)!r}"
    for entry in perturbation.APPENDIX_CATALOGUE:
        if entry[0] is not regime:
            continue
        rf = perturbation.appendix_rational(params, *entry)
        es = ratfunc.invert_rational(rf)
        for k, (c, r, p) in enumerate(es.terms):
            yield f"catalogue {entry[1:]} term {k}: {complex(c)!r} {complex(r)!r} {int(p)}"
        for tau, v in zip(CATALOGUE_TAUS, es(np.array(CATALOGUE_TAUS))):
            yield f"catalogue {entry[1:]} residues at {tau}: {float(v)!r}"
        for tau in CATALOGUE_TAUS:
            v = ratfunc.talbot_invert_rf(rf, tau)
            yield f"catalogue {entry[1:]} talbot at {tau}: {float(v)!r}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outfile", type=pathlib.Path)
    args = parser.parse_args(argv)
    lines = []
    for gammas in GAMMAS:
        for regime, drives in CASES:
            params = preset("fig2", gammas).with_drives(**drives)
            head = f"{gammas} {regime} {drives}"
            lines += [f"{head} {line}" for line in values(params, regime)]
    args.outfile.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} values written to {args.outfile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
