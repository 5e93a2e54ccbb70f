"""Write the CSVs of the CLI commands at their default configs into OUTDIR,
each command in a fresh interpreter.

    python tools/cli_csvs.py OUTDIR              # 15 CSVs
    python tools/cli_csvs.py OUTDIR --no-scipy   # 14: scipy unimportable,
                                                 # validate left out

`figures` writes fig2, fig3 and fig4; every other command writes one file,
named in COMMANDS; the stdout of each `cs` run (its `r_max = ... at tau =
...` line) is saved next to its CSV, as cs.stdout for cs.csv.  The package
comes from the src/ directory next to this script's tools/, so a copy of
the script placed in another checkout runs that checkout's code.
Comparing two output directories byte for byte (`diff -r A B`, or `cmp`
per file) checks that the CSVs and the stdout files are deterministic
across runs, without scipy, or across revisions.  Exits with the first failing command's exit code, after
printing its stderr.
"""

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Runs `python -m cascade4 ARGS` with scipy made unimportable.
NO_SCIPY = ("import sys, runpy; sys.modules['scipy'] = None; "
            "sys.argv = ['cascade4'] + sys.argv[1:]; "
            "runpy.run_module('cascade4', run_name='__main__')")

# roots where the published cubic is undefined, so its printed values are
# nan: weak rf with omega3 = 0, strong rf with omega_rf = 0; cs on the
# closed-cascade fig2 point with the two non-default grid and ratio settings;
# and a delay scan with the literal transfer rates, whose last three points
# are unstable, so their rows are nan.
CONFIGS = {
    "fig2_literal_linear": (
        "[system]\nomega1 = 4\nomega3 = 4\nomega_rf = 20\ngamma2 = 1\n"
        "gamma3 = 1\ngamma4 = 0.16\ngamma23 = 1\ngamma34 = 0.16\ngamma24 = 0\n"
        "[grid]\nspacing = linear\n[options]\ncs_definition = literal\n"),
    "weak_omega3_0": "[system]\nomega1 = 4\nomega3 = 0\nomega_rf = 0.2\n",
    "strong_omega_rf_0": "[system]\nomega1 = 0.2\nomega3 = 0.2\nomega_rf = 0\n",
    "literal_rates": "[system]\nomega1 = 4\nomega3 = 4\nomega_rf = 20\n",
}

# (--out relative to OUTDIR, a CONFIGS key or None, command arguments).
COMMANDS = (
    (".", None, ["figures"]),
    ("cs.csv", None, ["cs"]),
    ("cs_literal_linear.csv", "fig2_literal_linear", ["cs"]),
    ("taud.csv", None, ["taud-scan", "--sweep", "omega_rf"]),
    ("taud_literal_rates.csv", "literal_rates", ["taud-scan", "--sweep", "omega_rf"]),
    ("roots_strong.csv", None, ["roots", "--regime", "strong"]),
    ("roots_weak.csv", None, ["roots", "--regime", "weak"]),
    ("validate.csv", None, ["validate"]),
    ("steady.csv", None, ["steady"]),
    ("evolve3.csv", None, ["evolve", "--init", "3"]),
    ("g2_31.csv", None, ["g2", "--pair", "31"]),
    ("roots_weak_omega3_0.csv", "weak_omega3_0", ["roots", "--regime", "weak"]),
    ("roots_strong_omega_rf_0.csv", "strong_omega_rf_0",
     ["roots", "--regime", "strong"]),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--no-scipy", action="store_true",
                        help="make scipy unimportable and leave validate out")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    python = [sys.executable, "-c", NO_SCIPY] if args.no_scipy else [
        sys.executable, "-m", "cascade4"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        for out, config, command in COMMANDS:
            if args.no_scipy and command[0] == "validate":
                continue
            argv = ["--out", str(args.outdir / out)]
            if config is not None:
                path = pathlib.Path(tmp, f"{config}.cfg")
                path.write_text(CONFIGS[config])
                argv += ["--config", str(path)]
            done = subprocess.run(python + argv + command, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{' '.join(command)} exited {done.returncode}:\n"
                      f"{done.stderr}", file=sys.stderr)
                return done.returncode
            if command == ["cs"]:
                (args.outdir / out).with_suffix(".stdout").write_text(done.stdout)
    for path in sorted(args.outdir.glob("*.csv")):
        print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
