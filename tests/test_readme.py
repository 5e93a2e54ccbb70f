"""The README's documented config parses, its library example runs and its
list of the perturbation layer's public functions is complete."""

import inspect
import pathlib
import re

from cascade4 import perturbation
from cascade4.cli import parse_config

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_config_parses():
    (text,) = [body for _lang, body in FENCES
               if body.startswith("[system]") and "[options]" in body]
    cfg = parse_config(text)
    assert (cfg.system.omega1, cfg.system.omega_rf) == (4.0, 20.0)
    assert (cfg.tau_max, cfg.tau_points, cfg.precision) == (40.0, 2000, 9)
    assert cfg.cs_definition == "equal_time"


def test_readme_library_example_runs(capsys):
    example = README.split("## Library example", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", example, flags=re.M | re.S)[1]
    exec(compile(code, "README.md", "exec"), {})
    r_max, tau_at_max = map(float, capsys.readouterr().out.split())
    assert 1e2 <= r_max <= 1e7 and tau_at_max > 0.0


def test_readme_lists_the_public_perturbation_functions():
    # every backticked name in the sentence, and no other public function
    sentence = re.search(r"The public\s+functions are (.*?)\.\s", README, flags=re.S)[1]
    documented = set(re.findall(r"`([^`]+)`", sentence))
    defined = {name for name, value in vars(perturbation).items()
               if inspect.isfunction(value) and not name.startswith("_")
               and value.__module__ == perturbation.__name__}
    assert documented == defined
