import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


# exponent_statistics.py is not run: its main() takes seconds, the others a fraction
@pytest.mark.parametrize(
    "name", ["closed_form_curves.py", "half_vs_full_duplex.py", "outage_simulation.py"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "nan" not in out


def test_exponent_statistics_imports_resolve():
    # any run name but "__main__" runs the imports and skips main(), so a
    # renamed public name still fails here
    namespace = runpy.run_path(os.path.join(DEMOS, "exponent_statistics.py"), run_name="demo")
    assert callable(namespace["main"])
