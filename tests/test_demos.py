import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize(
    "name",
    [
        "closed_form_curves.py",
        "exponent_statistics.py",
        "half_vs_full_duplex.py",
        "outage_simulation.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "nan" not in out
