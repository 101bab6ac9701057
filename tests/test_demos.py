"""The demo scripts run end to end and print the identities they illustrate."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_closed_formulas_demo(capsys):
    runpy.run_path(str(DEMOS / "closed_formulas.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "  d = 5:  11628/25\n" in out
    assert "  d = 1:  4 == -1 * -4  -> True\n" in out
    moebius = out.split("Moebius chain")[1].split("local conversion")[0]
    assert moebius.count("-> True") == 4 and "-> False" not in moebius
    assert "all hold: True" in out
