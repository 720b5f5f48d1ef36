"""scripts/survey.py: the committed input survey, run on its two smallest cases."""

import os
import subprocess
import sys
from pathlib import Path

from planecode.numberfield import parse_poly
from planecode.pipeline import run_pipeline

SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "survey.py"


def test_survey_certifies_the_two_smallest_swinnerton_dyer_polynomials():
    out = subprocess.run(
        [sys.executable, str(SURVEY), "--family", "sd", "--max-degree", "4", "--timeout", "60"],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True,
    )
    header, *rows = out.stdout.splitlines()
    assert header.split("\t") == ["polynomial", "L", "seconds", "exit"]
    assert [row.split("\t")[0] for row in rows] == ["x^2 - 2", "x^4 - 10*x^2 + 1"]
    for row in rows:
        poly, lines, seconds, code = row.split("\t")
        assert code == "0" and float(seconds) > 0
        assert int(lines) == run_pipeline(parse_poly(poly)).line_count
