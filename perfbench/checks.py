"""Output checks, run after the timed phase.

Configuration files are checked through the program (load, then decode must
give the generator). Certificates and cover reports are checked from their
JSON alone, so a wrong claim in them cannot be confirmed by the code that
made it. Each check returns its list of problems, empty when the output is
correct; the file checks also return the line count L the file states.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

DECODE_OK = "decoded element equals the field generator"

# Characters chi of (Z/2)^3 with (chi, alpha) = 1 for alpha = 100: the bit
# strings that start with 1, in the cover report's own naming.
X1_CHARACTERS = ("100", "101", "110", "111")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rational(entry) -> Fraction:
    return Fraction(int(entry["n"]), int(entry["d"]))


def config_file(path: Path, poly_text: str) -> tuple[list[str], int]:
    """Problems with a built configuration file, and its line count."""
    from planecode.decode import decode
    from planecode.numberfield import parse_poly
    from planecode.serialize import config_from_json, loads

    cfg = config_from_json(loads(path.read_text(encoding="utf-8")))
    problems = []
    if cfg.source != parse_poly(poly_text).primitive():
        problems.append(f"{path.name}: source polynomial {cfg.source} is not {poly_text}")
    if decode(cfg) != cfg.field.gen:
        problems.append(f"{path.name}: does not decode to the generator")
    return problems, cfg.line_count


def decode_stdout(text: str, name: str) -> list[str]:
    return [] if DECODE_OK in text.splitlines() else [f"{name}: decode did not confirm the generator"]


def _disjoint(c1, r1, c2, r2) -> bool:
    """|c1 - c2| > r1 + r2, decided exactly on the stored floats."""
    dx = Fraction(c1[0]) - Fraction(c2[0])
    dy = Fraction(c1[1]) - Fraction(c2[1])
    return dx * dx + dy * dy > (Fraction(r1) + Fraction(r2)) ** 2


def certificate(path: Path, poly_text: str) -> tuple[list[str], int]:
    """Problems with a separation certificate, and its line count."""
    from planecode.numberfield import parse_poly

    data = json.loads(path.read_text(encoding="utf-8"))
    name = path.name
    problems = []
    poly = [_rational(c) for c in data["poly"]]
    if poly != list(parse_poly(poly_text).primitive().coeffs):
        problems.append(f"{name}: certificate is for another polynomial")
    degree = len(poly) - 1
    if data.get("kind") != "separation-certificate":
        problems.append(f"{name}: kind is {data.get('kind')!r}")
    if data["equals_generator"] is not True:
        problems.append(f"{name}: equals_generator is not true")
    generator = [Fraction(int(i == 1)) for i in range(degree)]
    if [_rational(c) for c in data["decoded"]] != generator:
        problems.append(f"{name}: decoded coefficients are not the generator")
    embeddings = data["embeddings"]
    if len(embeddings) != degree:
        problems.append(f"{name}: {len(embeddings)} embeddings for degree {degree}")
    for a, b in combinations(embeddings, 2):
        if not _disjoint(a["value_center"], a["value_radius"], b["value_center"], b["value_radius"]):
            problems.append(
                f"{name}: value discs {a['root_index']} and {b['root_index']} overlap"
            )
    return problems, int(data["line_count"])


def cover_report(path: Path, line_count: int) -> tuple[list[str], int]:
    """Problems with a cover report of a configuration with line_count lines, and L."""
    data = json.loads(path.read_text(encoding="utf-8"))
    name = path.name
    problems = []
    if data.get("kind") != "cover-report":
        problems.append(f"{name}: kind is {data.get('kind')!r}")
    if data["m"].get("000") != 0:
        problems.append(f"{name}: m_0 is {data['m'].get('000')}, not 0")
    if data["m"].get("100") != line_count:
        problems.append(f"{name}: m_alpha is {data['m'].get('100')}, not L = {line_count}")
    if data["parity"] != "all-even":
        problems.append(f"{name}: parity is {data['parity']!r}")
    for chi in X1_CHARACTERS:
        if data["ampleness"][chi]["certified"] is not True:
            problems.append(f"{name}: character {chi} is not certified ample")
    return problems, int(data["line_count"])
