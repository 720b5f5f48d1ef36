"""Golden digests of the canonical configuration and cover-report JSON at seed 0.

x^5-x-1 and x^7-x-1 pin degree >= 5, where inversion in K is dearest.
Performance work must leave these bytes unchanged. A change that alters
them on purpose updates the table and says why.

A configuration file stores only its lines (schema v2), and loading derives
the points, incidences and marks. GOLDEN holds the digests of the former
v1 encoding, which also wrote those derived parts: each v2 file, once
loaded, must re-encode to them through v1_json below. So the derivation at
load is pinned point for point, row for row, in the builder's order.
FILE_GOLDEN pins the v2 files themselves.
"""

import hashlib

import pytest

from planecode.cover import build_cover_report
from planecode.serialize import (
    config_from_json,
    config_to_json,
    cover_report_to_json,
    dumps_canonical,
    loads,
    nf_to_json,
    poly_to_json,
)


def v1_json(c) -> dict:
    """Reference encoder of the schema v1 configuration file, kept for the tests."""
    return {
        "v": 1,
        "poly": poly_to_json(c.source),
        "seed": c.seed,
        "params_consumed": c.params_consumed,
        "lines": [[nf_to_json(x) for x in l.coeffs] for l in c.lines],
        "points": [[nf_to_json(x) for x in p.coords] for p in c.points],
        "incidence": [list(rows) for rows in c.incidence],
        "marks": dict(c.marks),
    }


GOLDEN = {
    "x^2-2": "1170050865ac03dad8bbfceb1adc4c212d5ec77a2ca96929771cc4335b279189",
    "x^3-2": "dcbd7ea53a67a574f643c6db05e3a9fa1710eb714730e7a3521cdb4c41c72156",
    "x^2-x-1": "7b754509c90daa1bf305fc93f22e7a4923260014bb20e028a26400455b55787d",
    "x^4-x-1": "a1fb03f74b09d2d0e25961f81fa456ed133de369076589cf8c822f204ee14e31",
    "3*x^2-5": "c6c64ccb9fd94fe80ad94a3f4854238c8a01526292a12aa400eb5d0dd35e7f0c",
    "x^5-x-1": "b2b9a9805fecb72edb4095e99ed1c4f1584680fed60539775df5250ff16f3b5a",
    "x^7-x-1": "f63ce6b52dcec47dec31768b230639eac24fc115d1d383822cc8566426708fd7",
}

COVER_GOLDEN = {
    "x^2-2": "e48bf4508014bc48c79ac3dda2557207536c47e127bba9c100f48ff1de1faeee",
    "x^3-2": "de06061f9d33f23e63d56b6757af2319174419da2b1a3c3656f439a1664a7d45",
    "x^2-x-1": "c7a70d729ad35ad4223f61a0508acdc3895879b4aa1921e97b57a678829f30b6",
    "x^4-x-1": "2123728d92b6e5becd3283919693f6aa0cd01a33938aa23565e5bad72aa088fc",
    "3*x^2-5": "8eb56e89a161e84bc131a8144454d8a2c45b06f173ab977e4eecb7c28e68efb0",
    "x^5-x-1": "040e99e3a2755a4ccdc005fb9e5703b1237bf4931bf49f2f14e833345a936ae5",
    "x^7-x-1": "cac1c63293ba0b4a5eba72b7666e82f1447382dab8fc2f783e900789be89d0df",
}


FILE_GOLDEN = {
    "x^2-2": "4ea2a393d6f0386a3d08c1831b4b984dca373ceb8a4fa7d2d392b29ff0c9ae3e",
    "x^3-2": "7c461d910d641335115bc5c62ffe6a16f9c212b97966b1317303a61309991187",
    "x^2-x-1": "7a423d60c0e3ed99ba16616f8c24fc3c5a1363305e7c7a6bfc78bf8862f53d6e",
    "x^4-x-1": "c861a22250bd4b036d70b13630ccde7c799d53b38cb5e196e3c6aed222d78f93",
    "3*x^2-5": "83d955bf847e7ee02266ba3c8b61002cc495188ea2605b1780a493c5c20afe8b",
    "x^5-x-1": "535c94a5408a0366a268c9885ff7151a6c97185d9bdbbb3f98f271694c768a1f",
    "x^7-x-1": "1f456ec8a0ab7534d8580758473c545589e54ee0cdc2f1a3f5328c85e68f3161",
}

# Integer constants above 2 are built by several add gadgets each: 3, 5 and 7
# here, and a 20-bit double-and-add chain for 1000003 (L = 229).
CONSTANT_FILE_GOLDEN = {
    "3*x^3-5*x+7": "5beb06b4b2a3b10aad1634ef2ba9672b1be59320581f851b9fe97b62a9dd4462",
    "x^3-1000003": "18e6c1de5182d4fe9b7d26615ad132a5e325dc7df79323758911e0355d078cfb",
}

# The v1 files were 0.67 MB and 6.55 MB; the lines alone are 2-4 % of that.
FILE_BYTES_AT_MOST = {"x^2-2": 30_000, "x^7-x-1": 150_000}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("text", sorted(GOLDEN))
def test_configuration_digest(built, text):
    cfg, _ = built(text)
    loaded = config_from_json(loads(dumps_canonical(config_to_json(cfg))))
    assert _sha256(dumps_canonical(v1_json(loaded))) == GOLDEN[text]


@pytest.mark.parametrize("text", sorted(FILE_GOLDEN))
def test_configuration_file_digest(built, text):
    cfg, _ = built(text)
    assert _sha256(dumps_canonical(config_to_json(cfg))) == FILE_GOLDEN[text]


@pytest.mark.parametrize("text", sorted(CONSTANT_FILE_GOLDEN))
def test_constant_chain_file_digest(built, text):
    cfg, _ = built(text)
    assert _sha256(dumps_canonical(config_to_json(cfg))) == CONSTANT_FILE_GOLDEN[text]


@pytest.mark.parametrize("text", sorted(FILE_BYTES_AT_MOST))
def test_configuration_file_size(built, text):
    cfg, _ = built(text)
    assert len(dumps_canonical(config_to_json(cfg)).encode()) <= FILE_BYTES_AT_MOST[text]


@pytest.mark.parametrize("text", sorted(COVER_GOLDEN))
def test_cover_report_digest(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(cover_report_to_json(build_cover_report(cfg))).encode()
    assert hashlib.sha256(blob).hexdigest() == COVER_GOLDEN[text]
