"""Golden digests of the canonical configuration and cover-report JSON at seed 0.

x^5-x-1 and x^7-x-1 pin degree >= 5, where inversion in K is dearest,
and the only golden files whose products draw on two anchors
(slp_compiler.split_anchors); the others share anchor 1.
Performance work must leave these bytes unchanged. A change that alters
them on purpose updates the table and says why.

A configuration file stores only its lines (schema v3), and loading derives
the multiple points, incidences and marks. GOLDEN holds the digests of the
former v1 encoding, which also wrote every point, simple crossings too,
with its row: each v3 file, once loaded, must re-encode to them through
v1_json below, which lists the points with configuration.all_points. So
the derivation at load is pinned point for point, row for row, in the
builder's order. FILE_GOLDEN pins the v3 files themselves.
"""

import hashlib

import pytest

from planecode.configuration import all_points
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
    """Reference encoder of the schema v1 configuration file, kept for the tests.

    v1 numbered every point; a mark is found in that numbering by its row.
    """
    points = list(all_points(c))
    index = {rows: i for i, (_, rows) in enumerate(points)}
    return {
        "v": 1,
        "poly": poly_to_json(c.source),
        "seed": c.seed,
        "params_consumed": c.params_consumed,
        "lines": [[nf_to_json(x) for x in l.coeffs] for l in c.lines],
        "points": [[nf_to_json(x) for x in p.coords] for p, _ in points],
        "incidence": [list(rows) for _, rows in points],
        "marks": {label: index[c.incidence[i]] for label, i in c.marks.items()},
    }


GOLDEN = {
    "x^2-2": "ce28c6d5fcbf1464eb8fa98489dd3f8f9b24820bee1e3ff0035697c92955fb07",
    "x^3-2": "b49c089b617df0c6a635becaaa76e4c42f3bbb6b70878bc2b1081fd695a68fcc",
    "x^2-x-1": "8b8b9c64c103121da238986fe5983fe99fc038c59c8bb4937c7cc4b24708ea84",
    "x^4-x-1": "aae417d1247fd422db95ac801765445a8ac604c478ebc7dfa317d69f98109da4",
    "3*x^2-5": "cbe364c71a6f0dcb2250373a819746ff7933684cc42ea2cdd0db32bf8bee82dc",
    "x^5-x-1": "92d67738d77eca73ad636e83fb983f78ad1aaac04cf0617bf20284c1b6ef7e94",
    "x^7-x-1": "4b4f9961c5f0340762c06087ecbfaf71e72b22bb70073e2524f710dab18b696d",
}

COVER_GOLDEN = {
    "x^2-2": "5c2e13364059e5cdbb8a0178da31aa859aea7199a8930555656d3c3855e96cd2",
    "x^3-2": "44cdb55bf3d3d1d676d5bf8b8b6b7a1a09f02ee1bf091c76d7a4ce6cfe92f7e4",
    "x^2-x-1": "7df05196b956c5c8e201b07e114d40377e45d9ad94adad0bfda83e76411ffe92",
    "x^4-x-1": "bfbb51df15f2296012ca1177e445e92b465803c47a88a600ddd0708984e29063",
    "3*x^2-5": "fe5eec9b72c043b918cd71ae8f6430255c142f3e5d753a838cb71a6285abaa2e",
    "x^5-x-1": "6f5e635053ea4b57a970574119158e6be4c0477755e946417f8833a252d9a14d",
    "x^7-x-1": "d1f22abc2d2d30235a20583c13beaf005a3a73943a5161b6be4c5df41a9cf7c1",
    # constant chains (see CONSTANT_FILE_GOLDEN); the x^3-1000003 report lists
    # its 19,912 points as 7 valence classes (see COVER_BYTES_AT_MOST)
    "3*x^3-5*x+7": "03758df72346e9a138d2e112e2c4748b6454392da47dc5ad05c54950dfd30138",
    "x^3-1000003": "3f912d6bf8d17a64c8a7e4c4d6033d6068031cef4fa5135e4298007fc74f6a03",
}


FILE_GOLDEN = {
    "x^2-2": "c474bbd83624e14dc8da4cddd85a55d22bb531a0caab07fe9f6233a3b29514e6",
    "x^3-2": "e378f39a4656e0f28ab091a84facceacd0f21d8b1b687b4c521042ea9ef13294",
    "x^2-x-1": "9eaa9330d4bcea51e8d27875df0543295bec84b24812f205e05b88f549cbf412",
    "x^4-x-1": "0627d71b5634eafce00ad0effc81d088ecfbabdc98768cb1742b9dcaffdde5ac",
    "3*x^2-5": "0e707b65d2e2fc36d5d2c281d81c99fbfa0857d698685cf11d454c199225e28b",
    "x^5-x-1": "88e36f53e7994a8b26bffb62b5449c5670f007194642d460b5d8549c26b426f3",
    "x^7-x-1": "791fcea781c04340e389dd0a7e5b3bd8842471841d780d00944e1dfede882047",
}

# Integer constants share one chain of add gadgets: 3 = 2 + 1 by
# double-and-add, then 5 = 2 + 3 and 7 = 2 + 5 by one add each; 1000003 is a
# 20-bit double-and-add chain (L = 213), 1000000000007 a 40-bit one (L = 407,
# 227 stored points).
CONSTANT_FILE_GOLDEN = {
    "3*x^3-5*x+7": "6d4f45afe3e7e5a77cc94b23ed943c20c3110aed34e92015cc063e8945462e71",
    "x^3-1000003": "f6768477361da6d3c6c7b0392449bdd7e08c7857773386b33814080a403acd9f",
    "x^3-1000000000007": "d2a9c0c7aea893185d08b3043d24919317f0e2e990dd1669a75bee48532c6900",
}

# The v1 files were 0.67 MB and 6.55 MB; the lines alone are 2-4 % of that.
FILE_BYTES_AT_MOST = {"x^2-2": 30_000, "x^7-x-1": 150_000}

# A cover report lists each valence once; the v1 report, with one
# coefficient per point in each of its 16 classes, was 3.96 MB.
COVER_BYTES_AT_MOST = {"x^3-1000003": 16_000}


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
    blob = dumps_canonical(config_to_json(cfg))
    assert _sha256(blob) == CONSTANT_FILE_GOLDEN[text]
    loaded = config_from_json(loads(blob))
    assert loaded.points == cfg.points
    assert loaded.incidence == cfg.incidence
    assert loaded.marks == cfg.marks


@pytest.mark.parametrize("text", sorted(FILE_BYTES_AT_MOST))
def test_configuration_file_size(built, text):
    cfg, _ = built(text)
    assert len(dumps_canonical(config_to_json(cfg)).encode()) <= FILE_BYTES_AT_MOST[text]


@pytest.mark.parametrize("text", sorted(COVER_GOLDEN))
def test_cover_report_digest(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(cover_report_to_json(build_cover_report(cfg))).encode()
    assert hashlib.sha256(blob).hexdigest() == COVER_GOLDEN[text]


@pytest.mark.parametrize("text", sorted(COVER_BYTES_AT_MOST))
def test_cover_report_size(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(cover_report_to_json(build_cover_report(cfg))).encode()
    assert len(blob) <= COVER_BYTES_AT_MOST[text]
