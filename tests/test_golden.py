"""Golden digests of the canonical configuration and cover-report JSON at seed 0.

x^5-x-1 and x^7-x-1 pin degree >= 5, where inversion in K is dearest,
and the only golden files whose products draw on two anchors
(slp_compiler.split_anchors); the others share anchor 1.
Performance work must leave these bytes unchanged. A change that alters
them on purpose updates the table and says why.

A configuration file stores only its lines (schema v2), and loading derives
the multiple points, incidences and marks. GOLDEN holds the digests of the
former v1 encoding, which also wrote every point, simple crossings too,
with its row: each v2 file, once loaded, must re-encode to them through
v1_json below, which lists the points with configuration.all_points. So
the derivation at load is pinned point for point, row for row, in the
builder's order. FILE_GOLDEN pins the v2 files themselves.
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
    "x^2-2": "53acdedf21c160aee8305ea7d7530f34075c6e622b30bce3f7eb4db1af8040de",
    "x^3-2": "ad2288455ace9bdd93b406c37fb046c3711b7ba1839482d3fe58b548babac23a",
    "x^2-x-1": "a2a9aa407cdc6d15d222aade06c5ed396751d0bf3f29d08e5fd8cb00c23626c0",
    "x^4-x-1": "268465a718fd03a243ad5827bce74f311378bdd876dae2fd054247cd16b554ba",
    "3*x^2-5": "cb078aa322ef64d60c4b0193868418527715bfc62cd993d18a2957ba80bdedbf",
    "x^5-x-1": "b1360f82887167e03e6ccfbae84eebf2a299b208e001cf7045212960cccc79d4",
    "x^7-x-1": "e168a0ea8e4f8b941e74145b18ca0b3aaf78de30ea8cb2de199c1118071963cf",
}

COVER_GOLDEN = {
    "x^2-2": "4e667da0c168838e00e049d662ca3063029e7012cfd7e083304f39ae31699a64",
    "x^3-2": "44cdb55bf3d3d1d676d5bf8b8b6b7a1a09f02ee1bf091c76d7a4ce6cfe92f7e4",
    "x^2-x-1": "d9abea848824b67ceb9fcc20bb1394e84c934a47b596dcb9f7f35a0de43b8c34",
    "x^4-x-1": "bfbb51df15f2296012ca1177e445e92b465803c47a88a600ddd0708984e29063",
    "3*x^2-5": "e866c1ceb6438a279c69d9e0f064a5285038601e5cdbbf44af6c859908f871bd",
    "x^5-x-1": "6f5e635053ea4b57a970574119158e6be4c0477755e946417f8833a252d9a14d",
    "x^7-x-1": "d1f22abc2d2d30235a20583c13beaf005a3a73943a5161b6be4c5df41a9cf7c1",
    # constant chains (see CONSTANT_FILE_GOLDEN); the x^3-1000003 report lists
    # its 22,499 points as 7 valence classes (see COVER_BYTES_AT_MOST)
    "3*x^3-5*x+7": "54a3500177d06ab78e90a017e559381c29bb32afbe13d2c17c6b20fddc322da5",
    "x^3-1000003": "35c8bf8beab8f9b9ef427c69956c2f27a0281fd4963da762bb699fb8141582c9",
}


FILE_GOLDEN = {
    "x^2-2": "11c8b76af569ed16ad7af29bc4692ded159ffd3482d0a1707b127c63802964e3",
    "x^3-2": "840bd82eb84a71d6c025dc7dbb2c23903b13a5465df0f60f4c0ce4aaff9c54a6",
    "x^2-x-1": "5a7728480af63c3042bd55ecaaab243196e1dbd95dcfe38ad8eb7e09e882f18d",
    "x^4-x-1": "5179c6375140c86560acaab954a62e18bbaa0bc788c505324541f2c7377587dd",
    "3*x^2-5": "8f2f221f0a6302474efe600b4ed3dd07a41dfb10eeaa94e995d9f91b77df90bb",
    "x^5-x-1": "78c1abf8c263fc6adc6e5ccc0a97d6bf311fa1134a37a535758452e852cc16b2",
    "x^7-x-1": "a2c6ee0774fafccdde22574a0ecc135b8b3e7fea50251b15044e571c2012b650",
}

# Integer constants share one chain of add gadgets: 3 = 2 + 1 by
# double-and-add, then 5 = 2 + 3 and 7 = 2 + 5 by one add each; 1000003 is a
# 20-bit double-and-add chain (L = 226).
CONSTANT_FILE_GOLDEN = {
    "3*x^3-5*x+7": "158153c3896c8ba80fda285d6c9e2db7bbcf1eabe40eea6fcb0be805a0149f8d",
    "x^3-1000003": "f8a133441decda3ac806c3c4099c43e644d0e657701389cc656c4bdb6120f034",
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


@pytest.mark.parametrize("text", sorted(COVER_BYTES_AT_MOST))
def test_cover_report_size(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(cover_report_to_json(build_cover_report(cfg))).encode()
    assert len(blob) <= COVER_BYTES_AT_MOST[text]
