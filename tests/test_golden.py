"""Golden digests of the canonical configuration and cover-report JSON at seed 0.

x^5-x-1 and x^7-x-1 pin degree >= 5, where inversion in K is dearest,
and the only golden files whose products draw on two anchors
(slp_compiler.split_anchors); the others share anchor 1.
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
    "x^2-2": "53acdedf21c160aee8305ea7d7530f34075c6e622b30bce3f7eb4db1af8040de",
    "x^3-2": "ad2288455ace9bdd93b406c37fb046c3711b7ba1839482d3fe58b548babac23a",
    "x^2-x-1": "a2a9aa407cdc6d15d222aade06c5ed396751d0bf3f29d08e5fd8cb00c23626c0",
    "x^4-x-1": "268465a718fd03a243ad5827bce74f311378bdd876dae2fd054247cd16b554ba",
    "3*x^2-5": "cb078aa322ef64d60c4b0193868418527715bfc62cd993d18a2957ba80bdedbf",
    "x^5-x-1": "b1360f82887167e03e6ccfbae84eebf2a299b208e001cf7045212960cccc79d4",
    "x^7-x-1": "e168a0ea8e4f8b941e74145b18ca0b3aaf78de30ea8cb2de199c1118071963cf",
}

COVER_GOLDEN = {
    "x^2-2": "f383aaebbedf82a9eafbca3173b5c4bdda823e3da2806bfc90ef431205c1c066",
    "x^3-2": "f2a832d152ce4b73df2fc939c2c6c69c9155217527c6237d73db71acb7e8084d",
    "x^2-x-1": "b689799cf67169bd47687151f28c25dae6a2e72f00831998d8ad75bc5b12209c",
    "x^4-x-1": "64f70881aa7174ec08f9b10ca8dab2a20d68480d94c88e073d40c0fba4862409",
    "3*x^2-5": "11a342581ad6e750d4d849af891532be89b571e4643a29f8fdd0bb15593b6dd6",
    "x^5-x-1": "2e07a5c1b54e62f055d35b1ff6de227d2511393301de21aec1151b4b059784e1",
    "x^7-x-1": "0d97e1b2c25fbb31541d1daca6ea91e83cb932a7776e55a220cf435648a3fa25",
    # constant chains (see CONSTANT_FILE_GOLDEN); the x^3-1000003 report has
    # 22,499 points and is 3.96 MB
    "3*x^3-5*x+7": "d47f784b42013228c00d7078217a20a61d42f6a315704ff69251f9428e39f6f7",
    "x^3-1000003": "25eb8411e3eef9f2ce02a6bf4e846308057b12470a9944a394ba1d76500ba9a9",
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
