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
    "x^2-2": "8406d7c23627b69da58085fe1039b56305e6590765e8193c2f4069dbf84fde51",
    "x^3-2": "4fd395e6e60b530be0c06ba3eaa49fd2d04bcdc054774f5b2286f0ace30922aa",
    "x^2-x-1": "566c40c71e1c22998a4df76593fa836ee1f9162e35ec6699760496c2d8a34a5f",
    "x^4-x-1": "028785641b5072da938836bc12dce648dd25e24e3c54e87da0b1f2244e5191a4",
    "3*x^2-5": "f1cf85bcfa271d142dfead3d1edc8f02ddfd0beb0dd95e954035693420d49a6b",
    "x^5-x-1": "2c621249c33f4cd57143a90681b79e91583c890de58f5c7edc4f9ea8e249043a",
    "x^7-x-1": "2cc8b0997c04f32cf4b5b5008c4a4a5fe23d91c40ccb8b40bab3f5b478b9aa36",
}

COVER_GOLDEN = {
    "x^2-2": "e9ae8efb94aa81d9ee62060af26059321470cbb48a4b1db22f2c4ecd72e91742",
    "x^3-2": "c70e8b528000edcf3e149b74b61068c1d9cab58b0fc8daaa97f84ecdf1e79034",
    "x^2-x-1": "9c62eb3ac9896fff388fe6f5073e9882af4c469523549f7af5050ddb87b53f19",
    "x^4-x-1": "96b0e446619d5b7524f69fbb206f84fcd2d84390d64a1f0db8fb365a7c6456e1",
    "3*x^2-5": "e514657bb97987759a21b97420720bf349e39931c652ba6139e884d099faa76e",
    "x^5-x-1": "506261e15e54f7f890a1fca7041d30c5cf5dd3051300791731987a5b06ae213d",
    "x^7-x-1": "46ae6a55bd1400540e7fa442c51f3f0bd7ba2f7f7357f332745a4d9ffdd8de73",
}


FILE_GOLDEN = {
    "x^2-2": "db64c38924639b36509b064c75516d32e4d53268b85439d7a3cacb15c6bb07c1",
    "x^3-2": "bd07a0024e81c4b61e74084f43f24c4d91091c26988e72512a084da98cc0aaf5",
    "x^2-x-1": "d1528802b96a484e4034bef7cb1425895529fb727cba042b8b206371edd5310d",
    "x^4-x-1": "cd20f8cf980445aeb183de28af5af3e3533c08fce664e0ec5f462cf439574134",
    "3*x^2-5": "69272cca51837392b5adbd000b19b78439a73f225394025fdaa79747e580d502",
    "x^5-x-1": "6b089551ebcdea74d5bb4fdc5327623edae499ac2fb921586083abae2e8f751b",
    "x^7-x-1": "74ce6f5397a421327da1c085d901e3a91c484d98711d8cad9aaf258f8a6b997e",
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


@pytest.mark.parametrize("text", sorted(FILE_BYTES_AT_MOST))
def test_configuration_file_size(built, text):
    cfg, _ = built(text)
    assert len(dumps_canonical(config_to_json(cfg)).encode()) <= FILE_BYTES_AT_MOST[text]


@pytest.mark.parametrize("text", sorted(COVER_GOLDEN))
def test_cover_report_digest(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(cover_report_to_json(build_cover_report(cfg))).encode()
    assert hashlib.sha256(blob).hexdigest() == COVER_GOLDEN[text]
