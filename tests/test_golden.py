"""Golden digests of the canonical configuration and cover-report JSON at seed 0.

x^5-x-1 and x^7-x-1 pin degree >= 5, where inversion in K is dearest.
Performance work must leave these bytes unchanged. A change that alters
them on purpose updates the table and says why.
"""

import hashlib

import pytest

from planecode.cover import build_cover_report
from planecode.serialize import config_to_json, cover_report_to_json, dumps_canonical

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


@pytest.mark.parametrize("text", sorted(GOLDEN))
def test_configuration_digest(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(config_to_json(cfg)).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[text]


@pytest.mark.parametrize("text", sorted(COVER_GOLDEN))
def test_cover_report_digest(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(cover_report_to_json(build_cover_report(cfg))).encode()
    assert hashlib.sha256(blob).hexdigest() == COVER_GOLDEN[text]
