"""Golden digests of the canonical configuration JSON at seed 0.

Performance work must leave these bytes unchanged. A change that alters
them on purpose updates the table and says why.
"""

import hashlib

import pytest

from planecode.serialize import config_to_json, dumps_canonical

GOLDEN = {
    "x^2-2": "8406d7c23627b69da58085fe1039b56305e6590765e8193c2f4069dbf84fde51",
    "x^3-2": "4fd395e6e60b530be0c06ba3eaa49fd2d04bcdc054774f5b2286f0ace30922aa",
    "x^2-x-1": "566c40c71e1c22998a4df76593fa836ee1f9162e35ec6699760496c2d8a34a5f",
    "x^4-x-1": "028785641b5072da938836bc12dce648dd25e24e3c54e87da0b1f2244e5191a4",
    "3*x^2-5": "f1cf85bcfa271d142dfead3d1edc8f02ddfd0beb0dd95e954035693420d49a6b",
}


@pytest.mark.parametrize("text", sorted(GOLDEN))
def test_configuration_digest(built, text):
    cfg, _ = built(text)
    blob = dumps_canonical(config_to_json(cfg)).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[text]
