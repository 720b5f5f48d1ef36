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
    "x^2-2": "bf8b4abb4571dd5bec4970dcf9333b06cd565b7ba66856ba546e1d0efa14e43e",
    "x^3-2": "49c8b08fb778a4a947da799e1680e904264d2c86830fb01f13c4e7207bca627d",
    "x^2-x-1": "8bd00bfb31a43163813b62b071de0061069eed0f7fce2b600954b92ccc9434fa",
    "x^4-x-1": "6c8a46fa18e91eb197ee6c087fdb01c8bce7aac6c7b24509e97f0d1037148ccf",
    "3*x^2-5": "4eb2b03e41cbc212c53209fe5cd58626af569a7f2dbb3d8b931d2fdf236982ae",
    "x^5-x-1": "e62bff075abc93bdd8e5aca1665eba121c8cfb883495b56918e1bfd46497f531",
    "x^7-x-1": "5974f17140908b352268c00aae5558b94cf920e9e01bbed02f4b9d7f15980f21",
}

COVER_GOLDEN = {
    "x^2-2": "74ade949179840d7109cd7f51e9203269504f4a6349cdb52f732ddddf49bb898",
    "x^3-2": "b6d57796dd5b3ef46fc1ab2a3242edb78a13f1c29f77584c5732e509dc126fd4",
    "x^2-x-1": "1959cbe1fb816589a057eb0717237ab709d1a921f4d3cfa7c77bde4917d220dc",
    "x^4-x-1": "560705bbf11fed1c84dfc1f652deb6f57558d88c6ecd165cb568c1ce8072f18e",
    "3*x^2-5": "5cc27e08c390988817955c3d9b569973a0d3d21ab32464ca46c0dc0844687b4c",
    "x^5-x-1": "669339ef0f86aa3edb957f3300c15dfab8c39e8a94244d33cab4f421207fee12",
    "x^7-x-1": "6bfcfe66ccb871c8b98a4e14d99b55c63f80076f273ac8c92a085b5f3710c65b",
}


FILE_GOLDEN = {
    "x^2-2": "ec2d4e125b0203c85f8dfe36e6bf8e656e47eb2f6d73d82e81818fb399796ba8",
    "x^3-2": "c2d168dbe0de86d2211be1496fad7e177b06c34f0d171901e1d59c7eb1760ea7",
    "x^2-x-1": "57672107807c7eb6bad80e4deb80d78e4970677b5140dbc135e5e8134f0dcff6",
    "x^4-x-1": "fdb205d6233db5eaccb4b00117e13817cfd02bffb4b8907f42416b8d3d4efe9e",
    "3*x^2-5": "3eb2db24f47337c3995ca4e6d50acf17239f7b9fd6657a9017a4ed67f2fd4b23",
    "x^5-x-1": "db60f65c8383d5e069301b0920c07cb850e606b70a079bcc3ab70fed7ea1ed3b",
    "x^7-x-1": "33a7cd892dc60b8c66a7b4f616f6894034c90d28adf6875a1fbb7360b4cc3def",
}

# Integer constants share one chain of add gadgets: 3 = 2 + 1 by
# double-and-add, then 5 = 2 + 3 and 7 = 2 + 5 by one add each; 1000003 is a
# 20-bit double-and-add chain (L = 215).
CONSTANT_FILE_GOLDEN = {
    "3*x^3-5*x+7": "3d8635b733942681d89fd0c7d695f918f8d7efb5b93ae54ad20a754ebcee5c02",
    "x^3-1000003": "6c7962eacadc62d9ad7e3bb4cea756ddfa30a36bbcffd790aba520845cda50b5",
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
