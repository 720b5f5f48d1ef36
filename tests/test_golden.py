"""Golden digests of the canonical configuration and cover-report JSON, mostly at seed 0.

x^5-x-1 and x^7-x-1 pin degree >= 5, where inversion in K is dearest.
Performance work must leave these bytes unchanged. A change that alters
them on purpose updates the table and says why: they last moved when the
marks came to be named by a rigid type instead of a valence ladder, and
every product came to draw on one anchor.

A configuration file stores its lines and the rows of its marks (schema
v4), and loading derives the multiple points and incidences and resolves
the marks. GOLDEN holds the digests of the former v1 encoding, which also
wrote every point, simple crossings too, with its row: each v4 file, once
loaded, must re-encode to them through v1_json below, which lists the
points with configuration.all_points. So the derivation at load is pinned
point for point, row for row, in the builder's order. v1 wrote each point
in canonical form, and a point now keeps any triple of it, so v1_json
scales each point to its canonical triple. FILE_GOLDEN pins the v4 files
themselves.
"""

import hashlib

import pytest

from planecode.configuration import all_points
from planecode.cover import build_cover_report
from planecode.numberfield import isolate_roots, parse_poly
from planecode.pipeline import run_pipeline
from planecode.render import render_svg
from planecode.serialize import (
    config_from_json,
    config_to_json,
    cover_report_to_json,
    dumps_canonical,
    loads,
    nf_to_json,
    poly_to_json,
)
from tests.conftest import canonical


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
        "points": [[nf_to_json(x) for x in canonical(p.coords)] for p, _ in points],
        "incidence": [list(rows) for _, rows in points],
        "marks": {label: index[c.incidence[i]] for label, i in c.marks.items()},
    }


GOLDEN = {
    "x^2-2": "5a35d8b55eb7ad484293a3d0f8fb5202fb4747b313ffdc1ca2fd96190414a45c",
    "x^3-2": "9b5d81ed29c3e3c488d31dab06e930585e86d81b53afab3e4243bf211f7405a0",
    "x^2-x-1": "fb2cbabaec782f7781bb2fd211343014aaa9e52eddec6be43311c7eb9271673b",
    "x^4-x-1": "7e2ba8c1e215d805072b36f93d727acf26881664a8ccc347778c2ceb07b98aa5",
    "3*x^2-5": "4c5602b2b56b867e66b6425bd366c99fa97b74b94b31446032b283cbe266ed1d",
    "x^5-x-1": "b2c8902cd930e380d4df9020c40073d8d3639b643694f54a6ceebc5ceaa919b2",
    "x^7-x-1": "7e931de68cab49177a30153a454927ff60df325d578e94a1d692e1cf2a27a359",
}

COVER_GOLDEN = {
    "x^2-2": "d980da6d2e63593874a7a8f948c33015b82d942c1b9176a379233a6ed79a9d3c",
    "x^3-2": "5073857f987683c14bc0a71a3397a82c5550d110b3a95887163033d1dfaf2c4d",
    "x^2-x-1": "6a8ad7a094ce23e49d26801b378d070f6d9a939a5273d54f732960130ca9e917",
    "x^4-x-1": "e64127c25d6735fbe125ffb87172e836505756c721f642e958b4536191464a71",
    "3*x^2-5": "e447f23a801fe126315d6f9ae1ee38a844da3def58bb34ccf6ee296e187b4d58",
    "x^5-x-1": "7358f3e5813e8c0a69c13a2c649bf983c44830e72afee313d8e3404c9048e1a9",
    "x^7-x-1": "837676817c5d30908811e70b4f4b4f533e45f5579993fd75f721585c0b8b01ac",
    # constant chains (see CONSTANT_FILE_GOLDEN); the x^3-1000003 report lists
    # its 11,317 points by valence class (see COVER_BYTES_AT_MOST)
    "3*x^3-5*x+7": "53c383a8a97cfc65d46ba89cd222af086c2628ffd994f2a55572c4dce936e8a1",
    "x^3-1000003": "9b35cd985f987674a2025c22a7e71c6b517c56959c207a58fbc611a0e9142498",
}


FILE_GOLDEN = {
    "x^2-2": "a86647658d183c467137b815ab148bcd9c6374ae0a826f98fb0a080bbab262ac",
    "x^3-2": "6a93dd99e178866878c7edf81a4b1d7e46969003e884d1d2ba13f251facbe7a3",
    "x^2-x-1": "b1acde3fc066c541fe31edb6b929a9e892121d8bdd366bba51718e82ac3d18b8",
    "x^4-x-1": "cf436f19905445c6574f7347257678d27b9bb93440f259f9f6365c771cc17f20",
    "3*x^2-5": "14a9060468c9d6e2dff999ae8f488c6386115921f82a80f5a7e998e4856c6726",
    "x^5-x-1": "4d832365fcba2c0797454cdb12f2f3052f6d153b43747d03985315c10e26264e",
    "x^7-x-1": "85bab8905a388a52bb521d2acdcfcb8c34a2312293faa9d3731ef8544a91eade",
}

# The seed sets the add heights and the general lines' parameters.
SEED_FILE_GOLDEN = {
    ("x^5-x-1", 3): "9dd2fe1a51b6e934b56a89ddfaded4d1ec2965ed6cfdbd03fce7eca90c67c08b",
    ("x^5-x-1", -3): "e26e9fc351213d2d070c8b3cbd557a9706351e8e0e1b895a5ef8050adde80da0",
    ("x^7-x-1", 3): "08bace0005a545c4db57b0c9b2051f7061ac05782435928c7adefac6fba09624",
    ("x^7-x-1", -3): "6e30b1cfd97698e90dd80b5d00148a98881ee132757b08556847cb3f65312a19",
}

# Integer constants share one chain of add gadgets: 3 = 2 + 1 by
# double-and-add, then 5 = 2 + 3 and 7 = 2 + 5 by one add each; 1000003 is a
# 20-bit double-and-add chain (L = 159), 1000000000007 a 40-bit one (L = 303,
# 227 stored points).
CONSTANT_FILE_GOLDEN = {
    "3*x^3-5*x+7": "5f05cfd8625bb1c82fc0b2d68d403974c156a83edd1c5c9f252fa8c5ec3473c2",
    "x^3-1000003": "0e7b9d10b02d243a0dff40100e4690c75243e3546a3edf159dceb1d800256137",
    "x^3-1000000000007": "d204b1b101bd3b30187c249a0f50df697526203bb8d627a0c4315f26bc23bb0f",
}

# SVG of a loaded file under one embedding, as the render command draws it.
# These three pictures change in their last digits when render draws the
# points from the triples they keep, not from their canonical triples.
SVG_GOLDEN = {
    ("x^3-2", 0, 2): "7a5fcffe5d7d600935b6b4bb0a9e6b128d033a756a3e359bcc41bdf726245c26",
    ("x^3-2", 3, 2): "da0c5c23a419dce354256e891f4520deed51063010617d5947b724784e81980c",
    ("x^5-x-1", 3, 4): "ee230f47f407b3e16341dbc1439aef838fb20f6d01f1fc2953fcc5a9524c19bc",
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


@pytest.mark.parametrize("text, seed", sorted(SEED_FILE_GOLDEN))
def test_configuration_file_digest_at_other_seeds(text, seed):
    cfg = run_pipeline(parse_poly(text), seed=seed)
    assert _sha256(dumps_canonical(config_to_json(cfg))) == SEED_FILE_GOLDEN[text, seed]


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


@pytest.mark.parametrize("text, seed, embedding", sorted(SVG_GOLDEN))
def test_svg_digest(built, text, seed, embedding):
    cfg = built(text)[0] if seed == 0 else run_pipeline(parse_poly(text), seed=seed)
    loaded = config_from_json(loads(dumps_canonical(config_to_json(cfg))))
    svg, _ = render_svg(loaded, isolate_roots(loaded.source), embedding)
    assert _sha256(svg) == SVG_GOLDEN[text, seed, embedding]
