import json
import os
import resource
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from planecode.cli import main
from planecode.decode import check_forcing, decode, separation_certificate
from planecode.errors import PolyParseError, SchemaError
from planecode.numberfield import IntPoly, parse_poly
from planecode.serialize import (
    CONFIG_SCHEMA_VERSION,
    certificate_to_json,
    config_from_json,
    config_to_json,
    dumps_canonical,
    format_certificate,
    loads,
)

from tests.test_golden import v1_json

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def cfg(built):
    return built("x^2-2")[0]


@pytest.fixture(scope="module")
def cfg_path(cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "c.json"
    path.write_text(dumps_canonical(config_to_json(cfg)), encoding="utf-8")
    return path


def assert_same_configuration(a, b):
    for name in ("field", "lines", "points", "incidence", "marks", "seed", "params_consumed"):
        assert getattr(a, name) == getattr(b, name), name


def test_round_trip_bit_exact(cfg):
    data = loads(dumps_canonical(config_to_json(cfg)))
    assert_same_configuration(config_from_json(data), cfg)


def test_rational_file_polynomial_reads_as_its_integer_multiple(cfg):
    # 3/2*x^2 - 3 is read as 2 times itself, 3*x^2 - 6, which defines the field of x^2 - 2;
    # the configuration's modulus is the field's, the primitive x^2 - 2, and is dumped so
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data["poly"] = [{"n": "-3", "d": "1"}, {"n": "0", "d": "2"}, {"n": "3", "d": "2"}]
    loaded = config_from_json(data)
    assert loaded.source == IntPoly.from_coeffs([-2, 0, 1])
    assert config_to_json(loaded)["poly"] == config_to_json(cfg)["poly"]
    assert loaded.field == cfg.field
    assert decode(loaded) == loaded.field.gen
    check_forcing(loaded)

def test_dumps_deterministic(cfg):
    a = dumps_canonical(config_to_json(cfg))
    b = dumps_canonical(config_to_json(cfg))
    assert a == b


def test_rationals_encoded_as_strings(cfg):
    data = config_to_json(cfg)
    sample = data["lines"][0][0][0]
    assert set(sample) == {"n", "d"}
    assert isinstance(sample["n"], str) and isinstance(sample["d"], str)


def test_schema_errors(cfg):
    good = config_to_json(cfg)
    assert sorted(good) == ["lines", "params_consumed", "poly", "seed", "v"]
    with pytest.raises(SchemaError):
        config_from_json({**good, "v": 99})
    with pytest.raises(SchemaError):
        config_from_json({k: v for k, v in good.items() if k != "lines"})
    with pytest.raises(SchemaError):
        loads("{not json")
    # malformed shapes: each one once gave a traceback or a silent accept
    for edit in (
        lambda d: d["lines"][0][0][0].update(d="0"),
        lambda d: d.update(lines={"0": d["lines"][0]}),
        lambda d: d["lines"][0].pop(),
        lambda d: d["lines"][0].append(d["lines"][0][0]),
        lambda d: d["lines"][0][0].pop(),
        lambda d: d.update(seed="zero"),
        lambda d: d.update(seed=float("inf")),  # JSON's Infinity
    ):
        with pytest.raises(SchemaError):
            config_from_json(_edited(good, edit))
    all_zero = json.loads(dumps_canonical(good))
    all_zero["lines"][0] = [[{"n": "0", "d": "1"}] * 2] * 3
    with pytest.raises(SchemaError, match="canonical"):
        config_from_json(all_zero)


def _edited(good, edit):
    data = json.loads(dumps_canonical(good))
    edit(data)
    return data


def test_certificate_json_shape():
    cert = separation_certificate(parse_poly("x^2-2"))
    data = certificate_to_json(cert)
    assert data["kind"] == "separation-certificate"
    assert data["pairwise_disjoint"] is True
    assert len(data["embeddings"]) == 2
    assert data["statement"].startswith("the incidences force P(z) = N(z)")
    text = format_certificate(cert)
    assert "pairwise disjoint: True" in text


# -- CLI ------------------------------------------------------------------------------

def test_cli_build_and_decode(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["build", "-p", "x^2-2", "-o", str(out)]) == 0
    assert main(["decode", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "decoded coefficients: (0, 1)" in printed
    assert "equals the field generator" in printed


def test_cli_galois_conjugate_decodes_the_other_root(cfg, tmp_path, capsys):
    # z -> -z on every line entry: the conjugate configuration has the same
    # incidences, so it is forced and has the same cover, but encodes -z
    def conjugate(data):
        for entries in data["lines"]:
            for entry in entries:
                entry[1]["n"] = str(-int(entry[1]["n"]))

    good = config_to_json(cfg)
    paths = {"c": tmp_path / "c.json", "conj": tmp_path / "conj.json"}
    paths["c"].write_text(dumps_canonical(good), encoding="utf-8")
    paths["conj"].write_text(dumps_canonical(_edited(good, conjugate)), encoding="utf-8")
    check_forcing(config_from_json(loads(paths["conj"].read_text(encoding="utf-8"))))
    assert main(["decode", str(paths["conj"])]) == 3
    out, err = capsys.readouterr()
    assert "decoded coefficients: (0, -1)" in out
    assert "does NOT equal the field generator" in err
    reports = []
    for key, path in paths.items():
        assert main(["cover", str(path), "-o", str(tmp_path / f"r-{key}.json")]) == 0
        reports.append((tmp_path / f"r-{key}.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_build_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["build", "-p", "x^2-x-1", "-o", str(a)])
    main(["build", "-p", "x^2-x-1", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_leading_minus_needs_the_attached_poly_form(tmp_path, capsys):
    # argparse takes "-x^2+2" after -p for an option; --poly=-x^2+2 is read as text
    with pytest.raises(SystemExit) as exc:
        main(["build", "-p", "-x^2+2"])
    assert exc.value.code == 2
    neg, pos = tmp_path / "neg.json", tmp_path / "pos.json"
    assert main(["build", "--poly=-x^2+2", "-o", str(neg)]) == 0
    assert main(["build", "-p", "x^2-2", "-o", str(pos)]) == 0
    assert neg.read_bytes() == pos.read_bytes()


def test_cli_builds_a_large_constant(tmp_path, capsys):
    # A valid cubic with a 13-digit constant (L = 412). With one general
    # line per odd point, its augment step needed 87 tries at one target,
    # more than the former budget of 64; joins now fix that point.
    out = tmp_path / "big.json"
    assert main(["build", "-p", "x^3-1000000000007", "-o", str(out)]) == 0
    assert main(["decode", str(out)]) == 0
    assert "decoded element equals the field generator" in capsys.readouterr().out


def test_cli_exit_codes(cfg_path, tmp_path):
    assert main(["build", "-p", "x^2-1", "-o", str(tmp_path / "x.json")]) == 3
    assert main(["build", "-p", "x+3", "-o", str(tmp_path / "x.json")]) == 3
    assert main(["build", "-p", "x^^", "-o", str(tmp_path / "x.json")]) == 2
    assert main(["decode", str(tmp_path / "missing.json")]) == 6
    # unreadable input files: a directory, and bytes that are not UTF-8
    assert main(["decode", str(tmp_path)]) == 6
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"v": 1, "poly": "\xe9"}')
    assert main(["decode", str(latin1)]) == 6
    # x^2-2 has two embeddings
    assert main(["render", str(cfg_path), "--embedding", "5"]) == 2


@pytest.mark.parametrize("text", ["x^2-\u0662", "x^\u0662-2"])
def test_cli_poly_with_a_digit_other_than_ascii_exits_2(tmp_path, capsys, text):
    # \d matched U+0662, ARABIC-INDIC DIGIT TWO, so both once read as x^2 - 2
    with pytest.raises(PolyParseError):
        parse_poly(text)
    out = tmp_path / "c.json"
    assert main(["build", "-p", text, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert not out.exists()


def test_cli_zero_polynomial_is_named(cfg, tmp_path, capsys):
    # the message once gave the degree of the zero polynomial, -1
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data["poly"] = [{"n": "0", "d": "1"}] * 3
    path = tmp_path / "zero.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    out = str(tmp_path / "z.json")
    for args in (
        ["build", "-p", "x^2-x^2", "-o", out], ["build", "-p", "0", "-o", out], ["decode", str(path)]
    ):
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "the polynomial is zero" in err and "-1" not in err, err

def test_cli_unproven_modulus_exits_3(cfg, tmp_path, capsys):
    # (x^2 + 1)(x^4 + x^2 + 1): once built and "decoded" over a ring that is
    # not a field, with exit 0; then refused as unproven; now refuted with a factor
    text = "x^6+2*x^4+2*x^2+1"
    assert main(["build", "-p", text, "-o", str(tmp_path / "u.json")]) == 3
    assert main(["certify", "-p", text, "-o", str(tmp_path / "cert.json")]) == 3
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data["poly"] = [{"n": str(c), "d": "1"} for c in (1, 0, 2, 0, 2, 0, 1)]
    path = tmp_path / "u.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 3
    assert "is reducible, factor" in capsys.readouterr().err


_ONE = {"n": "1", "d": "1"}
_ZERO = {"n": "0", "d": "1"}


@pytest.mark.parametrize(
    "poly, limit",
    [
        ([{"n": "-" + "9" * 4000, "d": "1"}, _ZERO, _ONE], "MAX_COEFF_DIGITS = 1000"),
        ([{"n": "-2", "d": "1"}] + [_ZERO] * 1999 + [_ONE], "MAX_DEGREE = 32"),
        # the lcm of the denominators, 10^600 * (10^600 - 1), is the leading coefficient
        (
            [{"n": "1", "d": "1" + "0" * 600}, {"n": "1", "d": "9" * 600}, _ONE],
            "MAX_COEFF_DIGITS = 1000",
        ),
    ],
    ids=["4000-digit-constant", "degree-2000", "1200-digit-denominator-lcm"],
)
def test_cli_file_poly_past_the_parse_bounds_exits_6(cfg, tmp_path, capsys, poly, limit):
    # the poly of a file is held to the bounds of parse_poly; unbounded, the
    # first ran past 30 s and the second took seconds before any check
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data["poly"] = poly
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    t0 = time.perf_counter()
    assert main(["decode", str(path)]) == 6
    assert time.perf_counter() - t0 < 5.0
    assert limit in capsys.readouterr().err


def test_cli_huge_coefficient_exits_2(tmp_path, capsys):
    # 5000 digits: int() alone would raise ValueError, a traceback
    assert main(["build", "-p", "x^2-" + "9" * 5000, "-o", str(tmp_path / "x.json")]) == 2
    assert "MAX_COEFF_DIGITS" in capsys.readouterr().err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("text", ["x^33-2", "x^1000000000-2"])
def test_cli_degree_above_limit_exits_2_at_once(text):
    # A child with 1 GiB of address space and a timeout: without the bound,
    # parsing x^1000000000-2 alone would ask for gigabytes.
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "planecode", "certify", "-p", text],
        capture_output=True, text=True, env=env, timeout=30, preexec_fn=_cap_address_space,
    )
    assert out.returncode == 2
    assert time.perf_counter() - t0 < 5.0
    assert "MAX_DEGREE = 32" in out.stderr


def test_cli_imports_no_numpy_or_scipy():
    code = "import planecode.cli, sys; print(sorted({'numpy','scipy'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_schema_error_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"v": 1}', encoding="utf-8")
    assert main(["decode", str(bad)]) == 6


def test_cli_tampered_line_deletion(cfg, tmp_path):
    data = config_to_json(cfg)
    # deleting two late amplification lines through the zero mark drops its
    # valence from M+8 to M+6, tying it with the one mark
    busiest = cfg.marks["zero"]
    for target in sorted(cfg.incidence[busiest])[-2:][::-1]:
        del data["lines"][target]
    path = tmp_path / "tampered.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 5


def test_cli_decode_handwritten_three_line_config(tmp_path):
    # a minimal hand-written file: three generic lines, so three points
    def rat(n, d=1):
        return {"n": str(n), "d": str(d)}

    def elem(a, b=0):
        return [rat(a), rat(b)]

    data = {
        "v": CONFIG_SCHEMA_VERSION,
        "poly": [rat(-2), rat(0), rat(1)],
        "seed": 0,
        "params_consumed": 0,
        "lines": [
            [elem(1), elem(0), elem(0)],   # x = 0
            [elem(0), elem(1), elem(0)],   # y = 0
            [elem(1), elem(1), elem(-1)],  # x + y = 1
        ],
    }
    path = tmp_path / "hand.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 5
    # 2x + 2y = 2 is the same line, but not in canonical form
    data["lines"][2] = [elem(2), elem(2), elem(-2)]
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6


def _duplicate_line(cfg, data):
    data["lines"].append(json.loads(json.dumps(data["lines"][5])))


def _scale_line(cfg, data):
    """Write one line as twice its canonical triple: the same line, not canonical."""
    for x in data["lines"][5]:
        for r in x:
            r["n"] = str(2 * int(r["n"]))


def _zero_line(cfg, data):
    data["lines"][5] = [[{"n": "0", "d": "1"}] * cfg.field.n] * 3


def _two_coordinate_line(cfg, data):
    data["lines"][5].pop()


def _zero_denominator(cfg, data):
    data["lines"][5][0][0]["d"] = "0"


def _float_numerator(cfg, data):
    """int() read -2.9 as -2, so this file loaded as x^2 - 2."""
    data["poly"][0] = {"n": -2.9, "d": 1}


def _boolean_denominator(cfg, data):
    data["lines"][5][0][0]["d"] = True


def _one_line(cfg, data):
    del data["lines"][1:]


def _v1_file(cfg, data):
    data.clear()
    data.update(v1_json(cfg))


@pytest.mark.parametrize(
    "forge",
    [
        _duplicate_line,
        _scale_line,
        _zero_line,
        _two_coordinate_line,
        _zero_denominator,
        _one_line,
        _v1_file,
    ],
)
def test_cli_malformed_lines_exit_6(cfg, tmp_path, forge):
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    forge(cfg, data)
    path = tmp_path / "forged.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 6


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.7), ("seed", True), ("seed", "3"), ("params_consumed", -5),
     ("params_consumed", 2.0), ("params_consumed", False)],
)
def test_cli_seed_and_cursor_must_be_json_integers(cfg, tmp_path, key, value):
    # int() once loaded 1.7 and true as 1 and kept -5; the seed picks the
    # add gadgets' heights, which the forcing check replays
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data[key] = value
    with pytest.raises(SchemaError, match="JSON integers"):
        config_from_json(data)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 6


@pytest.mark.parametrize("forge", [_float_numerator, _boolean_denominator])
def test_cli_float_or_boolean_rational_exits_6(cfg, tmp_path, capsys, forge):
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    forge(cfg, data)
    path = tmp_path / "forged.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    err = capsys.readouterr().err
    assert "bad rational" in err and "Traceback" not in err


@pytest.mark.parametrize("numeral", ["0_1", " 1 ", "\u0661", "+1\n", "1.0", ""])
def test_cli_numeral_other_than_a_sign_and_ascii_digits_exits_6(cfg, tmp_path, capsys, numeral):
    # int() reads each of the first four as 1, so this file would load as
    # the file with the leading coefficient "1"
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data["poly"][-1]["d"] = numeral
    path = tmp_path / "forged.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    err = capsys.readouterr().err
    assert "bad rational" in err and "Traceback" not in err


def test_json_integer_rationals_load_as_decimal_strings_do(cfg):
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    for r in data["poly"]:
        r["n"], r["d"] = int(r["n"]), int(r["d"])
    assert_same_configuration(config_from_json(data), cfg)


def test_cli_seed_past_the_int_digit_limit_exits_6(cfg, tmp_path, capsys):
    # json reads a 5000-digit number with int(), which refuses past 4300 digits
    text = dumps_canonical(config_to_json(cfg))
    path = tmp_path / "seed.json"
    path.write_text(text.replace('"seed": 0', '"seed": ' + "9" * 5000), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 6
    err = capsys.readouterr().err
    assert err.count("not valid JSON") == 2 and "Traceback" not in err


def test_cli_deeply_nested_json_exits_6(tmp_path, capsys):
    # json's decoder recurses once per bracket and raises RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


def test_cli_v1_file_asks_for_rebuild(cfg, tmp_path, capsys):
    path = tmp_path / "v1.json"
    path.write_text(dumps_canonical(v1_json(cfg)), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    assert "rebuild it with `planecode build`" in capsys.readouterr().err


def test_cli_v2_file_asks_for_rebuild(cfg, tmp_path, capsys):
    # a v2 file's seed stands for add heights on the integer grid; read with
    # today's heights, its table would not hold the lines y = h it names
    data = config_to_json(cfg)
    data["v"] = 2
    path = tmp_path / "v2.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["decode", str(path)]) == 6
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 6
    err = capsys.readouterr().err
    assert err.count("schema v2 configuration file") == 2
    assert err.count("rebuild it with `planecode build`") == 2


@pytest.fixture(scope="module")
def report_files(cfg_path, tmp_path_factory):
    """A certificate and a cover report, each a file with a "kind"."""
    out = tmp_path_factory.mktemp("reports")
    paths = {
        "separation-certificate": out / "cert.json",
        "cover-report": out / "report.json",
    }
    assert main(["certify", "-p", "x^2-2", "-o", str(paths["separation-certificate"])]) == 0
    assert main(["cover", str(cfg_path), "-o", str(paths["cover-report"])]) == 0
    return paths


@pytest.mark.parametrize("kind", ["separation-certificate", "cover-report"])
def test_cli_report_file_is_named_not_a_configuration(report_files, kind, tmp_path, capsys):
    path = report_files[kind]
    assert json.loads(path.read_text())["kind"] == kind
    capsys.readouterr()
    for argv in (
        ["decode", str(path)],
        ["cover", str(path), "-o", str(tmp_path / "r.json")],
        ["render", str(path), "-o", str(tmp_path / "pic.svg")],
    ):
        assert main(argv) == 6
        err = capsys.readouterr().err
        assert f"this is a {kind} file, not a configuration" in err
        assert "rebuild" not in err


def test_cli_perturbed_line_is_another_configuration(cfg, tmp_path, capsys):
    """Doubling one line coefficient gives a new, loadable set of lines.

    The file carries no incidences to contradict, so it loads; the moved
    line leaves odd valences behind, which decode and cover both refuse.
    """
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    for entry in data["lines"]:
        lead = next(k for k, x in enumerate(entry) if any(r["n"] != "0" for r in x))
        rest = [x for x in entry[lead + 1:] if any(r["n"] != "0" for r in x)]
        if rest:
            for r in rest[0]:
                r["n"] = str(2 * int(r["n"]))
            break
    path = tmp_path / "perturbed.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert config_from_json(data).line_count == cfg.line_count
    capsys.readouterr()
    assert main(["decode", str(path)]) == 3
    assert "equals the field generator" not in capsys.readouterr().out
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 3


def test_cli_cover_report(cfg_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["cover", str(cfg_path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "cover-report" and data["v"] == 2
    assert data["parity"] == "all-even"
    assert len(data["M"]) == 8
    classes = len(data["valence_classes"])
    assert all(len(c["b"]) == classes for c in [*data["D"].values(), *data["M"].values()])
    certified = [k for k, v in data["ampleness"].items() if v["certified"]]
    assert sorted(certified) == ["100", "101", "110", "111"]
    assert data["nef_gap"]["characters"] == ["001", "010", "011"]


def test_cli_certify_writes_json(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "-p", "x^2-2", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["equals_generator"] is True


def test_cli_render_valid_svg(cfg, cfg_path, tmp_path):
    out = tmp_path / "pic.svg"
    assert main(["render", str(cfg_path), "-o", str(out)]) == 0
    text = out.read_text()
    ET.fromstring(text)
    # a real embedding draws every line but the line at infinity; the inf
    # mark sits at infinity, so only the three finite marks get labels
    assert text.count("<line") == cfg.line_count - 1
    assert text.count("<text") == 3


def test_cli_render_complex_embedding_warns(tmp_path, capsys):
    cfg_out = tmp_path / "c3.json"
    main(["build", "-p", "x^3-2", "-o", str(cfg_out)])
    out = tmp_path / "pic.svg"
    # embedding 0 of x^3 - 2 is a complex root (sorted by real part)
    assert main(["render", str(cfg_out), "--embedding", "0", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "complex" in err
    ET.fromstring(out.read_text())


def test_cli_render_coefficient_too_large_for_a_float(tmp_path, capsys):
    """x^2 + 10^400*x + 1 defines a field, but a root of it exceeds every float.

    The file holds the four seed lines y = 0, x = 0, the line at infinity
    and x + y = 1. decode judges their valences; render cannot place a root
    and exits 3 with one error line instead of a traceback.
    """
    big = "1" + "0" * 400

    def rational(q):
        return [{"n": str(q), "d": "1"}, {"n": "0", "d": "1"}]

    data = {
        "v": CONFIG_SCHEMA_VERSION,
        "poly": [{"n": n, "d": "1"} for n in ("1", big, "1")],
        "seed": 0,
        "params_consumed": 0,
        "lines": [[rational(q) for q in l] for l in ((0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, -1))],
    }
    path = tmp_path / "big.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 5
    capsys.readouterr()
    assert main(["render", str(path), "-o", str(tmp_path / "pic.svg")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "pic.svg").exists()
