import json
import os
import resource
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from planecode import parse_poly, separation_certificate
from planecode.cli import main
from planecode.errors import MissedIntersection, SchemaError
from planecode.serialize import (
    certificate_to_json,
    config_from_json,
    config_to_json,
    dumps_canonical,
    format_certificate,
    loads,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def cfg(built):
    return built("x^2-2")[0]


@pytest.fixture(scope="module")
def cfg_path(cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "c.json"
    path.write_text(dumps_canonical(config_to_json(cfg)), encoding="utf-8")
    return path


def test_round_trip_bit_exact(cfg):
    data = loads(dumps_canonical(config_to_json(cfg)))
    again = config_from_json(data)
    assert again == cfg


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
    with pytest.raises(SchemaError):
        config_from_json({**good, "v": 99})
    with pytest.raises(SchemaError):
        config_from_json({k: v for k, v in good.items() if k != "points"})
    broken = json.loads(dumps_canonical(good))
    broken["incidence"][0] = [10**6]
    with pytest.raises(SchemaError):
        config_from_json(broken)
    with pytest.raises(SchemaError):
        loads("{not json")
    # malformed shapes: each one once gave a traceback or a silent accept
    for edit in (
        lambda d: d["lines"][0][0][0].update(d="0"),
        lambda d: d.update(marks=[0, 1, 2, 3]),
        lambda d: d["points"][0].pop(),
        lambda d: d["lines"][0].append(d["lines"][0][0]),
    ):
        with pytest.raises(SchemaError):
            config_from_json(_edited(good, edit))
    all_zero = json.loads(dumps_canonical(good))
    all_zero["points"][0] = [[{"n": "0", "d": "1"}] * 2] * 3
    with pytest.raises(MissedIntersection, match="canonical"):
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


def test_cli_build_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["build", "-p", "x^2-x-1", "-o", str(a)])
    main(["build", "-p", "x^2-x-1", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


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
    # nan would make every radius check pass vacuously
    for bad in ("nan", "inf", "0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "-p", "x^2-2", "--precision", bad])
        assert exc.value.code == 2


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


def _delete_line(data, index):
    """Remove one line from a serialized configuration, renumbering incidences."""
    out = json.loads(json.dumps(data))
    del out["lines"][index]
    out["incidence"] = [
        [j - 1 if j > index else j for j in rows if j != index]
        for rows in out["incidence"]
    ]
    return out


def test_cli_tampered_line_deletion(cfg, tmp_path):
    data = config_to_json(cfg)
    # deleting two late amplification lines through the zero mark drops its
    # valence from M+8 to M+6, tying it with the one mark
    busiest = cfg.marks["zero"]
    targets = sorted(cfg.incidence[busiest])[-2:]
    tampered = _delete_line(_delete_line(data, targets[1]), targets[0])
    path = tmp_path / "tampered.json"
    path.write_text(dumps_canonical(tampered), encoding="utf-8")
    assert main(["decode", str(path)]) == 5


def test_cli_tampered_point_deletion(cfg, tmp_path):
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    victim = max(
        i for i in range(len(data["points"])) if i not in set(cfg.marks.values())
    )
    del data["points"][victim]
    del data["incidence"][victim]
    path = tmp_path / "lost_point.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 6


def test_cli_decode_handwritten_three_line_config(tmp_path):
    # a minimal hand-written file: three generic lines, three points
    def rat(n, d=1):
        return {"n": str(n), "d": str(d)}

    def elem(a, b=0):
        return [rat(a), rat(b)]

    data = {
        "v": 1,
        "poly": [rat(-2), rat(0), rat(1)],
        "seed": 0,
        "params_consumed": 0,
        "lines": [
            [elem(1), elem(0), elem(0)],   # x = 0
            [elem(0), elem(1), elem(0)],   # y = 0
            [elem(1), elem(1), elem(-1)],  # x + y = 1
        ],
        "points": [
            [elem(0), elem(0), elem(1)],
            [elem(0), elem(1), elem(1)],
            [elem(1), elem(0), elem(1)],
        ],
        "incidence": [[0, 1], [0, 2], [1, 2]],
        "marks": {},
    }
    path = tmp_path / "hand.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 5
    # (0:1:0) and (1:0:0) are the directions of the axes, not on x + y = 1
    data["points"][1:] = [[elem(0), elem(1), elem(0)], [elem(1), elem(0), elem(0)]]
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6


def _forge_extra_incidence(cfg, data):
    """Add line 0 to the row of the first non-mark point not on it."""
    marks = set(cfg.marks.values())
    q = next(i for i, rows in enumerate(data["incidence"]) if i not in marks and 0 not in rows)
    data["incidence"][q] = sorted(data["incidence"][q] + [0])


def _double_line_coefficient(cfg, data):
    """Double the first nonzero coefficient after the leading one of some line."""
    for entry in data["lines"]:
        lead = next(k for k, x in enumerate(entry) if any(r["n"] != "0" for r in x))
        for x in entry[lead + 1:]:
            if any(r["n"] != "0" for r in x):
                for r in x:
                    r["n"] = str(2 * int(r["n"]))
                return
    raise AssertionError("no line has a nonzero non-leading coefficient")


def _drop_row_index(cfg, data):
    """Forget one line of one non-mark point's row."""
    marks = set(cfg.marks.values())
    q = next(i for i in range(len(data["incidence"])) if i not in marks)
    data["incidence"][q].pop()


def _append_point_on_no_line(cfg, data):
    """Append the point (1 : 12345 : 67891) with an empty incidence row."""
    zeros = [{"n": "0", "d": "1"}] * (cfg.field.n - 1)
    data["points"].append([[{"n": str(v), "d": "1"}] + zeros for v in (1, 12345, 67891)])
    data["incidence"].append([])


@pytest.mark.parametrize(
    "forge",
    [_forge_extra_incidence, _double_line_coefficient, _drop_row_index, _append_point_on_no_line],
)
def test_cli_forged_incidences_exit_6(cfg, tmp_path, forge):
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    forge(cfg, data)
    path = tmp_path / "forged.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    assert main(["decode", str(path)]) == 6
    assert main(["cover", str(path), "-o", str(tmp_path / "r.json")]) == 6


def test_cli_cover_report(cfg_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["cover", str(cfg_path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "cover-report"
    assert data["parity"] == "all-even"
    assert len(data["M"]) == 8
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
    # a real embedding draws every line; the inf mark sits at infinity, so
    # only the three finite marks get labels
    assert text.count("<line") == cfg.line_count
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
