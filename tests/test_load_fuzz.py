"""Random mutations of a configuration file never crash `decode` or `cover`.

Each example edits the lines, the seed or the stream cursor of the x^2-2
configuration file (schema v2) and runs both commands through `cli.main`:
every outcome must be one of the documented exit codes, never an exception.
An edited line is a different configuration, whose points load derives
anew. The polynomial is left alone; it is held to the bounds of parse_poly,
which test_serialize_cli checks.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode.cli import main
from planecode.serialize import config_to_json, dumps_canonical

DOCUMENTED = {0, 3, 5, 6}

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**6),
    st.floats(),  # json writes inf and nan as Infinity and NaN, and reads them back
    st.text(max_size=3),
    st.lists(st.integers(-2, 70), max_size=4),
    st.dictionaries(st.sampled_from(["n", "d", "zero", "x"]), st.integers(-2, 5), max_size=2),
)


@pytest.fixture(scope="module")
def good(built):
    return json.loads(dumps_canonical(config_to_json(built("x^2-2")[0])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _pick(draw, node):
    """A random index or key of a nonempty list or dict."""
    return draw(st.sampled_from(list(range(len(node))) if isinstance(node, list) else sorted(node)))


def _edit_value(draw, data):
    """Change one rational of one line, or the seed or the stream cursor."""
    key = draw(st.sampled_from(["lines", "lines", "seed", "params_consumed"]))
    if key != "lines":
        data[key] = draw(st.integers(-2, 10**6))
        return
    entry = data["lines"][_pick(draw, data["lines"])]
    coord = entry[draw(st.integers(0, 2))]
    rational = coord[draw(st.integers(0, len(coord) - 1))]
    rational[draw(st.sampled_from(["n", "d"]))] = str(draw(st.integers(-3, 3)))


def _edit_shape(draw, data):
    """Delete, duplicate or replace by junk one node at a random depth."""
    parent, slot = data, draw(st.sampled_from(["lines", "lines", "seed", "v"]))
    while isinstance(parent[slot], (list, dict)) and parent[slot] and draw(st.booleans()):
        parent, slot = parent[slot], _pick(draw, parent[slot])
    kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if kind == "delete":
        del parent[slot]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(slot, json.loads(json.dumps(parent[slot])))
    else:
        parent[slot] = draw(JUNK)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_mutated_configuration_gives_documented_exit(good, workdir, data):
    mutated = json.loads(json.dumps(good))
    # value edits keep the shape intact, so they go first; a shape edit last
    values = data.draw(st.integers(0, 2))
    for _ in range(values):
        _edit_value(data.draw, mutated)
    if values == 0 or data.draw(st.booleans()):
        _edit_shape(data.draw, mutated)
    path = workdir / "mutated.json"
    path.write_text(json.dumps(mutated), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = (
            main(["decode", str(path)]),
            main(["cover", str(path), "-o", str(workdir / "report.json")]),
        )
    assert set(codes) <= DOCUMENTED, codes
