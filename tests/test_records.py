"""Records are plain classes: value semantics, and light import paths.

A point is the one record without a hash: it keeps any triple of it, and
two points are equal when their triples are proportional.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from planecode.decode import SeparationCertificate
from planecode.numberfield import IntPoly, NFElement, NumberField, parse_poly
from planecode.projgeom import ProjPoint, line, point
from planecode.slp_compiler import ADD, LOAD_Z, MUL, ONE
from tests.conftest import SRC


def _loaded(module: str) -> set[str]:
    """The modules in sys.modules after a fresh interpreter imports module."""
    probe = f"import sys, {module}; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def _planecode_modules(module: str) -> set[str]:
    return {m.removeprefix("planecode.") for m in _loaded(module) if m.startswith("planecode.")}


def test_cli_import_leaves_out_dataclasses_inspect_and_render():
    assert not {"dataclasses", "inspect", "planecode.render"} & _loaded("planecode.cli")


def test_package_import_loads_no_module():
    assert _planecode_modules("planecode") == set()


def test_module_imports_load_only_what_they_run():
    assert _planecode_modules("planecode.numberfield") == {"_ffpoly", "errors", "numberfield"}
    assert not {"decode", "pipeline", "slp_compiler"} & _planecode_modules("planecode.serialize")


def test_cli_import_loads_every_module_but_render():
    # perfbench/tracer.py probes names bound on cli, so cli imports every
    # command's modules at start; render alone is imported by its command
    modules = {p.stem for p in (SRC / "planecode").glob("*.py")}
    assert _planecode_modules("planecode.cli") == modules - {"__init__", "__main__", "render"}


@pytest.fixture(scope="module")
def k():
    return NumberField.create(parse_poly("x^2-2"))


def _values(k):
    """Pairs of equal values built separately, one pair per hashed record type."""
    half = Fraction(1, 2)
    return [
        (IntPoly.from_coeffs([-2, 0, 1]), parse_poly("x^2-2")),
        (line(k, 1, 2, 3), line(k, 2, 4, 6)),
    ]


def test_equal_values_are_equal_with_equal_hashes(k):
    for a, b in _values(k):
        assert a is not b
        assert a == b and not a != b, type(a).__name__
        assert hash(a) == hash(b), type(a).__name__
        assert len({a, b}) == 1


def test_hash_is_the_hash_of_the_field_tuple(k):
    p = IntPoly.from_coeffs([-2, 0, 1])
    assert hash(p) == hash((p.coeffs,))
    l = line(k, 1, 2, 3)
    assert hash(l) == hash((l.coeffs,))
    assert hash(k) == hash((k.source,))


def test_a_point_is_unhashable_with_projective_equality(k):
    a = point(k, Fraction(1, 2), k.gen)
    b = point(k, 1, k.from_rational(2) * k.gen, 2)
    assert a is not b and a.coords != b.coords
    assert a == b and not a != b
    assert ProjPoint.__hash__ is None
    with pytest.raises(TypeError):
        hash(a)


def test_different_values_differ(k):
    assert IntPoly.from_coeffs([1, 1]) != IntPoly.from_coeffs([1, 2])
    assert point(k, 0, 0) != point(k, 1, 0)
    assert line(k, 1, 0, 0) != line(k, 0, 1, 0)
    assert (ADD, 0, 1) != (ADD, 1, 0)


def test_instructions_of_different_kinds_differ():
    assert len({LOAD_Z, ONE, ADD, MUL}) == 4
    assert (ADD, 0, 1) != (MUL, 0, 1)
    assert (LOAD_Z,) != (ONE,)


def test_records_never_equal_other_types(k):
    assert IntPoly.from_coeffs([1]) != (Fraction(1),)
    assert point(k, 0, 0) != line(k, 0, 0, 1)


def test_hashed_records_are_immutable(k):
    records = [a for a, _ in _values(k)] + [point(k, 0, 0)]
    for a, name in zip(records, ("coeffs", "coeffs", "coords")):
        for attr in filter(None, (name, "extra")):
            with pytest.raises(AttributeError):
                setattr(a, attr, None)


def test_records_store_each_fact_once(k):
    # a residue is computed on each read: only the constructor writes an element
    assert NFElement.__slots__ == ("field", "nums", "den")
    e = k.gen + k.from_rational(3)
    r = e.residue
    assert r is not None and e.residue == r
    # separation_certificate raises instead of recording a false claim
    constant = {"decoded", "equals_generator", "pairwise_disjoint"}
    assert not constant & set(SeparationCertificate.__slots__)
    assert SeparationCertificate.statement.startswith("the incidences force P(z) = N(z)")


def test_fields_from_one_polynomial_are_equal():
    a = NumberField.create(parse_poly("x^3-2"))
    for text in ("x^3-2", "2*x^3-4"):
        b = NumberField.create(parse_poly(text))
        assert a is not b
        assert a == b and hash(a) == hash(b)
    assert a != NumberField.create(parse_poly("x^3-3"))
    with pytest.raises(AttributeError):
        a.source = parse_poly("x^3-3")
    # the cached properties still work on an immutable field
    assert a.n == 3 and a.reduction == (1, ((0, -2),))
