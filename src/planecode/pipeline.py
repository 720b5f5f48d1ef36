"""End-to-end construction: polynomial in, finished configuration out."""

from __future__ import annotations

from .configuration import Configuration, amplify_marks, augment_even_valence
from .numberfield import IntPoly, NumberField
from .slp_compiler import compile_polynomial, emit_configuration


def run_pipeline(poly: IntPoly, seed: int = 0) -> Configuration:
    """Compile, emit gadgets, even out valences, amplify the marks.

    The field is created once, which proves the modulus irreducible once
    (NumberField.create), and both compile and emit use it.
    """
    field = NumberField.create(poly)
    slp = compile_polynomial(poly, check=False)
    cfg = emit_configuration(slp, seed=seed, field=field)
    cfg = augment_even_valence(cfg)
    return amplify_marks(cfg)
