"""End-to-end construction: polynomial in, finished configuration out."""

from __future__ import annotations

from .configuration import Configuration, amplify_marks, augment_even_valence
from .numberfield import IntPoly
from .slp_compiler import compile_polynomial, emit_configuration


def run_pipeline(poly: IntPoly, seed: int = 0) -> Configuration:
    """Compile, emit gadgets, even out valences, amplify the marks.

    emit_configuration creates the field, which proves the modulus
    irreducible once (NumberField.create).
    """
    cfg = emit_configuration(compile_polynomial(poly), seed=seed)
    cfg = augment_even_valence(cfg)
    return amplify_marks(cfg)
