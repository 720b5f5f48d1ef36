"""End-to-end construction: polynomial in, finished configuration out."""

from __future__ import annotations

from .configuration import Configuration, augment_even_valence
# Bound as amplify_marks only for the planecode.pipeline.amplify_marks probe of
# perfbench/tracer.py, which reads the final configuration from the last stage.
from .configuration import name_marks as amplify_marks
from .numberfield import IntPoly
from .slp_compiler import compile_polynomial, emit_configuration


def run_pipeline(poly: IntPoly, seed: int = 0) -> Configuration:
    """Compile, emit gadgets, even out valences, prove the type rigid.

    emit_configuration creates the field, which proves the modulus
    irreducible once (NumberField.create).
    """
    cfg = emit_configuration(compile_polynomial(poly), seed=seed)
    cfg = augment_even_valence(cfg)
    return amplify_marks(cfg)
