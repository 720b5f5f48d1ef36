"""planecode: algebraic numbers as point-line configurations.

Pipeline: compile the minimal polynomial into a straight-line program,
realize every instruction as a small line gadget over K = Q[x]/(p), even
out the valences, amplify the four marks 0, 1, inf, z to the top of the
valence ladder, and recover the number as the cross-ratio of the four
busiest points. Embeddings of K certify that Galois conjugates decode to
provably different values, and the cover module does the (Z/2)^3
branched-cover divisor bookkeeping on the blown-up plane.
"""

from .configuration import (
    Configuration,
    ParamStream,
    amplify_marks,
    augment_even_valence,
    derive_points,
    valences,
)
from .cover import (
    ALPHA,
    CoverReport,
    ample_certificate,
    build_cover_report,
    check_cover_hypotheses,
    group_elements,
    pairing,
    select_m,
)
from .decode import SeparationCertificate, check_forcing, decode, separation_certificate
from .numberfield import (
    Disc,
    IntPoly,
    NFElement,
    NumberField,
    check_irreducible,
    embed,
    isolate_roots,
    parse_poly,
)
from .pipeline import run_pipeline
from .projgeom import (
    ProjLine,
    ProjPoint,
    collinear,
    cross_ratio,
    incident,
    join,
    line,
    meet,
    point,
    transform,
)
from .slp_compiler import (
    SLP,
    compile_polynomial,
    emit_configuration,
    register_point,
)

__version__ = "0.1.0"
