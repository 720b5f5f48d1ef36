"""planecode: algebraic numbers as point-line configurations.

Pipeline: compile the minimal polynomial into a straight-line program,
realize every instruction as a small line gadget over K = Q[x]/(p), even
out the valences, prove by colour refinement that the combinatorial type
has no automorphism, so that the four marks 0, 1, inf, z are facts of it,
and recover the number as the cross-ratio of the marks. Embeddings of K
certify that Galois conjugates decode to provably different values, and
the cover module does the (Z/2)^3 branched-cover divisor bookkeeping on
the blown-up plane.

Import each name from the module that defines it: importing the package
itself loads none of its modules.
"""
