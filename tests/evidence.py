"""Re-derivation of Galois-probe evidence from scratch, for tests.

Re-factors the irreducibility witness, recomputes the discriminant by both
the probe's fraction-free route and the CRT route of `crt`, re-derives each
recorded pattern at its first prime by the gcd route of
`probe.factor_degrees_mod_p` (independent of the trace batch), replays the
sampling and the conclusion, and compares field by field.
"""

from heartproof import gfpoly
from heartproof.probe import (
    GaloisEvidence,
    classify_galois,
    discriminant,
    factor_degrees_mod_p,
    is_perfect_square,
)

from crt import discriminant_crt


def verify_evidence(ev: GaloisEvidence) -> bool:
    f = ev.poly
    if ev.irreducible_witness is not None:
        fp = gfpoly.monic(f.reduce_mod(ev.irreducible_witness), ev.irreducible_witness)
        if not gfpoly.is_irreducible(fp, ev.irreducible_witness):
            return False
    d1 = discriminant(f)
    if d1 != discriminant_crt(f) or d1 != ev.disc:
        return False
    if is_perfect_square(d1) != ev.disc_is_square:
        return False
    for pattern, p in ev.cycle_types:
        if tuple(factor_degrees_mod_p(f, p, d1)) != pattern:
            return False
    fresh = classify_galois(f, ev.budget)
    return (
        fresh.conclusion == ev.conclusion
        and fresh.conclusion_tag == ev.conclusion_tag
        and fresh.cycle_types == ev.cycle_types
        and fresh.irreducible_witness == ev.irreducible_witness
    )
