"""Minimal models of the equivariant loop spaces and their cohomology rings.

Each circle quotient has a three-generator model u2, u_mid, u_top with a
single relation-producing differential d(u_top) = u2^a.  Its cohomology is
the truncated polynomial ring Q[w, z]/(w^a); the script computes the Betti
tables by exact linear algebra and then verifies the ring presentation.
"""

from loopspace import SpaceFormSpec, cohomology, theorem3_model, verify_ring_presentation
from loopspace.gca import RingPresentation
from loopspace.dsl import model_text


def presentation_for(n: int) -> RingPresentation:
    if n % 2 == 0:
        k = n // 2
        return RingPresentation(2, 4 * k - 2, 2 * k)
    k = (n - 1) // 2
    return RingPresentation(2, 2 * k, k + 1)


def main():
    for n in (2, 4, 5, 7):
        spec = SpaceFormSpec(n, 2, 2)
        model = theorem3_model(spec)
        print(model_text(model))

        table = cohomology(model, 20)
        print("degree:", " ".join(f"{d:>2}" for d in range(len(table.dims))))
        print("dim:   ", " ".join(f"{v:>2}" for v in table.dims))

        pres = presentation_for(n)
        outcome = verify_ring_presentation(model, pres, 20)
        w = outcome.w.model.format_element(outcome.w)
        z = outcome.z.model.format_element(outcome.z)
        print(
            f"ring: Q[w,z]/(w^{pres.nilpotency}) with deg z = {pres.deg_z};"
            f" verified = {outcome.passed} (w = {w}, z = {z})"
        )
        print("-" * 60)


if __name__ == "__main__":
    main()
