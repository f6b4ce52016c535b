"""Circle-bundle rank bookkeeping: base and total cohomology must satisfy

    dim H^p(E) = dim coker(e: H^(p-2) -> H^p) + dim ker(e: H^(p-1) -> H^(p+1))

where e is cup product with the Euler class.  Two demonstrations: the Hopf
bundles S^(2k+1) -> CP^k, and the loop-space circle fibrations where the
base is a quotient minimal model and the Euler class is u2.
"""

from fractions import Fraction

from loopspace import SpaceFormSpec, gysin_check
from loopspace.gca import BettiTable
from loopspace.spaceforms import GysinInput, circle_quotient_gysin_input


def hopf_bundle_input(k: int) -> GysinInput:
    top = 2 * k + 1
    K = top + 2
    base = BettiTable.from_dims([1 if d % 2 == 0 and d <= 2 * k else 0 for d in range(K + 1)])
    # cup product with the hyperplane class is an isomorphism below the top
    euler = tuple(
        ((Fraction(1),),) if p % 2 == 0 and p + 2 <= 2 * k else None for p in range(K - 1)
    )
    total = BettiTable.from_dims([1 if d in (0, top) else 0 for d in range(K + 1)])
    return GysinInput(base, euler, total)


def main():
    for k in range(1, 6):
        outcome = gysin_check(hopf_bundle_input(k))
        print(f"S^{2 * k + 1} over CP^{k}: {'pass' if outcome.passed else 'FAIL'}")

    print()
    for n in (2, 3, 5, 6):
        inputs = circle_quotient_gysin_input(SpaceFormSpec(n, 2, 2), 18)
        outcome = gysin_check(inputs)
        print(f"loop-space fibration over the n={n} quotient: "
              f"{'pass' if outcome.passed else 'FAIL'}; forced totals {inputs.total.dims[:10]}...")


if __name__ == "__main__":
    main()
