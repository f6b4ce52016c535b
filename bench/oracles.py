"""Independent oracles for the benchmark's answers.

Nothing here imports loopspace: every expected value comes from a closed
form in the paper or from a plain scan, so a defect in the code under test
cannot also hide in the oracle.

* Betti numbers of Koszul-type models: products of truncated-polynomial
  Poincare series.
* Ring and circle-bundle answers for d x = (p*u2 + q*v2)^a: the ring is
  Q[w', z]/(w'^a) with w' proportional to p*u2 + q*v2, and with Euler class
  u2 the total space has the cohomology of CP^(a-1).
* Bott indices: a linear scan over the roots of unity in integer arithmetic.
* Homotopy tables and circle-quotient models of space forms (Theorems 1-3).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


# -- Poincare series ---------------------------------------------------------


def series_product(factors, max_degree: int) -> list[int]:
    """Coefficients up to max_degree of a product of Poincare series.

    Each factor is ("poly", e) for Q[l]/(l^e) with deg l = 2, ("odd", d) for
    an exterior generator of odd degree d, or ("even", d) for a free
    polynomial generator of even degree d.
    """
    out = [1] + [0] * max_degree
    for kind, value in factors:
        if kind == "poly":
            factor = [1 if k % 2 == 0 and k <= 2 * (value - 1) else 0 for k in range(max_degree + 1)]
        elif kind == "odd":
            factor = [1 if k in (0, value) else 0 for k in range(max_degree + 1)]
        elif kind == "even":
            factor = [1 if k % value == 0 else 0 for k in range(max_degree + 1)]
        else:
            raise ValueError(f"unknown series factor {kind!r}")
        out = [sum(out[i] * factor[k - i] for i in range(k + 1)) for k in range(max_degree + 1)]
    return out


def quotient_ring_dims_oracle(nilpotency: int, max_degree: int) -> list[int]:
    """dim H^d of Q[w, z]/(w^a) with deg w = deg z = 2, by counting the
    monomials w^i z^j with i < a."""
    dims = [0] * (max_degree + 1)
    for i in range(nilpotency):
        for j in range(max_degree // 2 + 1):
            if 2 * (i + j) <= max_degree:
                dims[2 * (i + j)] += 1
    return dims


def cp_dims(a: int, max_degree: int) -> list[int]:
    """Betti numbers of CP^(a-1): one class in each even degree up to 2(a-1)."""
    return [1 if d % 2 == 0 and d <= 2 * (a - 1) else 0 for d in range(max_degree + 1)]


def power_of_linear_form(coeffs: dict[str, Fraction], exponent: int) -> list[tuple[Fraction, dict[str, int]]]:
    """(sum c_g * g)^e expanded by the multinomial theorem, as raw
    (coefficient, exponents) terms over commuting even generators."""
    names = sorted(coeffs)
    terms: list[tuple[Fraction, dict[str, int]]] = []

    def split(i: int, left: int, exps: dict[str, int], coeff: Fraction) -> None:
        if i == len(names) - 1:
            full = dict(exps, **({names[i]: left} if left else {}))
            c = coeff * coeffs[names[i]] ** left
            if c:
                terms.append((c, full))
            return
        for e in range(left, -1, -1):
            c = coeff * comb(left, e) * coeffs[names[i]] ** e
            split(i + 1, left - e, dict(exps, **({names[i]: e} if e else {})), c)

    split(0, exponent, {}, Fraction(1))
    return terms


# -- element strings -----------------------------------------------------------


def parse_poly(text: str) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """Terms of a printed polynomial such as '2*u2^2*v2 + -1/3*v2', keyed by
    the sorted (generator, exponent) pairs of each monomial."""
    terms: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for term in text.split(" + "):
        factors = term.split("*")
        coeff = Fraction(1)
        if factors[0][:1].isdigit() or factors[0][:1] == "-":
            coeff = Fraction(factors.pop(0))
        exps: dict[str, int] = {}
        for factor in factors:
            name, _, power = factor.partition("^")
            exps[name] = exps.get(name, 0) + (int(power) if power else 1)
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {k: c for k, c in terms.items() if c}


def raw_poly_key(terms) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """The same keying for raw (coefficient, exponents) terms."""
    out: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for c, exps in terms:
        key = tuple(sorted((g, e) for g, e in exps.items() if e))
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def proportional(text: str, p: int, q: int) -> bool:
    """Whether a printed degree-2 element is a nonzero multiple of p*u2 + q*v2."""
    terms = parse_poly(text)
    if any(len(k) != 1 or k[0][1] != 1 or k[0][0] not in ("u2", "v2") for k in terms):
        return False
    a = terms.get((("u2", 1),), Fraction(0))
    b = terms.get((("v2", 1),), Fraction(0))
    return bool(a or b) and a * q == b * p


# -- step functions --------------------------------------------------------------


class ScanFunction:
    """A conjugation-symmetric step function evaluated by plain scan.

    ``disc`` are (numerator, denominator) turns in [0, 1), sorted;
    ``arcs[i]`` is the value after disc i and ``points[i]`` the value at it.
    """

    def __init__(self, disc, arcs, points):
        self.disc = [(Fraction(t).numerator, Fraction(t).denominator) for t in disc]
        self.arcs = list(arcs)
        self.points = list(points)

    def value(self, j: int, m: int) -> int:
        """Value at the turn j/m, 0 <= j < m."""
        if not self.disc:
            return self.arcs[0]
        last = len(self.disc) - 1
        for i, (a, b) in enumerate(self.disc):
            lhs, rhs = j * b, a * m
            if lhs == rhs:
                return self.points[i]
            if lhs < rhs:
                return self.arcs[i - 1] if i else self.arcs[last]
        return self.arcs[last]

    def index(self, m: int) -> int:
        return sum(self.value(j, m) for j in range(m))

    def nondegenerate(self, m: int) -> bool:
        # m*t is neither an integer nor a half-integer
        return all((2 * m * a) % b for a, b in self.disc)


def symmetric_step_function(breaks, levels, zero_point: bool):
    """Discontinuities, arc values and point values of the step function
    whose value depends only on the distance s = min(t, 1-t) to the real
    axis: levels[i] on the i-th band between the sorted breaks in (0, 1/2).
    Point values are the minimum of the adjacent arcs."""
    breaks = sorted(breaks)

    def level_at(s: Fraction) -> int:
        return levels[sum(1 for b in breaks if b < s)]

    disc = sorted(set(breaks) | {1 - b for b in breaks} | ({Fraction(0)} if zero_point else set()))
    if not disc:
        return [], [levels[0]], []
    arcs = []
    for i, t in enumerate(disc):
        end = disc[i + 1] if i + 1 < len(disc) else disc[0] + 1
        mid = ((t + end) / 2) % 1
        arcs.append(level_at(min(mid, 1 - mid)))
    points = [min(arcs[i - 1], arcs[i]) for i in range(len(disc))]
    return disc, arcs, points


def theorem4_survives(f: ScanFunction, iterate_cutoff: int, targets: dict[int, int], degree_cutoff: int) -> bool:
    """Morse matching of a candidate: the indices of the odd iterates up to
    the cutoff, counted with multiplicity at most degree_cutoff, must equal
    the Betti targets.  Stops at the first index that cannot match."""
    counts: dict[int, int] = {}
    for m in range(1, iterate_cutoff + 1, 2):
        ind = f.index(m)
        if ind > degree_cutoff:
            continue
        counts[ind] = counts.get(ind, 0) + 1
        if counts[ind] > targets.get(ind, 0):
            return False
    return counts == {d: n for d, n in targets.items() if n}


def theorem4_targets(iterate_cutoff: int) -> tuple[int, list[int]]:
    """Degree cutoff and Betti numbers of Q[w, z]/(w^2), deg w = deg z = 2,
    for the theorem-4 search with the given iterate cutoff."""
    degree_cutoff = 2 * (((iterate_cutoff - 1) // 2) // 2)
    return degree_cutoff, quotient_ring_dims_oracle(2, degree_cutoff)


def theorem4_candidates(grid: int, value_bound: int) -> int:
    """Size of the theorem-4 search space for an even grid N: the zero
    function plus one candidate per conjugate pair j/N, 0 < j < N/2, and
    inner arc value."""
    return 1 + (grid // 2 - 1) * (value_bound + 1)


QUARTER_SURVIVOR = {"disc": ["1/4", "3/4"], "arcs": [1, 0], "points": [0, 0]}


# -- space forms (Theorems 1-3) ------------------------------------------------------


def theorem1_dims(n: int, max_degree: int) -> dict[int, int]:
    """Rational homotopy of the loop component Lambda(S^n/Gamma)[h].

    Odd n: h acts trivially on pi_n, so the evaluation sequence keeps pi_n
    and its loop shift in degree n-1.  Even n = 2k: h acts by -1 on pi_2k
    (killed over Q) and trivially on the Whitehead class in 4k-1, which
    survives in degrees 4k-1 and 4k-2.
    """
    if n % 2:
        degrees = (n - 1, n)
    else:
        degrees = (2 * n - 2, 2 * n - 1)
    return {d: 1 for d in degrees if 2 <= d <= max_degree}


def homotopy_oracle(n: int, r: int, order: int, which: str, max_degree: int) -> dict:
    dims = theorem1_dims(n, max_degree)
    if which == "lambda":
        pi1 = 4 if n == 2 else r
    else:
        if max_degree >= 2:
            dims[2] = dims.get(2, 0) + 1
        pi1 = r // order if n % 2 else 1
    return {"dims": [[d, v] for d, v in sorted(dims.items())], "pi1": pi1}


def theorem3_shape(n: int) -> tuple[int, int, int]:
    """(middle degree, top degree, power) of the circle-quotient model:
    generators u2, u_mid, u_top with d u_top = u2^power."""
    if n % 2 == 0:
        k = n // 2
        return 4 * k - 2, 4 * k - 1, 2 * k
    k = (n - 1) // 2
    return 2 * k, 2 * k + 1, k + 1
