"""Shared test utilities: seeded random inputs and independent oracles.

The oracles here deliberately avoid the code paths they check: step
functions are evaluated by linear scan, quotient-ring dimensions by direct
monomial enumeration, and random models are built so that validity is
guaranteed by construction rather than by the library's own checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

from loopspace.bott import BottFunction
from loopspace.gca import DgaModel, apply_differential, linalg


# -- random DGA models -------------------------------------------------------


def _monomials_of_degree(pool, degree):
    """Exponent maps over (name, degree) pairs, odd generators capped at 1."""
    if degree == 0:
        return [{}]
    if not pool:
        return []
    (name, d), rest = pool[0], pool[1:]
    top = degree // d
    if d % 2:
        top = min(top, 1)
    out = []
    for e in range(top + 1):
        for tail in _monomials_of_degree(rest, degree - e * d):
            mono = dict(tail)
            if e:
                mono[name] = e
            out.append(mono)
    return out


def random_model(rng: random.Random) -> DgaModel:
    """A model that passes every validity check by construction: generators
    with nonzero differentials map into closed generators of lower degree."""
    ngens = rng.randint(2, 4)
    degrees = sorted(rng.randint(1, 5) for _ in range(ngens))
    gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
    n_closed = rng.randint(1, ngens)
    diffs = {}
    closed = gens[:n_closed]
    for name, deg in gens[n_closed:]:
        pool = [(n, d) for n, d in closed if d < deg]
        monos = _monomials_of_degree(pool, deg + 1)
        if monos and rng.random() < 0.85:
            picked = rng.sample(monos, rng.randint(1, min(2, len(monos))))
            terms = []
            for mono in picked:
                c = Fraction(rng.randint(1, 3) * rng.choice((1, -1)), rng.randint(1, 3))
                terms.append((c, mono))
            diffs[name] = terms
    return DgaModel(gens, diffs, name="random")


def odd_differential_models():
    """Models whose odd generators have differential a*b, a product of odd
    generators of the same degree (so they fail minimality)."""
    ab = [(1, [("a", 1), ("b", 1)])]
    yield DgaModel([("a", 1), ("b", 1), ("c", 1), ("x", 2)], {"c": ab})
    # declared around a and b, so that a*b passes the odd h with a Koszul
    # sign on the left (h*c2) and on the right (c1*h)
    yield DgaModel([("c1", 1), ("b", 1), ("h", 1), ("a", 1), ("c2", 1)], {"c1": ab, "c2": ab})


def coprime_denominator_model(rng: random.Random) -> DgaModel:
    """A valid three-stage model whose generator differentials have
    denominators from distinct primes, so that the lcm of all of them
    exceeds the lcm of each one.

    a, b (degree 2) are closed; dx = al*b^2 and dx' = be*a*b; and
    dy = c1*a*x + c2*b*x' (y of degree 4) squares to zero exactly when
    c1*al + c2*be = 0, which ties the coefficients of different generators
    together.  An optional z of degree 5 kills a random cubic in a and b.
    """
    px, px2, py, pz = rng.sample((3, 5, 7, 11, 13), 4)
    al = Fraction(rng.choice((1, -1, 2, -4)), px)
    be = Fraction(rng.choice((1, -1, 2, -4)), px2)
    c1 = Fraction(rng.choice((1, -1, 2, -4)), py)
    c2 = -c1 * al / be
    gens = [("a", 2), ("b", 2), ("x", 3), ("x2", 3), ("y", 4)]
    diffs = {
        "x": [(al, {"b": 2})],
        "x2": [(be, {"a": 1, "b": 1})],
        "y": [(c1, {"a": 1, "x": 1}), (c2, {"b": 1, "x2": 1})],
    }
    if rng.random() < 0.5:
        gens.append(("z", 5))
        i = rng.randint(0, 3)
        diffs["z"] = [(Fraction(rng.choice((1, -3)), pz), {"a": i, "b": 3 - i}),
                      (Fraction(1, rng.choice((1, 2))), {"a": 3 - i, "b": i})]
    return DgaModel(gens, diffs, name="coprime")


def random_homogeneous(rng: random.Random, model: DgaModel, max_degree: int = 8):
    """A random homogeneous element with 1..3 terms, or zero when the chosen
    degree has an empty basis."""
    degree = rng.randint(1, max_degree)
    basis = model.basis(degree)
    if not basis:
        return model.zero(), degree
    monos = rng.sample(list(basis), rng.randint(1, min(3, len(basis))))
    element = model.zero()
    for mono in monos:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        element = element + model.monomial_element(mono, c)
    return element, degree


# -- reference cochain complex -----------------------------------------------


class ReferenceSpan:
    """A subspace grown one vector at a time by plain Fraction reduction;
    ``add`` extends it and returns True exactly when the vector is
    independent of everything added so far."""

    def __init__(self):
        self.rows: list[tuple[int, list[Fraction]]] = []  # (pivot, row)

    def add(self, vec) -> bool:
        v = [Fraction(x) for x in vec]
        for p, row in self.rows:
            if v[p]:
                t = v[p] / row[p]
                v = [a - t * b for a, b in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        self.rows.append((p, v))
        return True


def reference_cochain_complex(model: DgaModel, max_degree: int):
    """(kernel, image, reps, rank_out) per degree, computed the plain way:
    a dense Fraction d_d built column by column from apply_differential on
    each basis monomial, its null space by linalg.nullspace, its image as
    its own pivot columns, and the representatives as the first kernel
    vectors that extend the image span."""
    out = []
    image: list[tuple[Fraction, ...]] = []
    for d in range(max_degree + 1):
        basis, target = model.basis(d), model.basis(d + 1)
        columns = [apply_differential(model.monomial_element(m)).coords(target) for m in basis]
        rows = [[col[i] for col in columns] for i in range(len(target))]
        kernel = linalg.nullspace(rows, len(basis))
        span = ReferenceSpan()
        for vec in image:
            assert span.add(vec)
        reps = [vec for vec in kernel if span.add(vec)]
        out.append((kernel, image, reps, len(basis) - len(kernel)))
        image = linalg.column_space_basis(rows, len(basis))
    return out


# -- quotient-ring oracle ----------------------------------------------------


def quotient_counts_oracle(deg_w: int, deg_z: int, nilpotency: int, max_degree: int):
    """dim_d of Q[w,z]/(w^a) by direct enumeration of the pairs (i, j)."""
    dims = [0] * (max_degree + 1)
    for i in range(nilpotency):
        for j in range(max_degree // deg_z + 1):
            d = i * deg_w + j * deg_z
            if d <= max_degree:
                dims[d] += 1
    return dims


# -- step-function oracles ---------------------------------------------------


def step_value_by_scan(f: BottFunction, t: Fraction) -> int:
    """Evaluate I at one angle by linear scan over the discontinuities."""
    t = t % 1
    disc = f.discontinuities
    if not disc:
        return f.arc_values[0]
    for i, d in enumerate(disc):
        if t == d:
            return f.point_values[i]
    last_below = None
    for i, d in enumerate(disc):
        if d < t:
            last_below = i
    if last_below is None:
        return f.arc_values[len(disc) - 1]
    return f.arc_values[last_below]


def bott_index_by_scan(f: BottFunction, m: int) -> int:
    """ind of the m-th iterate as a plain sum over the m-th roots of unity."""
    return sum(step_value_by_scan(f, Fraction(j, m)) for j in range(m))


def random_bott(rng: random.Random) -> BottFunction:
    """A random conjugation-symmetric step function: values depend on the
    distance min(t, 1-t) to the real axis, which makes symmetry automatic."""
    n_breaks = rng.randint(0, 3)
    breaks = sorted(rng.sample([Fraction(k, 12) for k in range(1, 7)], n_breaks))
    include_zero = rng.random() < 0.3
    levels = [rng.randint(0, 3) for _ in range(len(breaks) + 1)]

    def level_at(s: Fraction) -> int:
        idx = sum(1 for b in breaks if b < s)
        return levels[idx]

    disc = sorted({b for b in breaks} | {1 - b for b in breaks} | ({Fraction(0)} if include_zero else set()))
    if not disc:
        return BottFunction.constant(levels[0])
    arcs = []
    for i, d in enumerate(disc):
        end = disc[i + 1] if i + 1 < len(disc) else disc[0] + 1
        mid = (d + end) / 2
        arcs.append(level_at(min(mid % 1, (1 - mid) % 1)))
    points = []
    for d in disc:
        points.append(min(arcs[disc.index(d) - 1], arcs[disc.index(d)]))
    return BottFunction(tuple(disc), tuple(arcs), tuple(points))
