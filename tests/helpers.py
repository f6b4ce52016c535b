"""Shared test utilities: seeded random inputs and oracles.

Most oracles avoid the code paths they check: step functions are evaluated
by linear scan, quotient-ring dimensions by direct monomial enumeration,
the cochain complex by dense Fraction matrices of apply_differential
coordinates, whose kernels, images and pivots are read off the plain
Gauss-Jordan elimination written here (reference_echelon, reference_rref),
and random models are built so that validity is guaranteed by construction
rather than by the library's own checks.

Two references are still frozen copies of earlier versions of the code
they check, not independent algorithms: the DSL scanner and parser
(reference_tokenize, reference_parse) and reference_certify_theorem4.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from loopspace.bott import (
    CONTRADICTION_ESTABLISHED,
    INCONCLUSIVE,
    QUARTER_TURNS,
    BottFunction,
    Certificate,
    IndexSequence,
    _candidate_payload,
    bott_index,
    is_nondegenerate,
    morse_matches_betti,
)
from loopspace.dsl import _BLOCK_KEYWORDS, Diagnostic, ParseResult, SourceSpec, _Token
from loopspace.gca import (
    AlgebraElement,
    BettiTable,
    DgaModel,
    GcaError,
    RingPresentation,
    RingReport,
    apply_differential,
    cochain_complex,
    linalg,
    quotient_ring_dims,
)
from loopspace.gca.cohomology import (
    _CANDIDATE_DIM_LIMIT,
    DegreeData,
    _candidate_coefficients,
    _quotient_monomials,
)
from loopspace.spaceforms import SpaceFormSpec, euler_class


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


# -- reference kernels -------------------------------------------------------
#
# The exact kernels as they were before they learned to skip zeros: an
# elimination that rewrites every row at every pivot step, and a Koszul sign
# counted over lists of odd positions.


def _exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    assert r == 0, f"inexact division {a} / {b}"
    return q


def reference_echelon(rows):
    """Fraction-free Gauss-Jordan that updates every other row at every
    pivot step to (pivot*x - head*y) / previous_pivot, asserting each
    division exact.  Pivots: first nonzero column, then smallest absolute
    entry, then lowest row index."""
    m = []
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        row = [int(Fraction(x) * scale) for x in row]
        if any(row):
            m.append(row)
    pivots = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        best = -1
        for i in range(r, len(m)):
            v = m[i][c]
            if v and (best == -1 or abs(v) < abs(m[best][c])):
                best = i
        if best == -1:
            continue
        m[r], m[best] = m[best], m[r]
        top = m[r]
        piv = top[c]
        for i, row in enumerate(m):
            head = row[c]
            if i != r and (head or piv != prev):
                m[i] = [_exact_quotient(piv * x - head * y, prev) for x, y in zip(row, top)]
        pivots.append(c)
        prev = piv
        if r + 1 == len(m):
            break
    return m[: len(pivots)], pivots


def reference_rref(rows):
    """The reduced row echelon form of the rows over Q, each row divided by
    its pivot: fixed by the row space alone, unlike the rows of
    reference_echelon, which carry a common pivot value."""
    ech, pivots = reference_echelon(rows)
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(ech, pivots)]


def reference_multiply_monomials(model: DgaModel, a, b):
    """Koszul-signed product of two exponent tuples, or None when an odd
    generator would square; the sign counts the inversions between the
    lists of odd positions of a and of b."""
    odd = [i for i, g in enumerate(model.generators) if g.degree % 2]
    if any(a[i] and b[i] for i in odd):
        return None
    a_odd = [i for i in odd if a[i]]
    b_odd = [i for i in odd if b[i]]
    inversions = sum(1 for i in a_odd for j in b_odd if i > j)
    return (-1) ** inversions, tuple(x + y for x, y in zip(a, b))


def reference_basis(model: DgaModel, degree: int):
    """The monomials of a degree as exponent tuples, lexicographically
    descending, enumerated by :func:`_monomials_of_degree`."""
    if degree < 0:
        return []
    pool = [(g.name, g.degree) for g in model.generators]
    return sorted(
        (tuple(mono.get(g.name, 0) for g in model.generators) for mono in _monomials_of_degree(pool, degree)),
        reverse=True,
    )


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


def reference_differential(model: DgaModel, degree: int, scale: int | None = None):
    """The dense matrix of d from degree to degree+1, rows over the basis of
    degree+1 and columns over that of degree, built column by column from
    apply_differential on each basis monomial: Fractions, or the ints of
    scale*d when ``scale`` is given (the differential_scale of the model)."""
    target = model.basis(degree + 1)
    columns = [apply_differential(model.monomial_element(m)).coords(target) for m in model.basis(degree)]
    rows = [[col[i] for col in columns] for i in range(len(target))]
    if scale is None:
        return rows
    scaled = [[scale * x for x in row] for row in rows]
    assert all(x.denominator == 1 for row in scaled for x in row), (model, degree, scale)
    return [[x.numerator for x in row] for row in scaled]


def differential_scale(model: DgaModel) -> int:
    """L, the lcm of every coefficient denominator of the generator
    differentials: L*d has integer matrices in every degree."""
    return lcm(*(c.denominator for g in model.generators for c in model.differential_of(g.name).terms.values()))


def _primitive(vec) -> tuple[int, ...]:
    """The primitive integer multiple of a nonzero rational vector whose
    first nonzero entry is positive."""
    scale = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * scale) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def reference_kernel(rows, ncols: int):
    """(free columns, kernel) of the matrix, both ascending: one primitive
    integer vector per free column f, 1 at f, 0 at every other free column
    and minus the entry at f of each row of reference_rref at that row's
    pivot, scaled to primitive integers with first nonzero entry positive."""
    rref = reference_rref(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in rref]
    free = [j for j in range(ncols) if j not in pivots]
    kernel = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            x[p] = -row[f]
        kernel.append(_primitive(x))
    return free, kernel


def reference_cochain_complex(model: DgaModel, max_degree: int):
    """(kernel, image, reps, rank_out) per degree, computed the plain way:
    a dense Fraction d_d (reference_differential), its null space by
    reference_kernel, its image as its own columns at the pivots (the
    columns that are not free), and the representatives as the first
    kernel vectors that extend the image span."""
    out = []
    image: list[tuple[Fraction, ...]] = []
    for d in range(max_degree + 1):
        rows, n = reference_differential(model, d), len(model.basis(d))
        free, kernel = reference_kernel(rows, n)
        span = ReferenceSpan()
        for vec in image:
            assert span.add(vec)
        reps = [vec for vec in kernel if span.add(vec)]
        out.append((kernel, image, reps, n - len(kernel)))
        image = [tuple(Fraction(row[p]) for row in rows) for p in range(n) if p not in free]
    return out


def reference_integer_images(model: DgaModel, max_degree: int):
    """The incoming image of every degree 0..max_degree as cochain_complex
    forms it, one degree at a time: the pivot columns of the integer matrix
    of L*d_{d-1} (pivots by the eager reference_echelon), read from its
    transpose; no vector in degree 0."""
    images = []
    image = ()
    scale = differential_scale(model)
    for d in range(max_degree + 1):
        images.append(image)
        matrix = reference_differential(model, d, scale)
        columns = list(zip(*matrix))
        image = tuple(columns[p] for p in reference_echelon(matrix)[1])
    return images


def matrix_columns(rows, ncols: int):
    """The sparse columns {row: nonzero value} of a dense matrix with
    ``ncols`` columns, read one cell at a time."""
    return tuple({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols))


def reference_dense_cochain_complex(model: DgaModel, max_degree: int):
    """The DegreeData of every degree as a complex that reduces everything
    builds them: every d_d, as the dense integer matrix of L*d_d
    (reference_differential), and every incoming image, restricted to the
    free columns of d_d, are reduced to reduced echelon form by the eager
    reference_echelon; the whole kernel is built (reference_kernel) and
    filtered down to the representatives, the image is read from the
    transpose of d_d, and the outgoing columns from the dense matrix.  An
    image row is keyed as in DegreeData, n-1-f at free column f, so the
    image's columns are taken in descending order of f."""
    degrees = []
    image = ()
    scale = differential_scale(model)
    for d in range(max_degree + 1):
        basis = model.basis(d)
        n = len(basis)
        matrix = reference_differential(model, d, scale)
        free, kernel = reference_kernel(matrix, n)
        order = free[::-1]  # ascending keys n-1-f
        at_free, image_pivots = reference_echelon([[vec[f] for f in order] for vec in image])
        filled = {order[p] for p in image_pivots}
        reps = tuple(v for f, v in zip(free, kernel) if f not in filled)
        rows = tuple({n - 1 - f: x for f, x in zip(order, row) if x} for row in at_free)
        degrees.append(DegreeData(d, basis, reps, matrix_columns(matrix, n), tuple(free), rows))
        columns = list(zip(*matrix))
        image = tuple(columns[p] for p in range(n) if p not in free)
    return tuple(degrees)


# -- reference cup products --------------------------------------------------
#
# The element-based ring search and Euler action, as they were before both
# moved to integer {monomial: int} maps: every product is a Fraction product
# of AlgebraElements, term pair by term pair, and every class is read by the
# public class queries.


def reference_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The graded product, with Koszul signs, one term pair at a time."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            prod = x.model.multiply_monomials(m1, m2)
            if prod is None:
                continue
            sign, mon = prod
            acc = out.get(mon, Fraction(0)) + sign * c1 * c2
            if acc:
                out[mon] = acc
            else:
                out.pop(mon, None)
    return AlgebraElement(x.model, out)


def _reference_powers(x: AlgebraElement, top: int) -> list[AlgebraElement]:
    powers = [x.model.one()]
    for _ in range(top):
        powers.append(reference_product(powers[-1], x))
    return powers


def _reference_candidates(data, degree: int):
    reps = data.representative_elements(degree)
    if not reps:
        return
    if len(reps) > _CANDIDATE_DIM_LIMIT:
        raise GcaError(
            f"representative space at degree {degree} has dimension {len(reps)}; "
            f"the candidate search handles at most {_CANDIDATE_DIM_LIMIT}"
        )
    zero = data.model.zero()
    for coeffs in _candidate_coefficients(len(reps)):
        candidate = zero
        for c, rep in zip(coeffs, reps):
            if c:
                candidate = candidate + rep.scale(c)
        yield candidate


def _reference_find_w(data, presentation):
    a = presentation.nilpotency
    deg = presentation.deg_w
    if a == 1:  # w^1 exact only for w = 0
        return data.model.zero()
    for candidate in _reference_candidates(data, deg):
        below = _reference_powers(candidate, a - 1)[-1]
        if not data.is_exact(reference_product(below, candidate), a * deg):
            continue
        if data.is_exact(below, (a - 1) * deg):
            continue
        return candidate
    return None


def _reference_products_independent(data, monomials, w_powers, z) -> bool:
    z_powers = _reference_powers(z, max((j for _, _, j in monomials), default=0))
    products = {}
    for d, i, j in monomials:
        products.setdefault(d, []).append(reference_product(w_powers[i], z_powers[j]))
    for d in sorted(products):
        coords = [data.class_coordinates(p, d) for p in products[d]]
        if linalg.rank(coords) < len(coords):
            return False
    return True


def _reference_find_z(data, presentation, w, max_degree):
    monomials = list(_quotient_monomials(presentation, max_degree))
    w_powers = _reference_powers(w, max((i for _, i, _ in monomials), default=0))
    for candidate in _reference_candidates(data, presentation.deg_z):
        if _reference_products_independent(data, monomials, w_powers, candidate):
            return candidate
    return None


def reference_verify_ring_presentation(model: DgaModel, presentation, max_degree: int) -> RingReport:
    """verify_ring_presentation on element products (see above)."""
    a = presentation.nilpotency
    needed = max(max_degree, a * presentation.deg_w)
    data = cochain_complex(model, needed)
    actual = tuple(len(d.reps) for d in data.degrees[: max_degree + 1])
    expected = tuple(quotient_ring_dims(presentation, max_degree))
    for d, (e, got) in enumerate(zip(expected, actual)):
        if e != got:
            return RingReport(False, presentation, max_degree, expected, actual, d, None, None,
                              (f"degree {d}: dimension {got}, presentation predicts {e}",))
    w = _reference_find_w(data, presentation)
    if w is None:
        return RingReport(False, presentation, max_degree, expected, actual, None, None, None,
                          (f"no degree-{presentation.deg_w} class w with w^{a} exact "
                           f"and w^{a - 1} non-exact was found",))
    z = _reference_find_z(data, presentation, w, max_degree)
    if z is None:
        return RingReport(False, presentation, max_degree, expected, actual, None, w, None,
                          (f"no degree-{presentation.deg_z} class z with independent "
                           f"products w^i z^j was found",))
    return RingReport(True, presentation, max_degree, expected, actual, None, w, z, ())


def reference_euler_action_matrices(data, euler=None):
    """euler_action_matrices on element products (see above)."""
    if euler is None:
        euler = euler_class(data.model)
    matrices = []
    for p in range(data.max_degree - 1):
        source = data.representative_elements(p)
        target_dim = len(data.degrees[p + 2].reps)
        columns = [data.class_coordinates(reference_product(euler, rep), p + 2) for rep in source]
        matrices.append(tuple(tuple(columns[j][i] for j in range(len(source))) for i in range(target_dim)))
    return matrices


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


# -- reference theorem-4 certificate -------------------------------------------


def _reference_match_against_targets(
    f: BottFunction, iterate_cutoff: int, target: Counter, degree_cutoff: int
) -> tuple[bool, str]:
    counts: Counter = Counter()
    for m in range(1, iterate_cutoff + 1, 2):
        ind = bott_index(f, m)
        if ind > degree_cutoff:
            continue
        if target.get(ind, 0) == 0:
            return False, f"iterate {m} has index {ind}, not covered by the Betti targets"
        counts[ind] += 1
        if counts[ind] > target[ind]:
            return False, f"iterate {m} overfills index {ind} (multiplicity {target[ind]})"
    for d in sorted(target):
        if counts[d] != target[d]:
            return False, f"index {d} covered {counts[d]} times, target {target[d]}"
    return True, ""



def reference_certify_theorem4(
    grid_denominator: int, value_bound: int, iterate_cutoff: int
) -> Certificate:
    """``certify_theorem4`` with a bott_index call per odd iterate of every
    candidate, as it was before the closed-form root counts."""
    N, V, M = grid_denominator, value_bound, iterate_cutoff
    if not isinstance(N, int) or N < 2 or N % 2:
        raise ValueError(f"grid denominator must be an even integer >= 2, got {N!r}")
    if not isinstance(V, int) or V < 0:
        raise ValueError(f"value bound must be a non-negative integer, got {V!r}")
    if not isinstance(M, int) or M % 2 == 0 or M < 2 * N + 1:
        raise ValueError(f"iterate cutoff must be an odd integer >= 2N+1 = {2 * N + 1}, got {M!r}")

    degree_cutoff = 2 * (((M - 1) // 2) // 2)
    betti = BettiTable.from_dims(quotient_ring_dims(RingPresentation(2, 2, 2), degree_cutoff))
    target = Counter({d: n for d, n in enumerate(betti.dims) if n})

    # the pair is sorted and the points are the minima of the adjacent arcs,
    # exactly as BottFunction.build would normalise it
    candidates: list[BottFunction] = [BottFunction.constant(0)]
    for j in range(1, (N - 1) // 2 + 1):
        disc = (Fraction(j, N), Fraction(N - j, N))
        for a in range(0, V + 1):
            candidates.append(BottFunction(disc, (a, 0), (0, 0)))

    transcript: list[dict] = []
    survivors: list[BottFunction] = []
    for f in candidates:
        matched, reason = _reference_match_against_targets(f, M, target, degree_cutoff)
        entry = {"candidate": _candidate_payload(f), "matched": matched}
        if not matched:
            entry["reason"] = reason
        transcript.append(entry)
        if matched:
            seq = IndexSequence.from_function(f, range(1, M + 1, 2))
            assert morse_matches_betti(seq, betti)
            survivors.append(f)

    survivors.sort(key=lambda f: (f.discontinuities, f.arc_values))
    all_fail_required = bool(survivors)
    for f in survivors:
        quarter = f.discontinuities == QUARTER_TURNS
        degenerate = not is_nondegenerate(f, 2)
        transcript.append(
            {
                "survivor": _candidate_payload(f),
                "quarter_turns": quarter,
                "degenerate_at_iterate_2": degenerate,
                "fails_nondegeneracy": quarter and degenerate,
            }
        )
        if not (quarter and degenerate):
            all_fail_required = False

    if not survivors:
        verdict = INCONCLUSIVE
        transcript.append({"note": "no candidate matched the Betti targets; the Morse premise failed"})
    else:
        verdict = CONTRADICTION_ESTABLISHED if all_fail_required else INCONCLUSIVE

    parameters = {
        "grid_denominator": N,
        "value_bound": V,
        "iterate_cutoff": M,
        "degree_cutoff": degree_cutoff,
        "betti_targets": list(betti.dims),
        "candidates": len(candidates),
        "search_space": "conjugate pairs {j/N, 1-j/N}, 0 < j < N/2, plus the zero function; "
        "inner arc through angle 0 fixed to 0; point values at the minimum "
        "of adjacent arcs",
    }
    return Certificate(
        kind="theorem4",
        parameters=parameters,
        survivors=tuple(_candidate_payload(f) for f in survivors),
        verdict=verdict,
        transcript=tuple(transcript),
    )


# -- DSL scanner ---------------------------------------------------------------

_NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = frozenset("{};:=^*,+")


def reference_tokenize(text: str) -> list[_Token]:
    """The character-by-character scanner the DSL used before its single
    pattern: its own position, line and column bookkeeping, blanks and
    comments skipped one character at a time, two probes per token."""
    tokens: list[_Token] = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r\f\v":
            pos += 1
            col += 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
                col += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(_Token("NUMBER", m.group(), line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        m = _IDENT.match(text, pos)
        if m:
            tokens.append(_Token("IDENT", m.group(), line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, line, col))
        else:
            tokens.append(_Token("ERROR", ch, line, col))
        pos += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# -- DSL parser ----------------------------------------------------------------


class _ReferenceParser:
    """The recursive-descent parser the DSL used before it read token texts:
    a `_Token` per token from `reference_tokenize`, with its kind, line and
    column, and a located `Diagnostic` built at each problem."""

    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- helpers ---------------------------------------------------------

    @property
    def tok(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tok
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, tok: _Token, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", tok.line, tok.column, message))

    def warning(self, tok: _Token, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", tok.line, tok.column, message))

    def expect_punct(self, ch: str) -> _Token | None:
        t = self.tok
        if t.kind == "PUNCT" and t.text == ch:
            return self.advance()
        self.error(t, f"expected {ch!r}" + (f", found {t.text!r}" if t.text else " before end of input"))
        return None

    def skip_statement(self) -> None:
        """Recover to just past the next ';' (or stop before '}'/EOF)."""
        while True:
            t = self.tok
            if t.kind == "EOF" or (t.kind == "PUNCT" and t.text == "}"):
                return
            self.advance()
            if t.kind == "PUNCT" and t.text == ";":
                return

    def integer(self, what: str, minimum: int | None = None) -> int | None:
        t = self.tok
        if t.kind != "NUMBER" or "/" in t.text:
            self.error(t, f"expected an integer {what}" + (f", found {t.text!r}" if t.text else ""))
            return None
        self.advance()
        value = int(t.text)
        if minimum is not None and value < minimum:
            self.error(t, f"{what} must be >= {minimum}, got {value}")
            return None
        return value

    def rational(self, what: str) -> Fraction | None:
        t = self.tok
        if t.kind != "NUMBER":
            self.error(t, f"expected a rational {what}" + (f", found {t.text!r}" if t.text else ""))
            return None
        self.advance()
        try:
            return Fraction(t.text)
        except ZeroDivisionError:
            self.error(t, f"{what} has denominator zero")
            return None

    def ident(self, what: str) -> _Token | None:
        t = self.tok
        if t.kind != "IDENT":
            self.error(t, f"expected {what}" + (f", found {t.text!r}" if t.text else " before end of input"))
            return None
        return self.advance()

    # -- document --------------------------------------------------------

    def document(self):
        t = self.tok
        if t.kind == "IDENT" and t.text in _BLOCK_KEYWORDS:
            kind = _BLOCK_KEYWORDS[t.text]
            value = {"dga": self.dga_block, "spaceform": self.spaceform_block, "bott": self.bott_block}[kind]()
            end = self.tok
            if end.kind == "ERROR":
                self.error(end, f"unexpected character {end.text!r}")
            elif end.kind != "EOF":
                self.error(end, f"unexpected content after the block: {end.text!r}")
            return value, kind
        if t.kind == "ERROR":
            self.error(t, f"unexpected character {t.text!r}")
        elif t.kind == "EOF":
            self.error(t, "empty document; expected 'model', 'spaceform' or 'bott'")
        else:
            self.error(t, f"expected 'model', 'spaceform' or 'bott', found {t.text!r}")
        return None, None

    # -- dga -------------------------------------------------------------

    def dga_block(self) -> DgaModel | None:
        self.advance()  # "model"
        name_tok = self.ident("a model name")
        if name_tok is None or self.expect_punct("{") is None:
            return None
        generators: list[tuple[str, int]] = []
        declared: dict[str, int] = {}
        diffs: list[tuple[_Token, list[tuple[Fraction, list[tuple[_Token, int]], _Token]]]] = []
        diff_targets: set[str] = set()
        while True:
            t = self.tok
            if t.kind == "PUNCT" and t.text == "}":
                self.advance()
                break
            if t.kind == "EOF":
                self.error(t, "expected '}' to close the model block")
                break
            if t.kind == "IDENT" and t.text == "generator":
                self.advance()
                gname = self.ident("a generator name")
                if gname is None or self.expect_punct(":") is None:
                    self.skip_statement()
                    continue
                degree = self.integer("degree", minimum=1)
                if degree is None:
                    self.skip_statement()
                    continue
                if gname.text in declared:
                    self.error(gname, f"generator {gname.text!r} declared twice")
                else:
                    declared[gname.text] = degree
                    generators.append((gname.text, degree))
                self.expect_punct(";") or self.skip_statement()
            elif t.kind == "IDENT" and t.text == "d":
                self.advance()
                target = self.ident("a generator name after 'd'")
                if target is None or self.expect_punct("=") is None:
                    self.skip_statement()
                    continue
                poly = self.poly()
                if poly is None:
                    self.skip_statement()
                    continue
                if target.text in diff_targets:
                    self.error(target, f"differential of {target.text!r} declared twice")
                else:
                    diff_targets.add(target.text)
                    diffs.append((target, poly))
                self.expect_punct(";") or self.skip_statement()
            elif t.kind == "ERROR":
                self.error(t, f"unexpected character {t.text!r}")
                self.advance()
            else:
                self.error(t, f"expected 'generator' or 'd', found {t.text!r}")
                self.skip_statement()
        return self.build_model(name_tok.text, generators, declared, diffs)

    def poly(self):
        """List of (coefficient, [(name token, exponent), ...], first token).
        Returns None on a syntax error."""
        t = self.tok
        if t.kind == "NUMBER" and t.text == "0" and self.tokens[self.pos + 1].text == ";":
            self.advance()
            return []
        terms = []
        while True:
            term = self.term()
            if term is None:
                return None
            terms.append(term)
            if self.tok.kind == "PUNCT" and self.tok.text == "+":
                self.advance()
                continue
            break
        return terms

    def term(self):
        first = self.tok
        coeff = Fraction(1)
        if first.kind == "NUMBER":
            value = self.rational("coefficient")
            if value is None:
                return None
            coeff = value
            if self.expect_punct("*") is None:
                return None
        factors: list[tuple[_Token, int]] = []
        while True:
            name = self.ident("a generator name in the term")
            if name is None:
                return None
            exponent = 1
            if self.tok.kind == "PUNCT" and self.tok.text == "^":
                self.advance()
                e = self.integer("exponent", minimum=0)
                if e is None:
                    return None
                exponent = e
            factors.append((name, exponent))
            if self.tok.kind == "PUNCT" and self.tok.text == "*":
                self.advance()
                continue
            break
        return (coeff, factors, first)

    def build_model(self, name, generators, declared, diffs) -> DgaModel | None:
        raw_diffs: dict[str, list] = {}
        for target, terms in diffs:
            if target.text not in declared:
                self.error(target, f"undeclared generator {target.text!r}")
                continue
            expected = declared[target.text] + 1
            raw_terms = []
            ok = True
            for coeff, factors, first in terms:
                exponents: dict[str, int] = {}
                degree = 0
                for name_tok, exponent in factors:
                    if name_tok.text not in declared:
                        self.error(name_tok, f"undeclared generator {name_tok.text!r}")
                        ok = False
                        continue
                    exponents[name_tok.text] = exponents.get(name_tok.text, 0) + exponent
                    degree += declared[name_tok.text] * exponent
                if not ok:
                    continue
                if degree != expected:
                    self.error(
                        first,
                        f"term has degree {degree}; d {target.text} requires degree {expected}",
                    )
                    ok = False
                    continue
                raw_terms.append((coeff, exponents))
            if ok:
                raw_diffs[target.text] = raw_terms
        if any(d.severity == "error" for d in self.diagnostics):
            return None
        try:
            return DgaModel(generators, raw_diffs, name=name)
        except GcaError as exc:  # structural problems not caught above
            self.error(self.tokens[0], str(exc))
            return None

    # -- spaceform ---------------------------------------------------------

    def spaceform_block(self) -> SpaceFormSpec | None:
        keyword = self.advance()  # "spaceform"
        if self.expect_punct("{") is None:
            return None
        values: dict[str, int] = {}
        for field in ("n", "r", "ord"):
            t = self.ident(f"field {field!r}")
            if t is None:
                self.skip_statement()
                return None
            if t.text != field:
                self.error(t, f"expected field {field!r}, found {t.text!r}")
                return None
            if self.expect_punct("=") is None:
                return None
            value = self.integer(f"value of {field!r}", minimum=1)
            if value is None:
                return None
            values[field] = value
            if self.expect_punct(";") is None:
                return None
        if self.expect_punct("}") is None:
            return None
        try:
            return SpaceFormSpec(values["n"], values["r"], values["ord"])
        except ValueError as exc:
            self.error(keyword, str(exc))
            return None

    # -- bott ----------------------------------------------------------------

    def bott_block(self) -> BottFunction | None:
        keyword = self.advance()  # "bott"
        if self.expect_punct("{") is None:
            return None
        disc = self.bott_field("disc", self.rational)
        arcs = self.bott_field("arcs", lambda what: self.integer(what, minimum=0))
        points = self.bott_field("points", lambda what: self.integer(what, minimum=0))
        if disc is None or arcs is None or points is None:
            return None
        if self.expect_punct("}") is None:
            return None
        normalized = [Fraction(t) % 1 for t in disc]
        if normalized != sorted(normalized):
            self.warning(keyword, "discontinuities were not sorted; sorting them")
        try:
            return BottFunction.build(disc, arcs, points)
        except ValueError as exc:
            self.error(keyword, str(exc))
            return None

    def bott_field(self, field: str, reader):
        t = self.ident(f"field {field!r}")
        if t is None:
            return None
        if t.text != field:
            self.error(t, f"expected field {field!r}, found {t.text!r}")
            return None
        if self.expect_punct("=") is None:
            return None
        values = []
        if self.tok.kind == "PUNCT" and self.tok.text == ";":
            self.advance()
            return values
        while True:
            v = reader(f"value in {field!r}")
            if v is None:
                return None
            values.append(v)
            if self.tok.kind == "PUNCT" and self.tok.text == ",":
                self.advance()
                continue
            break
        if self.expect_punct(";") is None:
            return None
        return values


def reference_parse(source: str | SourceSpec) -> ParseResult:
    """`loopspace.dsl.parse` as it was before it read token texts."""
    spec = source if isinstance(source, SourceSpec) else SourceSpec(text=source)
    parser = _ReferenceParser(spec.text)
    value, kind = parser.document()
    if value is not None and spec.kind is not None and kind != spec.kind:
        parser.error(parser.tokens[0], f"expected a {spec.kind} document, found {kind}")
        value = None
    if any(d.severity == "error" for d in parser.diagnostics):
        value = None
    return ParseResult(value, kind, tuple(parser.diagnostics))
