"""Rational homotopy and cohomology of free-loop spaces of spherical space forms.

A space form here is a quotient S^n / Gamma of the round n-sphere by a
finite group acting freely and isometrically, together with a nontrivial
class h of its fundamental group.  The module computes, by exact rank
bookkeeping over Q:

* homotopy tables of the loop component Lambda(M)[h] from the evaluation
  fibration's exact sequence (``loop_space_dims``, ``theorem1_table``);
* homotopy tables of the SO(2) homotopy quotient (``theorem2_table``);
* the minimal model of the quotient and its cohomology ring
  (``theorem3_model``);
* Euler-class rank consistency for circle bundles (``gysin_check``).

Conventions: out-of-range degrees contribute zero maps and zero groups;
torsion is dropped everywhere except pi_1, which is finite cyclic for these
quotients and is recorded by its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .gca import linalg
from .gca.algebra import AlgebraElement, DgaModel, GcaError, exact_int, exact_rational, multiply_terms
from .gca.cohomology import (
    _MAX_DEGREE_MESSAGE,
    DEFAULT_MAX_DEGREE,
    BettiTable,
    ComplexData,
    cochain_complex,
    integer_terms,
)

Matrix = tuple[tuple[Fraction, ...], ...]


def _matrix(rows: Sequence[Sequence], nrows: int, ncols: int, what: str) -> Matrix:
    label = f"{what}: entries"
    try:
        out = tuple(tuple(exact_rational(x, label) for x in _sequence(row)) for row in _sequence(rows))
    except TypeError:  # the rows, or one of them, is not a sequence
        out = None
    if out is None or len(out) != nrows or any(len(row) != ncols for row in out):
        raise GcaError(f"{what}: expected a {nrows}x{ncols} matrix")
    return out


def _sequence(value):
    """``value``, to be iterated as a matrix or a row; a string, which would
    iterate into one-character entries, raises TypeError."""
    if isinstance(value, str):
        raise TypeError("a string is no matrix or row")
    return value


@dataclass(frozen=True)
class SpaceFormSpec:
    """S^n / Gamma with a marked nontrivial element h.

    ``r`` is the order of the centralizer C(h), which is cyclic for these
    groups; ``element_order`` is the order of h and divides r.  An
    even-dimensional sphere admits only the antipodal Z_2 action, so even n
    forces r = element_order = 2.
    """

    n: int
    r: int
    element_order: int = 2

    def __post_init__(self):
        exact_int(self.n, 2, "sphere dimension must be an integer >= 2, got {value}")
        exact_int(self.r, 2, "centralizer order must be an integer >= 2, got {value}")
        exact_int(self.element_order, 2,
                  "element order must be an integer >= 2 (h is nontrivial), got {value}")
        if self.n % 2 == 0 and (self.r != 2 or self.element_order != 2):
            raise GcaError(
                f"S^{self.n} is even-dimensional: the only free isometric action is Z_2, "
                f"so r = element_order = 2 is required"
            )
        if self.r % self.element_order:
            raise GcaError(f"element order {self.element_order} must divide r = {self.r}")

    @property
    def parity(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"


def sphere_rational_homotopy(n: int, i: int) -> int:
    """dim pi_i(S^n) tensor Q: one-dimensional exactly at i = n and, for even
    n, also at i = 2n - 1; zero otherwise."""
    message = "sphere_rational_homotopy requires n >= 2 and i >= 2"
    exact_int(n, 2, message)
    exact_int(i, 2, message)
    if n % 2 == 0:
        return 1 if i in (n, 2 * n - 1) else 0
    return 1 if i == n else 0


@dataclass(frozen=True)
class ActionEntry:
    """One degree of the h-action data: dim pi_i^Q(M) and the matrix of
    f_i = h_i - id on it."""

    degree: int
    dim: int
    matrix: Matrix

    def __post_init__(self):
        exact_int(self.degree, 2, "action degrees are integers >= 2, got {value}")
        exact_int(self.dim, 0, "dimension must be a non-negative integer")
        object.__setattr__(self, "matrix", _matrix(self.matrix, self.dim, self.dim, f"f_{self.degree}"))


@dataclass(frozen=True)
class ActionData:
    entries: tuple[ActionEntry, ...]

    def __post_init__(self):
        entries = tuple(
            e if isinstance(e, ActionEntry) else ActionEntry(*e) for e in self.entries
        )
        degrees = [e.degree for e in entries]
        if degrees != sorted(set(degrees)):
            raise GcaError("action degrees must be strictly increasing")
        object.__setattr__(self, "entries", entries)

    def entry(self, degree: int) -> ActionEntry | None:
        for e in self.entries:
            if e.degree == degree:
                return e
        return None

    def kernel_dim(self, degree: int) -> int:
        e = self.entry(degree)
        if e is None or e.dim == 0:
            return 0
        return e.dim - linalg.rank(e.matrix)

    # the matrices are square, so kernel and cokernel dimensions coincide;
    # both names are kept for readability at the call sites
    cokernel_dim = kernel_dim


@dataclass(frozen=True)
class HomotopyTable:
    """dim pi_i^Q per degree i >= 2, plus the order of the finite cyclic
    pi_1 (0 means "not computed", 1 means trivial)."""

    dims: tuple[tuple[int, int], ...]
    pi1: int = 0

    def __post_init__(self):
        message = "homotopy dimensions are non-negative integers in integer degrees >= 2"
        kept = []
        for d, v in self.dims:
            if exact_int(v, 0, message):  # a zero dimension is dropped, whatever its degree
                exact_int(d, 2, message)
                kept.append((d, v))
        exact_int(self.pi1, 0, "pi_1 order must be an integer >= 1, or 0 for 'not computed'")
        object.__setattr__(self, "dims", tuple(sorted(kept)))

    def dim(self, degree: int) -> int:
        for d, v in self.dims:
            if d == degree:
                return v
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.dims)


def loop_space_dims(action: ActionData, max_degree: int) -> HomotopyTable:
    """Ranks of pi_i^Q of the loop component from the exact sequence of the
    evaluation fibration: dims[i] = dim ker(f_i) + dim coker(f_{i+1}).

    Degrees absent from the action data carry zero groups, hence contribute
    nothing; pi_1 is left as "not computed".
    """
    exact_int(max_degree, 0, _MAX_DEGREE_MESSAGE)
    dims = []
    for i in range(2, max_degree + 1):
        v = action.kernel_dim(i) + action.cokernel_dim(i + 1)
        if v:
            dims.append((i, v))
    return HomotopyTable(tuple(dims), pi1=0)


def standard_action_data(spec: SpaceFormSpec) -> ActionData:
    """The h-action on pi_*^Q(S^n/Gamma) for a nontrivial h.

    Fixture facts about deck transformations: on an odd sphere every deck
    transformation is a rotation, homotopic to the identity, so f_n = 0.
    On an even sphere the deck transformation is the antipodal map of
    degree -1, so f_{2k} = -2 on pi_2k = Z; the top rational class in
    degree 4k-1 is the Whitehead square of the degree-2k generator, which h
    fixes, so f_{4k-1} = 0.
    """
    if spec.n % 2:
        return ActionData(((spec.n, 1, ((Fraction(0),),)),))
    k = spec.n // 2
    return ActionData(
        (
            (2 * k, 1, ((Fraction(-2),),)),
            (4 * k - 1, 1, ((Fraction(0),),)),
        )
    )


def theorem1_table(spec: SpaceFormSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> HomotopyTable:
    """Homotopy table of the loop component Lambda(M)[h].

    Rational dimensions come from ``loop_space_dims`` over the standard
    action data; pi_1 equals the centralizer order r for n >= 3, and is
    cyclic of order 4 for the projective plane, where the boundary class
    [kappa] of the fibration is twice a lift [eta].
    """
    table = loop_space_dims(standard_action_data(spec), max_degree)
    if spec.n == 2:
        pi1 = classify_order4_extension(True).order
    else:
        pi1 = spec.r
    return HomotopyTable(table.dims, pi1=pi1)


def theorem2_table(spec: SpaceFormSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> HomotopyTable:
    """Homotopy table of the SO(2) homotopy quotient of the loop component.

    The circle fibration over the quotient adds one rational dimension in
    degree 2; pi_1 becomes C(h)/<h> (order r / element_order) for odd n >= 3
    and is trivial for even n.
    """
    base = theorem1_table(spec, max_degree)
    dims = dict(base.dims)
    if max_degree >= 2:
        dims[2] = dims.get(2, 0) + 1
    if spec.n % 2:
        pi1 = spec.r // spec.element_order
    else:
        pi1 = 1
    return HomotopyTable(tuple(dims.items()), pi1=pi1)


# ---------------------------------------------------------------------------
# order-4 extension arithmetic


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group given by invariant factors, e.g. (4,) or (2, 2)."""

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    @property
    def name(self) -> str:
        return " x ".join(f"Z{f}" for f in self.invariant_factors)

    def elements(self) -> list[tuple[int, ...]]:
        out = [()]
        for f in self.invariant_factors:
            out = [e + (x,) for e in out for x in range(f)]
        return out

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % f for x, y, f in zip(a, b, self.invariant_factors))

    def element_order(self, a: tuple[int, ...]) -> int:
        acc = a
        n = 1
        zero = (0,) * len(self.invariant_factors)
        while acc != zero:
            acc = self.add(acc, a)
            n += 1
        return n


CYCLIC4 = AbelianGroup((4,))
KLEIN4 = AbelianGroup((2, 2))


def _admits_kappa_eq_two_eta(group: AbelianGroup) -> bool:
    # exhaustive search for kappa != 0 with 2*kappa = 0 and eta with 2*eta = kappa
    zero = (0,) * len(group.invariant_factors)
    for kappa in group.elements():
        if kappa == zero or group.add(kappa, kappa) != zero:
            continue
        for eta in group.elements():
            if group.add(eta, eta) == kappa:
                return True
    return False


def classify_order4_extension(kappa_equals_two_eta: bool) -> AbelianGroup:
    """Identify the middle group of 0 -> Z2 -> G -> Z2 -> 0 by exhaustive
    check over the two groups of order 4.

    The kernel is generated by a class [kappa] with 2[kappa] = 0; when some
    lift [eta] of the quotient generator satisfies 2[eta] = [kappa] != 0 the
    group has an element of order 4 and is cyclic, otherwise the extension
    splits.
    """
    matching = [g for g in (CYCLIC4, KLEIN4) if _admits_kappa_eq_two_eta(g) == kappa_equals_two_eta]
    if kappa_equals_two_eta:
        assert matching == [CYCLIC4]
        return CYCLIC4
    assert KLEIN4 in matching
    return KLEIN4


# ---------------------------------------------------------------------------
# minimal models of the circle quotients


def theorem3_model(spec: SpaceFormSpec) -> DgaModel:
    """Minimal model of the SO(2) homotopy quotient of the loop component.

    For n = 2k the generators have degrees 2, 4k-2, 4k-1 with the top
    differential u2^(2k) (the exponent is forced by degree accounting, since
    the differential raises degree by exactly one).  For n = 2k+1 they have
    degrees 2, 2k, 2k+1 with top differential u2^(k+1).  When the middle
    generator also has degree 2 it is named v2.
    """
    if spec.n % 2 == 0:
        k = spec.n // 2
        mid, top, power = 4 * k - 2, 4 * k - 1, 2 * k
    else:
        k = (spec.n - 1) // 2
        mid, top, power = 2 * k, 2 * k + 1, k + 1
    mid_name = "v2" if mid == 2 else f"u{mid}"
    top_name = f"u{top}"
    return DgaModel(
        [("u2", 2), (mid_name, mid), (top_name, top)],
        {top_name: [(1, {"u2": power})]},
        name=f"loop_quotient_s{spec.n}",
    )


def euler_class(model: DgaModel) -> AlgebraElement:
    """The degree-2 Euler class of the circle fibration over the model:
    the first degree-2 generator with zero differential."""
    for g in model.generators:
        if g.degree == 2 and model.differential_of(g.name).is_zero:
            return model.gen(g.name)
    raise GcaError(f"model {model.name!r} has no closed degree-2 generator")


def _euler_reads(data: ComplexData, euler: AlgebraElement | None) -> Iterator[tuple[int, list, int]]:
    """The gate and class reads of :func:`euler_action_matrices`: (p, one (numerators, den)
    read per degree-p representative of its product with scale * euler, scale)."""
    model = data.model
    if euler is None:
        euler = euler_class(model)
    data._check_element(euler, 2)
    e, scale = integer_terms(euler.terms)
    for p in range(data.max_degree - 1):
        dd = data.degrees[p]
        products = (multiply_terms(model, e, dd.terms(rep)) for rep in dd.reps)
        yield p, [data._class_numerators(terms, p + 2) for terms in products], scale


def euler_action_matrices(
    data: ComplexData, euler: AlgebraElement | None = None
) -> list[Matrix]:
    """Cup product by the Euler class on representative bases: the matrix at
    index p sends the degree-p classes to degree p+2.

    The Euler class is scaled to integers once, by the lcm of its
    denominators, and multiplied into each integer representative, read by
    its nonzero entries; each product's class is read in integers (see
    :meth:`ComplexData.class_coordinates`), one read per representative of
    degrees 0..max_degree-2, and a Fraction is formed only for a nonzero
    matrix entry; every zero entry is one shared Fraction(0).  An Euler
    class of another model, of a degree other than 2, or that is not a
    cocycle raises the error that ``data.class_coordinates(euler, 2)``
    raises; the first two are refused by the gate of every class query (see
    :meth:`ComplexData._check_element`), also below degree 2, where there
    is no map and the answer is []."""
    zero = Fraction(0)
    return [tuple(zip(*[[Fraction(n, den * scale) if n else zero for n in nums] for nums, den in reads]))
            if reads else ((),) * len(data.degrees[p + 2].reps)
            for p, reads, scale in _euler_reads(data, euler)]


def euler_action_ranks(data: ComplexData, euler: AlgebraElement | None = None) -> list[int]:
    """The rank of each map of :func:`euler_action_matrices`, index p from
    degree p, from the same class reads and gate: each read's numerators,
    as a sparse {row: int} column, go to :func:`linalg.sparse_rank`.  A
    column is its matrix column times its denominator, which leaves the
    rank unchanged, so no Fraction is formed."""
    return [linalg.sparse_rank([{i: n for i, n in enumerate(nums) if n} for nums, _ in reads])
            for _, reads, _ in _euler_reads(data, euler)]


# ---------------------------------------------------------------------------
# Gysin rank consistency


@dataclass(frozen=True)
class GysinInput:
    """Data of a circle bundle: base Betti table, cup-by-Euler-class maps
    (index p maps degree p to p+2; a matrix, its rank as a plain int in
    0..min(rows, cols), all the rank identity reads, or None for a zero
    map), and the claimed total-space Betti table, of the same truncation."""

    base: BettiTable
    euler: tuple[Matrix | int | None, ...]
    total: BettiTable

    def __post_init__(self):
        if self.base.max_degree != self.total.max_degree:
            raise GcaError("base and total tables must share max_degree")
        euler = []
        for p, m in enumerate(self.euler):
            nrows, ncols = self.base._dim(p + 2), self.base._dim(p)
            if isinstance(m, int):  # a rank; a bool is refused
                if isinstance(m, bool) or not 0 <= m <= min(nrows, ncols):
                    raise GcaError(f"euler action at degree {p}: a rank must be an integer in "
                                   f"0..{min(nrows, ncols)}, got {m!r}")
                m = int(m)
            elif m is not None:
                m = _matrix(m, nrows, ncols, f"euler action at degree {p}")
            euler.append(m)
        object.__setattr__(self, "euler", tuple(euler))

    def euler_rank(self, p: int) -> int:
        return _euler_rank(self.euler, p)


def _euler_rank(euler: Sequence[Matrix | int | None], p: int) -> int:
    """Rank of the Euler map from degree p, a rank given as is; zero for an absent map."""
    if 0 <= p < len(euler) and (m := euler[p]) is not None:
        return m if isinstance(m, int) else linalg.rank(m)
    return 0


def _rank_identity(
    base: BettiTable, euler: Sequence[Matrix | int | None], top: int
) -> list[tuple[int, int]]:
    """(coker, ker) in each degree p = 0..top: the cokernel of the Euler map
    from p-2 to p and the kernel of the Euler map from p-1 to p+1.  Each
    matrix is ranked once."""
    ranks = [_euler_rank(euler, q) for q in range(-2, top)]  # ranks[p]: the map from p-2
    return [(base._dim(p) - ranks[p], base._dim(p - 1) - ranks[p + 1]) for p in range(top + 1)]


GYSIN_CONVENTIONS = (
    "out-of-range degrees carry zero groups and zero maps; "
    "euler maps beyond the supplied list are zero"
)


@dataclass(frozen=True)
class GysinReport:
    passed: bool
    checked_up_to: int
    first_failure: int | None
    detail: str
    conventions: str = GYSIN_CONVENTIONS

    def format(self) -> str:
        if self.passed:
            return (
                f"pass  rank identity holds for degrees 0..{self.checked_up_to}\n"
                f"note: {self.conventions}"
            )
        return (
            f"FAIL at degree {self.first_failure}: {self.detail}\n"
            f"note: {self.conventions}"
        )


def check_gysin_degree(max_degree: int) -> None:
    """Raise GcaError unless a Gysin check truncated at max_degree checks
    some degree: it checks degrees 0..max_degree-2 (see :func:`gysin_check`),
    so it needs max_degree >= 2."""
    if max_degree < 2:
        raise GcaError(
            f"gysin-check checks degrees 0..max_degree-2, so it needs max_degree >= 2, got {max_degree}"
        )


def gysin_check(inputs: GysinInput) -> GysinReport:
    """Verify the circle-bundle rank identity
    total[p] = dim coker(euler at p-2) + dim ker(euler at p-1)
    for every p up to max_degree - 2 (higher degrees would consult maps
    beyond the truncation).  Raises GcaError when that leaves no degree
    (see :func:`check_gysin_degree`)."""
    check_gysin_degree(inputs.base.max_degree)
    top = inputs.base.max_degree - 2
    for p, (coker, ker) in enumerate(_rank_identity(inputs.base, inputs.euler, top)):
        expected = coker + ker
        got = inputs.total._dim(p)
        if expected != got:
            detail = (
                f"total dimension is {got} but coker({p - 2}->{p}) + ker({p - 1}->{p + 1}) "
                f"= {coker} + {ker} = {expected}"
            )
            return GysinReport(False, top, p, detail)
    return GysinReport(True, top, None, "")


def rank_identity_totals(base: BettiTable, euler: Sequence[Matrix | int | None]) -> BettiTable:
    """The total-space Betti table forced by the rank identity (degrees
    within max_degree - 2; the last two degrees are filled by the same
    formula with out-of-range maps treated as zero)."""
    return BettiTable.from_dims(
        [coker + ker for coker, ker in _rank_identity(base, euler, base.max_degree)]
    )


def circle_quotient_gysin_input(spec: SpaceFormSpec, max_degree: int = DEFAULT_MAX_DEGREE) -> GysinInput:
    """Self-consistency fixture: base = cohomology of the quotient's minimal
    model, Euler action = cup product by u2, totals derived from the rank
    identity."""
    model = theorem3_model(spec)
    data = cochain_complex(model, max_degree)
    base = data.betti()
    euler = tuple(euler_action_matrices(data))
    total = rank_identity_totals(base, euler)
    return GysinInput(base, euler, total)
