"""Generalized Lie bialgebras: verification, constructors, and classification.

A generalized Lie bialgebra pairs a Lie algebra g carrying a 1-cocycle phi0
with a Lie algebra structure on g* carrying a 1-cocycle X0 in g, subject to
three compatibility conditions (check_glb).  The constructors here either
assemble the dual bracket from Yang-Baxter-type data, transplant a cocycle
onto an abelian base, or instantiate the three compact kinds; the
classification walks the opposite direction and certifies which kind a
compact example belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import isqrt

from liejacobi.exterior import Form, Multivector, contract, evaluate_on, pair, wedge
from liejacobi.jacobi import (
    CharacteristicSubalgebra,
    ContactStructure,
    JacobiPair,
    characteristic_subalgebra,
    check_jacobi,
    contact_to_jacobi,
    jacobi_to_lcs,
    rank,
    sharp,
)
from liejacobi.liealg import (
    CompactnessReport,
    LieAlgebra,
    LinearMap,
    Subspace,
    ValidationReport,
    abelian,
    center,
    change_basis,
    coordinates,
    direct_product,
    dual_label,
    invariant_scalar_product,
    is_compact,
    is_derivation,
    killing_form,
    restrict,
    restrict_bivector,
)
from liejacobi.linalg import ZERO, invert, nullspace, solve, transpose
from liejacobi.schouten import (
    check_cocycle,
    ce_differential,
    schouten,
    twisted_ad,
    twisted_differential,
)


@dataclass(frozen=True)
class GeneralizedBialgebra:
    """Quadruple ((g, phi0), (g*, x0)); check_glb decides validity."""

    g: LieAlgebra
    g_star: LieAlgebra
    phi0: Form
    x0: Multivector

    def __post_init__(self):
        if self.g.dim != self.g_star.dim:
            raise ValueError("g and g* must have the same dimension")
        n = self.g.dim
        if not isinstance(self.phi0, Form) or self.phi0.dim != n:
            raise TypeError("phi0 must be a 1-form on g")
        if not self.phi0.is_zero() and self.phi0.grade != 1:
            raise ValueError("phi0 must have grade 1")
        if not isinstance(self.x0, Multivector) or self.x0.dim != n:
            raise TypeError("x0 must be a vector of g")
        if not self.x0.is_zero() and self.x0.grade != 1:
            raise ValueError("x0 must have grade 1")


@dataclass(frozen=True)
class GlbReport:
    bialgebra: GeneralizedBialgebra
    primal: ValidationReport
    dual: ValidationReport
    phi0_cocycle: Form              # d phi0 over g
    x0_cocycle: Multivector         # d_* x0 over g*
    bracket_compat: tuple           # ((i, j), residual 2-vector) entries, nonzero only
    pairing: Fraction               # phi0(x0)
    contraction_compat: tuple       # (i, residual vector) entries, nonzero only

    @property
    def passed(self) -> bool:
        return (self.primal.passed and self.dual.passed
                and self.phi0_cocycle.is_zero() and self.x0_cocycle.is_zero()
                and not self.bracket_compat and self.pairing == 0
                and not self.contraction_compat)

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return "generalized bialgebra: all conditions hold"
        g = self.bialgebra.g
        labels, duals = g.basis_labels, self.bialgebra.g_star.basis_labels
        lines = ["generalized bialgebra fails:"]
        if not self.primal.passed:
            lines.append("  base algebra: " + self.primal.describe())
        if not self.dual.passed:
            lines.append("  dual algebra: " + self.dual.describe())
        if not self.phi0_cocycle.is_zero():
            lines.append(f"  d(phi0) = {self.phi0_cocycle.render(duals)}")
        if not self.x0_cocycle.is_zero():
            lines.append(f"  d_*(x0) = {self.x0_cocycle.render(labels)}")
        for (i, j), res in self.bracket_compat:
            lines.append(f"  bracket compatibility at ({labels[i]}, {labels[j]}): "
                         f"{res.render(labels)}")
        if self.pairing != 0:
            lines.append(f"  phi0(x0) = {self.pairing}")
        for i, res in self.contraction_compat:
            lines.append(f"  contraction identity at {labels[i]}: {res.render(labels)}")
        return "\n".join(lines)


def check_glb(b: GeneralizedBialgebra) -> GlbReport:
    """Verify both cocycle conditions and the three compatibility identities."""
    return _check_glb(b)[0]


def _check_glb(b: GeneralizedBialgebra) -> tuple[GlbReport, list[Multivector]]:
    # check_glb, also handing over d_basis[i] = d_{*X0}(e_i) for each i
    g, gs = b.g, b.g_star
    n = g.dim
    phi_res = ce_differential(g, b.phi0)
    x0_res = ce_differential(gs, b.x0)

    bracket_entries = []
    d_star = [ce_differential(gs, g.basis_vector(i)) for i in range(n)]
    d_basis = [d + wedge(b.x0, g.basis_vector(i)) for i, d in enumerate(d_star)]
    phi = [b.phi0.terms.get((i,), ZERO) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # d_{*X0} is linear: d_{*X0}[e_i, e_j] = sum_k c_ij^k d_basis[k]
            lhs = Multivector.zero(n, 2)
            for (k,), c in g.bracket_basis(i, j).terms.items():
                lhs = lhs + d_basis[k].scale(c)
            # [e_i, P]_{phi0} = [e_i, P] - phi0(e_i) P.  twisted_schouten
            # refuses a phi0 that is not a 1-cocycle; this report states that
            # failure as a residual instead.
            rhs = (schouten(g, g.basis_vector(i), d_basis[j]) - d_basis[j].scale(phi[i])
                   - schouten(g, g.basis_vector(j), d_basis[i]) + d_basis[i].scale(phi[j]))
            res = lhs - rhs
            if not res.is_zero():
                bracket_entries.append(((i, j), res))

    pairing_value = pair(b.phi0, b.x0)

    contraction_entries = []
    for i in range(n):
        res = contract(b.phi0, d_star[i]) + schouten(g, b.x0, g.basis_vector(i))
        if not res.is_zero():
            contraction_entries.append((i, res))

    return GlbReport(b, g.validate(), gs.validate(), phi_res, x0_res,
                     tuple(bracket_entries), pairing_value, tuple(contraction_entries)), d_basis


@dataclass(frozen=True)
class YbData:
    """Inputs for the Yang-Baxter-type construction of the dual bracket."""

    g: LieAlgebra
    phi0: Form
    r: Multivector
    x0: Multivector

    def __post_init__(self):
        n = self.g.dim
        for name, e, kind, grade in (("phi0", self.phi0, Form, 1),
                                     ("r", self.r, Multivector, 2),
                                     ("x0", self.x0, Multivector, 1)):
            if not isinstance(e, kind) or e.dim != n:
                raise TypeError(f"{name} must be a dimension-{n} {kind.__name__.lower()}")
            if not e.is_zero() and e.grade != grade:
                raise ValueError(f"{name} must have grade {grade}")


@dataclass(frozen=True)
class YbReport:
    data: YbData
    cubic: Multivector              # [r,r] - 2 x0^r (not required to vanish)
    cubic_invariance: tuple         # (i, residual 3-vector), nonzero only
    x0_commutes: Multivector        # [x0, r]
    vector: Multivector             # i(phi0) r - x0 (not required to vanish)
    vector_invariance: tuple        # (i, residual vector), nonzero only

    @property
    def passed(self) -> bool:
        return (not self.cubic_invariance and self.x0_commutes.is_zero()
                and not self.vector_invariance)

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return "yang-baxter hypotheses hold"
        labels = self.data.g.basis_labels
        lines = ["yang-baxter hypotheses fail:"]
        for i, res in self.cubic_invariance:
            lines.append(f"  [r,r]-2*x0^r not invariant at {labels[i]}: {res.render(labels)}")
        if not self.x0_commutes.is_zero():
            lines.append(f"  [x0,r] = {self.x0_commutes.render(labels)}")
        for i, res in self.vector_invariance:
            lines.append(f"  i(phi0)r - x0 not invariant at {labels[i]}: {res.render(labels)}")
        return "\n".join(lines)


def check_yb_hypotheses(y: YbData) -> YbReport:
    """The three hypotheses: cubic term invariant for weight 1, [x0,r] = 0,
    and i(phi0)r - x0 invariant for weight 0.

    phi0 must be a 1-cocycle; that is a precondition of the construction,
    not one of the reported checks, so a violation raises.
    """
    g = y.g
    check_cocycle(g, y.phi0)
    cubic = schouten(g, y.r, y.r) - wedge(y.x0, y.r).scale(2)
    vector = contract(y.phi0, y.r) - y.x0
    cubic_entries = []
    vector_entries = []
    for i in range(g.dim):
        x = g.basis_vector(i)
        res3 = twisted_ad(g, y.phi0, 1, x, cubic)
        if not res3.is_zero():
            cubic_entries.append((i, res3))
        res1 = twisted_ad(g, y.phi0, 0, x, vector)
        if not res1.is_zero():
            vector_entries.append((i, res1))
    return YbReport(y, cubic, tuple(cubic_entries),
                    schouten(g, y.x0, y.r), vector, tuple(vector_entries))


def _sharp_images(sharp_map: LinearMap) -> list[Multivector]:
    # #_r(e^i) for every basis covector e^i: the columns of the matrix
    return [Multivector.from_coeffs(col) for col in zip(*sharp_map.matrix)]


def dual_bracket_adjoint_route(g: LieAlgebra, phi0: Form, r: Multivector,
                               x0: Multivector) -> dict:
    """Dual structure constants via coadjoint operators:
    [a,b]* = coad_{#r b} a - coad_{#r a} b + r(a,b) phi0 + i(x0)(a^b),
    with coad_x alpha = -alpha([x, .]) = i(x) d alpha."""
    n = g.dim
    images = _sharp_images(sharp(r))
    d_forms = [ce_differential(g, g.basis_form(i)) for i in range(n)]
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = g.basis_form(i), g.basis_form(j)
            si, sj = images[i], images[j]
            value = (contract(sj, d_forms[i]) - contract(si, d_forms[j])
                     + phi0.scale(pair(wedge(ei, ej), r))
                     + contract(x0, wedge(ei, ej)))
            if not value.is_zero():
                structure[(i, j)] = Multivector.from_coeffs(value.coeffs())
    return structure


def dual_bracket_pointwise_route(g: LieAlgebra, phi0: Form, r: Multivector,
                                 x0: Multivector) -> dict:
    """Dual structure constants by evaluation on basis vectors:
    [a,b]*(X) = -[X,r](a,b) + r(a,b) phi0(X) + a(x0) b(X) - b(x0) a(X)."""
    n = g.dim
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = g.basis_form(i), g.basis_form(j)
            r_ij = pair(wedge(ei, ej), r)
            a_x0, b_x0 = pair(ei, x0), pair(ej, x0)
            coeffs = []
            for k in range(n):
                x = g.basis_vector(k)
                v = -evaluate_on(schouten(g, x, r), ei, ej) + r_ij * pair(phi0, x)
                if k == j:
                    v += a_x0
                if k == i:
                    v -= b_x0
                coeffs.append(v)
            value = Multivector.from_coeffs(coeffs)
            if not value.is_zero():
                structure[(i, j)] = value
    return structure


def build_dual_bracket(y: YbData) -> LieAlgebra:
    """Assemble the dual Lie algebra from Yang-Baxter data.

    Requires the hypotheses to pass; the result is cross-checked against the
    pointwise evaluation route, and the assembled quadruple must pass
    check_glb, which also checks the Jacobi identity of the dual bracket.
    """
    report = check_yb_hypotheses(y)
    if not report.passed:
        raise ValueError(report.describe())
    g = y.g
    structure = dual_bracket_adjoint_route(g, y.phi0, y.r, y.x0)
    other = dual_bracket_pointwise_route(g, y.phi0, y.r, y.x0)
    if structure != other:
        raise ValueError("dual bracket routes disagree; construction is inconsistent")
    dual = LieAlgebra(f"{g.name}*", g.dim, g.dual_labels, structure)
    glb_report = check_glb(GeneralizedBialgebra(g, dual, y.phi0, y.x0))
    if not glb_report.passed:
        raise ValueError("assembled pair is not a generalized bialgebra:\n"
                         + glb_report.describe())
    return dual


@dataclass(frozen=True)
class SharpCertificate:
    """Certificate that -#_r intertwines the dual and primal brackets."""

    homomorphism: bool
    isomorphism: bool


@dataclass(frozen=True)
class JacobiBuildResult:
    bialgebra: GeneralizedBialgebra
    certificate: SharpCertificate


def build_from_jacobi(y: YbData) -> JacobiBuildResult:
    """Dual bracket from a Jacobi pair with i(phi0) r = x0.

    Beyond the generalized-bialgebra conditions this certifies that -#_r is
    a Lie algebra homomorphism g* -> g, an isomorphism when the pair has
    full even rank.
    """
    g = y.g
    failures = []
    jp = JacobiPair(g, y.r, y.x0)
    jacobi_report = check_jacobi(jp)
    if not jacobi_report.passed:
        failures.append(jacobi_report.describe())
    vector = contract(y.phi0, y.r) - y.x0
    if not vector.is_zero():
        failures.append(f"i(phi0) r - x0 = {vector.render(g.basis_labels)}")
    if not ce_differential(g, y.phi0).is_zero():
        failures.append("phi0 is not a 1-cocycle")
    if failures:
        raise ValueError("jacobi construction preconditions fail:\n  " + "\n  ".join(failures))
    dual = build_dual_bracket(y)
    bialgebra = GeneralizedBialgebra(g, dual, y.phi0, y.x0)
    sharp_map = sharp(y.r)
    images = _sharp_images(sharp_map)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = sharp_map.apply_element(dual.bracket_basis(i, j))
            rhs = -g.bracket(images[i], images[j])
            if Multivector.from_coeffs(lhs.coeffs()) != rhs:
                raise ValueError("sharp map is not a homomorphism; construction is inconsistent")
    full_even = g.dim % 2 == 0 and rank(jp) == g.dim
    if full_even:
        invert(sharp_map.rows)   # raises if singular; cannot happen at full rank
    return JacobiBuildResult(bialgebra, SharpCertificate(True, full_even))


@dataclass(frozen=True)
class CoboundarySolutions:
    """Affine set of 2-vectors r solving d_{*X0} = ad_{(phi0,1)}(.)(r)."""

    particular: Multivector | None
    homogeneous: tuple

    @property
    def is_empty(self) -> bool:
        return self.particular is None


def solve_coboundary(b: GeneralizedBialgebra) -> CoboundarySolutions:
    """Decide whether the twisted dual differential is exact.

    Solves the linear system d_{*X0}(e_i) = [e_i, r] - phi0(e_i) r over the
    coefficients of r; the full affine solution set is returned because the
    generator is never unique.
    """
    report, d_basis = _check_glb(b)
    if not report.passed:
        raise ValueError("input is not a generalized bialgebra:\n" + report.describe())
    n = b.g.dim
    unknowns = list(combinations(range(n), 2))
    solution = solve(*_coboundary_system(b, d_basis))
    if solution is None:
        return CoboundarySolutions(None, tuple())
    particular, homogeneous = solution
    def to_bivector(coeffs):
        return Multivector.from_terms(n, 2, {unknowns[k]: coeffs[k]
                                             for k in range(len(unknowns)) if coeffs[k] != 0})
    return CoboundarySolutions(to_bivector(particular),
                               tuple(to_bivector(h) for h in homogeneous))


def _coboundary_system(b: GeneralizedBialgebra, d_basis: list[Multivector]) -> tuple[list, list]:
    """(rows, rhs) of [e_i, r] - phi0(e_i) r = d_basis[i] over the coefficients
    of r, one row per i and target e_p^e_q, one column per e_a^e_c, both in
    combinations order.

    Read from the integer table of g:
      [e_i, e_a^e_c] = [e_i, e_a]^e_c + e_a^[e_i, e_c],
    with phi0(e_i) subtracted on the diagonal.
    """
    n = b.g.dim
    den, table = b.g._ad
    pairs = list(combinations(range(n), 2))
    position = {t: k for k, t in enumerate(pairs)}
    width = len(pairs)
    acc: dict[tuple[int, int], int] = {}     # (row, column) -> numerator over den

    def add(i, p, q, col, v):
        # v e_p^e_q in the block of e_i, column col, written on the sorted pair
        if p < q:
            key = (i * width + position[p, q], col)
            acc[key] = acc.get(key, 0) + v
        elif p > q:
            key = (i * width + position[q, p], col)
            acc[key] = acc.get(key, 0) - v

    for i in range(n):
        for col, (a, c) in enumerate(pairs):
            for m, v in table[i].get(a, {}).items():     # [e_i, e_a]^e_c
                add(i, m, c, col, v)
            for m, v in table[i].get(c, {}).items():     # e_a^[e_i, e_c]
                add(i, a, m, col, v)
    rows = [[ZERO] * width for _ in range(n * width)]
    for (row, col), v in acc.items():
        if v:
            rows[row][col] = Fraction(v, den)
    for i in range(n):
        phi_i = b.phi0.terms.get((i,), ZERO)
        if phi_i:
            for k in range(width):
                rows[i * width + k][k] -= phi_i
    rhs = [d.terms.get(t, ZERO) for d in d_basis for t in pairs]
    return rows, rhs


def glb_from_cocycle(g: LieAlgebra, phi: Form) -> GeneralizedBialgebra:
    """Transplant g's bracket to the dual side of an abelian base.

    The base algebra is abelian of the same dimension, the dual carries g's
    structure constants, phi0 = 0 and x0 = phi; phi must be a 1-cocycle of g
    for the dual cocycle condition to hold.
    """
    n = g.dim
    if not isinstance(phi, Form) or phi.dim != n or (not phi.is_zero() and phi.grade != 1):
        raise TypeError("phi must be a 1-form on g")
    check_cocycle(g, phi)
    base = abelian(n, name=f"{g.name}.base")
    dual = LieAlgebra(f"{g.name}.cocycle*", n, tuple(dual_label(l) for l in base.basis_labels),
                      g.structure)
    b = GeneralizedBialgebra(base, dual, Form.zero(n, 1),
                             Multivector.from_coeffs(phi.coeffs()))
    report = check_glb(b)
    if not report.passed:
        raise ValueError("cocycle construction failed:\n" + report.describe())
    return b


def _solve_cocycle_with_values(g: LieAlgebra, constraints: list) -> Form:
    """Deterministic 1-cocycle of g taking prescribed values on given vectors.

    `constraints` is a list of (vector coefficients, value) pairs; raises if
    the combined linear system has no solution.
    """
    rows = [v.coeffs() for v in g.structure.values()]
    rhs = [ZERO] * len(rows)
    for coeffs, value in constraints:
        rows.append(list(coeffs))
        rhs.append(value)
    sol = solve(rows, rhs)
    if sol is None:
        raise ValueError("no 1-cocycle satisfies the prescribed values")
    return Form.from_coeffs(sol[0])


def _require_compact(g: LieAlgebra) -> CompactnessReport:
    report = is_compact(g)
    if not report.compact:
        raise ValueError(f"{g.name} is not of compact type: " + report.describe())
    return report


def build_first_kind(g: LieAlgebra, h: Subspace, r: Multivector,
                     phi0: Form) -> GeneralizedBialgebra:
    """Compact kind with x0 = 0: abelian even-dimensional h, r nondegenerate
    on h, phi0 a nonzero 1-cocycle vanishing on h."""
    _require_compact(g)
    n = g.dim
    failures = []
    basis_vectors = h.elements()
    m = h.rank
    if m % 2:
        failures.append("h must be even-dimensional")
    for a in range(m):
        for b in range(a + 1, m):
            if not g.bracket(basis_vectors[a], basis_vectors[b]).is_zero():
                failures.append(f"h is not abelian (witness pair {a + 1}, {b + 1})")
                break
    if r.is_zero():
        if m:
            failures.append("r is degenerate on h")
    else:
        restricted = restrict_bivector(r, h.rows)
        if restricted is None:
            failures.append("r does not lie in the second exterior power of h")
        else:
            # nondegeneracy on h: the restricted sharp matrix must be invertible
            try:
                invert(sharp(restricted).rows)
            except ValueError:
                failures.append("r is degenerate on h")
    if phi0.is_zero():
        failures.append("phi0 must be nonzero")
    if any(pair(phi0, v) != 0 for v in basis_vectors):
        failures.append("phi0 must vanish on h")
    if not ce_differential(g, phi0).is_zero():
        failures.append("phi0 is not a 1-cocycle")
    if failures:
        raise ValueError("first-kind hypotheses fail:\n  " + "\n  ".join(failures))
    return build_from_jacobi(YbData(g, phi0, r, g.zero_vector())).bialgebra


def build_second_kind(g: LieAlgebra, e1: Multivector, e2: Multivector,
                      lam, lam1, lam2) -> GeneralizedBialgebra:
    """Compact kind with r = lam e1^e2 and x0 = lam1 e1 + lam2 e2 for a
    commuting independent pair; phi0 is the cocycle forced by i(phi0) r = x0."""
    _require_compact(g)
    lam, lam1, lam2 = Fraction(lam), Fraction(lam1), Fraction(lam2)
    failures = []
    if lam == 0:
        failures.append("lam must be nonzero")
    if not g.bracket(e1, e2).is_zero():
        failures.append("e1 and e2 must commute")
    if Subspace.from_elements([e1, e2]).rank != 2:
        failures.append("e1 and e2 must be linearly independent")
    if failures:
        raise ValueError("second-kind hypotheses fail:\n  " + "\n  ".join(failures))
    r = wedge(e1, e2).scale(lam)
    x0 = e1.scale(lam1) + e2.scale(lam2)
    phi0 = _solve_cocycle_with_values(g, [(e1.coeffs(), lam2 / lam),
                                          (e2.coeffs(), -lam1 / lam)])
    return build_from_jacobi(YbData(g, phi0, r, x0)).bialgebra


def _check_su2_triple(g: LieAlgebra, e1: Multivector, e2: Multivector,
                      e3: Multivector) -> list:
    failures = []
    for (a, b, c, la, lb) in (((e1, e2, e3, "e1", "e2")),
                              ((e2, e3, e1, "e2", "e3")),
                              ((e3, e1, e2, "e3", "e1"))):
        if g.bracket(a, b) != c:
            failures.append(f"[{la}, {lb}] does not close the triple")
    return failures


def third_kind_pair(e1: Multivector, e2: Multivector, e3: Multivector,
                    e4: Multivector, lambdas) -> tuple[Multivector, Multivector]:
    """The (r, x0) family attached to a triple and a transverse vector:
    r = l1 (e2^e3 - e4^e1) - l2 (e1^e3 + e4^e2) + l3 (e1^e2 - e4^e3),
    x0 = -(l1 e1 + l2 e2 + l3 e3)."""
    l1, l2, l3 = (Fraction(v) for v in lambdas)
    r = ((wedge(e2, e3) - wedge(e4, e1)).scale(l1)
         - (wedge(e1, e3) + wedge(e4, e2)).scale(l2)
         + (wedge(e1, e2) - wedge(e4, e3)).scale(l3))
    x0 = -(e1.scale(l1) + e2.scale(l2) + e3.scale(l3))
    return r, x0


def build_third_kind(g: LieAlgebra, e1: Multivector, e2: Multivector,
                     e3: Multivector, e4: Multivector, lambdas) -> GeneralizedBialgebra:
    """Compact kind built on a standard triple [e1,e2]=e3, [e2,e3]=e1,
    [e3,e1]=e2 plus a commuting e4; phi0 vanishes on the triple and takes the
    value 1 on e4."""
    _require_compact(g)
    if len(lambdas) != 3:
        raise ValueError("lambdas must have three entries")
    l1, l2, l3 = (Fraction(v) for v in lambdas)
    failures = _check_su2_triple(g, e1, e2, e3)
    for i, v in enumerate((e1, e2, e3)):
        if not g.bracket(e4, v).is_zero():
            failures.append(f"e4 does not commute with triple entry {i + 1}")
    if Subspace.from_elements([e1, e2, e3, e4]).rank != 4:
        failures.append("e1..e4 must be linearly independent")
    if (l1, l2, l3) == (0, 0, 0):
        failures.append("lambdas must not all vanish")
    if failures:
        raise ValueError("third-kind hypotheses fail:\n  " + "\n  ".join(failures))
    r, x0 = third_kind_pair(e1, e2, e3, e4, (l1, l2, l3))
    phi0 = _solve_cocycle_with_values(g, [(e1.coeffs(), ZERO), (e2.coeffs(), ZERO),
                                          (e3.coeffs(), ZERO), (e4.coeffs(), Fraction(1))])
    return build_from_jacobi(YbData(g, phi0, r, x0)).bialgebra


@dataclass(frozen=True)
class ExtractionResult:
    pair: JacobiPair
    characteristic: CharacteristicSubalgebra


def extract_jacobi(b: GeneralizedBialgebra, y0: Multivector) -> ExtractionResult:
    """Recover the Jacobi pair of a generalized bialgebra from a central y0
    with phi0(y0) = 1: r = -d_{*x0}(y0), then x0 = i(phi0) r and the dual
    bracket must coincide with the one rebuilt from (r, x0, phi0)."""
    report = check_glb(b)
    if not report.passed:
        raise ValueError("input is not a generalized bialgebra:\n" + report.describe())
    return _extract_checked(b, y0, center(b.g))


def _extract_checked(b: GeneralizedBialgebra, y0: Multivector,
                     center_g: Subspace) -> ExtractionResult:
    # extract_jacobi after check_glb(b) has passed; center_g is center(b.g)
    g = b.g
    if not center_g.contains_element(y0):
        raise ValueError("y0 must be central in g")
    if pair(b.phi0, y0) != 1:
        raise ValueError("y0 must satisfy phi0(y0) = 1")
    r = -twisted_differential(b.g_star, b.x0, y0)    # x0 is a 1-cocycle: check_glb passed
    if contract(b.phi0, r) != b.x0:
        raise ValueError("extraction failed: i(phi0) r differs from x0")
    jp = JacobiPair(g, r, b.x0)
    jacobi_report = check_jacobi(jp)
    if not jacobi_report.passed:
        raise ValueError("extraction failed:\n" + jacobi_report.describe())
    rebuilt = dual_bracket_adjoint_route(g, b.phi0, r, b.x0)
    if rebuilt != dict(b.g_star.structure):
        raise ValueError("extraction failed: dual bracket does not match the rebuilt one")
    return ExtractionResult(jp, characteristic_subalgebra(jp))


def unit_center_vector(g: LieAlgebra, phi0: Form) -> Multivector | None:
    """Deterministic central vector with phi0-value 1, if one exists:
    z / phi0(z) for the first center row z with phi0(z) != 0."""
    for z in center(g).elements():
        value = pair(phi0, z)
        if value != 0:
            return z.scale(Fraction(1) / value)
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def _candidate_vectors(dim: int):
    """Integer coefficient vectors of max-norm 1 or 2 in a deterministic
    order: by max-norm, then lexicographically."""
    for radius in (1, 2):
        for t in product(range(-radius, radius + 1), repeat=dim):
            if max(map(abs, t)) == radius:
                yield t


def su2_triple(g: LieAlgebra) -> tuple[Multivector, Multivector, Multivector]:
    """Search a 3-dimensional compact algebra for a standard triple.

    Looks for E1 with Killing square -2 whose squared adjoint is -Id on the
    orthogonal complement, then completes with E2, E3 = [E1, E2].  The search
    runs over small rational multiples of integer vectors; failure raises
    with a diagnostic (a rational triple need not exist for every rational
    form, only for the catalog ones).
    """
    if g.dim != 3:
        raise ValueError("triple search requires dimension 3")
    k = killing_form(g)

    def normalize(coeffs):
        v = [Fraction(c) for c in coeffs]
        norm = k.value(v, v)
        if norm == 0:
            return None
        t = _rational_sqrt(Fraction(-2) / norm)
        if t is None:
            return None
        return [t * c for c in v]

    for cand in _candidate_vectors(3):
        v1 = normalize(cand)
        if v1 is None:
            continue
        e1 = Multivector.from_coeffs(v1)
        complement = nullspace([k.transpose().apply(v1)])   # v1^T K, as a row
        if len(complement) != 2:
            continue
        ok = True
        for w in complement:
            wv = Multivector.from_coeffs(w)
            if g.bracket(e1, g.bracket(e1, wv)) != -wv:
                ok = False
                break
        if not ok:
            continue
        for mix in _candidate_vectors(2):
            combo = [mix[0] * complement[0][i] + mix[1] * complement[1][i] for i in range(3)]
            v2 = normalize(combo)
            if v2 is None:
                continue
            e2 = Multivector.from_coeffs(v2)
            e3 = g.bracket(e1, e2)
            if not _check_su2_triple(g, e1, e2, e3):
                return e1, e2, e3
    raise ValueError(f"no rational standard triple found in {g.name} "
                     "(searched small integer combinations)")


@dataclass(frozen=True)
class FirstKindCertificate:
    characteristic: CharacteristicSubalgebra
    abelian: bool
    nondegenerate: bool


@dataclass(frozen=True)
class SecondKindCertificate:
    characteristic: CharacteristicSubalgebra
    lam: Fraction
    lam1: Fraction
    lam2: Fraction


@dataclass(frozen=True)
class ThirdKindCertificate:
    characteristic: CharacteristicSubalgebra
    triple: tuple          # (E1, E2, E3) in ambient coordinates
    e4: Multivector        # transverse central vector, ambient coordinates
    lambdas: tuple


@dataclass(frozen=True)
class SemidirectCertificate:
    theta0: Form
    subalgebra: LieAlgebra
    dual_subalgebra: LieAlgebra
    psi: LinearMap
    inclusion: LinearMap   # columns embed the subalgebra into g


@dataclass(frozen=True)
class ClassificationResult:
    kind: str
    y0: Multivector | None
    extraction: ExtractionResult | None
    certificate: object | None

    def describe(self) -> str:
        return f"kind: {self.kind}"


def _b_dual_cocycle(center_g: Subspace, phi: Form) -> Multivector:
    """v with B(v, .) = phi, for the invariant scalar product B and a 1-cocycle
    phi: phi kills [g, g], and B is the identity on the RREF center rows z_k
    and orthogonal to [g, g], so v = sum_k phi(z_k) z_k."""
    values = [pair(phi, z) for z in center_g.elements()]
    return Multivector.from_coeffs([sum((a * z[i] for a, z in zip(values, center_g.rows)), ZERO)
                                    for i in range(center_g.dim)])


def _classify_third(b: GeneralizedBialgebra, extraction: ExtractionResult) -> ThirdKindCertificate:
    char = extraction.characteristic
    h = char.algebra
    incl = char.inclusion
    compact_h = _require_compact(h)
    ls = jacobi_to_lcs(char.pair)
    phi0_h = Form.from_coeffs([pair(b.phi0, incl.apply_element(h.basis_vector(a)))
                               for a in range(h.dim)])
    if ls.lee != -phi0_h:
        raise ValueError("lee form of the restricted pair differs from -phi0")
    y0w_raw = _b_dual_cocycle(compact_h.center, ls.lee)
    y0w = y0w_raw.scale(Fraction(1) / pair(ls.lee, y0w_raw))
    center_h = compact_h.center
    if center_h.rank != 1 or not center_h.contains_element(y0w):
        raise ValueError("restricted algebra does not have the expected 1-dimensional center")
    e4_res = -y0w

    # contact reduction: ker(lee) carries the contact form -i(y0w) Omega
    eta_bar = -contract(y0w, ls.omega2)
    kernel_rows = nullspace([ls.lee.coeffs()])
    derived = compact_h.derived
    if derived.rank != 3 or Subspace.from_vectors(h.dim, kernel_rows).rows != derived.rows:
        raise ValueError("kernel of the lee form does not match the derived algebra")
    h_prime = restrict(h, kernel_rows, f"{h.name}.red")
    eta_prime = Form.from_coeffs([pair(eta_bar, Multivector.from_coeffs(row))
                                  for row in kernel_rows])
    reduced = contact_to_jacobi(ContactStructure(h_prime, eta_prime))

    # r' = r + y0w ^ x0 restricts to the reduced contact pair
    r_prime = char.pair.r + wedge(y0w, char.pair.x0)
    restricted = restrict_bivector(r_prime, kernel_rows)
    x0_coords = coordinates(kernel_rows, char.pair.x0.coeffs())
    if restricted is None or x0_coords is None:
        raise ValueError("contact reduction left the kernel of the lee form")
    if reduced.r != restricted or reduced.x0 != Multivector.from_coeffs(x0_coords):
        raise ValueError("contact reduction does not reproduce the restricted pair")

    kernel = LinearMap.from_columns(kernel_rows)
    triple_h = tuple(kernel.apply_element(t) for t in su2_triple(h_prime))
    lam_coords = coordinates([(-t).coeffs() for t in triple_h], char.pair.x0.coeffs())
    if lam_coords is None:
        raise ValueError("x0 does not lie in the span of the triple")
    lambdas = tuple(lam_coords)
    r_expected, x0_expected = third_kind_pair(*triple_h, e4_res, lambdas)
    if r_expected != char.pair.r or x0_expected != char.pair.x0:
        raise ValueError("restricted pair does not take the standard three-parameter form")
    to_ambient = lambda v: Multivector.from_coeffs(incl.apply(v.coeffs()))
    return ThirdKindCertificate(char, tuple(to_ambient(t) for t in triple_h),
                                to_ambient(e4_res), lambdas)


def _classify_semidirect(b: GeneralizedBialgebra) -> SemidirectCertificate:
    g, gs = b.g, b.g_star
    n = g.dim
    bform = invariant_scalar_product(g)
    theta_raw = bform.transpose().apply(b.x0.coeffs())   # x0^T B, as a row
    theta_raw_form = Form.from_coeffs(theta_raw)
    scale = pair(theta_raw_form, b.x0)
    theta0 = theta_raw_form.scale(Fraction(1) / scale)
    kernel_rows = nullspace([theta0.coeffs()])
    m = n - 1
    if len(kernel_rows) != m:
        raise ValueError("theta0 does not have a hyperplane kernel")
    h = restrict(g, kernel_rows, f"{g.name}.factor")

    # adapted coordinates: kernel basis followed by x0; the dual basis
    # transforms contravariantly, by the inverse transpose
    p_matrix = transpose(kernel_rows + [b.x0.coeffs()])
    adapted_dual = change_basis(gs, transpose(invert(p_matrix))).structure

    dual_structure = {}
    psi_star_rows = []
    for a in range(m):
        mixed = adapted_dual.get((a, m), Multivector.zero(n, 1))
        coeffs = mixed.coeffs()
        if coeffs[m] != 0:
            raise ValueError("adapted dual bracket leaks outside the factor")
        psi_star_rows.append([coeffs[i] for i in range(m)])
    for a in range(m):
        psi_star_rows[a][a] += 1
    psi_star = LinearMap.from_columns(psi_star_rows)   # rows of Psi* are columns of Psi
    psi = psi_star.transpose()
    for a in range(m):
        for c in range(a + 1, m):
            value = adapted_dual.get((a, c), Multivector.zero(n, 1))
            coeffs = value.coeffs()
            if coeffs[m] != 0:
                raise ValueError("adapted dual bracket leaks outside the factor")
            restricted = Multivector.from_coeffs(coeffs[:m])
            if not restricted.is_zero():
                dual_structure[(a, c)] = restricted
    h_star = LieAlgebra(f"{h.name}*", m, tuple(dual_label(f"e{a + 1}") for a in range(m)),
                        dual_structure)

    rebuilt = build_semidirect_glb(h, h_star, psi)
    adapted_primal = change_basis(g, p_matrix).structure
    if adapted_primal != rebuilt.g.structure or adapted_dual != rebuilt.g_star.structure:
        raise ValueError("semidirect reconstruction does not match the input")
    inclusion = LinearMap.from_columns(kernel_rows)
    return SemidirectCertificate(theta0, h, h_star, psi, inclusion)


def classify_compact(b: GeneralizedBialgebra) -> ClassificationResult:
    """Decide which compact family a generalized bialgebra belongs to.

    phi0 = x0 = 0 is an ordinary Lie bialgebra.  For phi0 != 0 the invariant
    scalar product singles out a central y0 with phi0(y0) = 1; extraction
    then yields a Jacobi pair whose rank decides first (x0 = 0), second
    (rank 2) or third (rank 4) kind, each with its certificate.  For
    phi0 = 0, x0 != 0 the algebra splits off the line through x0 and the
    dual is a semidirect product encoded by a derivation.
    """
    compact = _require_compact(b.g)
    report = check_glb(b)
    if not report.passed:
        raise ValueError("input is not a generalized bialgebra:\n" + report.describe())
    if b.phi0.is_zero() and b.x0.is_zero():
        return ClassificationResult("lie-bialgebra", None, None, None)
    if b.phi0.is_zero():
        return ClassificationResult("phi0-zero-semidirect", None, None, _classify_semidirect(b))

    y_raw = _b_dual_cocycle(compact.center, b.phi0)
    scale = pair(b.phi0, y_raw)
    if scale == 0:
        raise ValueError("phi0 vanishes on its dual vector; no unit central vector exists")
    y0 = y_raw.scale(Fraction(1) / scale)
    extraction = _extract_checked(b, y0, compact.center)
    char = extraction.characteristic
    m = char.subspace.rank

    if b.x0.is_zero():
        h = char.algebra
        abelian_ok = not h.structure
        nondeg = True
        if m:
            try:
                invert(sharp(char.pair.r).rows)
            except ValueError:
                nondeg = False
        if not abelian_ok or not nondeg:
            raise ValueError("extraction contradicts the first-kind normal form")
        return ClassificationResult("first", y0, extraction,
                                    FirstKindCertificate(char, abelian_ok, nondeg))
    if m == 2:
        lam = char.pair.r.coefficient((0, 1))
        lam1, lam2 = char.pair.x0.coeffs()
        return ClassificationResult("second", y0, extraction,
                                    SecondKindCertificate(char, lam, lam1, lam2))
    if m == 4:
        return ClassificationResult("third", y0, extraction, _classify_third(b, extraction))
    raise ValueError(f"characteristic rank {m} does not occur for compact algebras")


def build_semidirect_glb(h: LieAlgebra, h_star: LieAlgebra,
                         psi: LinearMap) -> GeneralizedBialgebra:
    """Extend a Lie bialgebra (h, h*) by a line using a derivation psi.

    The base is the direct product h x R; the dual bracket is
    [(a, s), (b, t)]* = ([a, b]* - s (psi* - id) b + t (psi* - id) a, 0)
    with x0 the new coordinate vector and phi0 = 0.
    """
    m = h.dim
    if h_star.dim != m:
        raise ValueError("h and h* must have the same dimension")
    failures = []
    base_report = check_glb(GeneralizedBialgebra(h, h_star, Form.zero(m, 1),
                                                 Multivector.zero(m, 1)))
    if not base_report.passed:
        failures.append("(h, h*) is not a Lie bialgebra:\n" + base_report.describe())
    if not is_derivation(h, psi):
        failures.append("psi is not a derivation of h")
    psi_star_minus = psi.transpose().add(LinearMap.identity(m).scale(-1))
    if not is_derivation(h_star, psi_star_minus):
        failures.append("psi* - id is not a derivation of h*")
    if failures:
        raise ValueError("semidirect hypotheses fail:\n  " + "\n  ".join(failures))

    g = direct_product(h, abelian(1), name=f"{h.name}xR")
    n = m + 1
    structure = {}
    for a in range(m):
        for c in range(a + 1, m):
            value = h_star.bracket_basis(a, c)
            if not value.is_zero():
                structure[(a, c)] = Multivector.from_coeffs(list(value.coeffs()) + [ZERO])
    for a in range(m):
        image = psi_star_minus.apply(h_star.basis_form(a).coeffs())
        value = Multivector.from_coeffs(list(image) + [ZERO])
        if not value.is_zero():
            structure[(a, m)] = value
    g_star = LieAlgebra(f"{g.name}*", n, g.dual_labels, structure)
    b = GeneralizedBialgebra(g, g_star, Form.zero(n, 1), Multivector.basis(n, m))
    report = check_glb(b)
    if not report.passed:
        raise ValueError("semidirect construction failed:\n" + report.describe())
    return b
