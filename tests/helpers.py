"""Shared shorthand for building exact elements in tests, seeded algebras with
mixed denominators, seeded brackets at dims 0-14, seeded compact-kind
bialgebras in dense unimodular bases, maps induced on exterior powers, the
evaluation of forms on vectors and of multivectors on covectors, l.c.s. pairs
from contact pairs times a line, and reference routes for the exterior and
structure-constant kernels, the coboundary system, the bracket and contraction
compatibilities of check_glb and its integer sums taken afresh on each call,
the Yang-Baxter hypotheses by the public weighted adjoint action, the
coadjoint and pointwise dual brackets, the sharp-map homomorphism
certificate, the contraction matrix of a 2-tensor and the contact flat map,
the Jacobi residuals, the machine forms and texts of the check reports written
out by hand, the contact and l.c.s. maps by
Fraction matrices, the center, the derived algebra, annihilators, subspace
membership, the Killing form and the compactness test, the cocycle with
prescribed values, the invariant scalar product and the Fraction sum of the
dual vector of a cocycle, the semidirect certificate read through the
invariant product, the unit central vector read from the center Subspace,
the coordinate solvers of liealg and the
restriction of a 2-vector to a span, the algebras built from smaller ones by
padding Fraction coefficient lists, and the integer linear-algebra kernel."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

from liejacobi.bialgebra import (
    GeneralizedBialgebra,
    GlbReport,
    SemidirectCertificate,
    YbData,
    YbReport,
    build_first_kind,
    build_second_kind,
    build_semidirect_glb,
    build_third_kind,
    glb_from_cocycle,
)
from liejacobi.catalog import catalog, heisenberg
from liejacobi.documents import to_document
from liejacobi.exterior import Form, Multivector, contract, pair, sort_index, wedge
from liejacobi.jacobi import JacobiPair, JacobiReport, _jacobi_residuals
from liejacobi.liealg import (
    CompactnessReport,
    LieAlgebra,
    LinearMap,
    Subspace,
    ValidationReport,
    _embed,
    _frame,
    _in_span,
    _restrict,
    abelian,
    center,
    change_basis,
    direct_product,
    invariant_scalar_product,
    is_compact,
    killing_form,
    one_cocycles,
    standard_labels,
)
from liejacobi.linalg import (
    ONE,
    ZERO,
    identity,
    invert,
    mat_mul,
    mat_vec,
    nullspace,
    rref,
    solve,
    transpose,
    zeros,
)
from liejacobi.schouten import (_twisted_ad, ce_differential, check_cocycle, schouten,
                                 twisted_ad, twisted_schouten)


def mv(dim, grade, terms):
    """Multivector literal: terms maps index tuples to ints/Fractions."""
    return Multivector.from_terms(dim, grade,
                                  {idx: Fraction(c) for idx, c in terms.items()})


def fm(dim, grade, terms):
    return Form.from_terms(dim, grade,
                           {idx: Fraction(c) for idx, c in terms.items()})


def vec(dim, i):
    return Multivector.basis(dim, i)


def cov(dim, i):
    return Form.basis(dim, i)


def random_fraction(rng: random.Random, bound=3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def dense_element(rng: random.Random, cls, dim, grade):
    """Element with a nonzero mixed-denominator coefficient on every index."""
    coeff = lambda: Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice((1, 2, 3, 7)))
    return cls(dim, grade, {idx: coeff() for idx in combinations(range(dim), grade)})


def random_element(rng: random.Random, cls, dim, grade, terms=2, bound=3):
    """Sparse random element with small rational coefficients; grade clamps to dim."""
    grade = min(grade, dim)
    out = cls.zero(dim, grade)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(dim), grade)))
        out = out + cls.from_terms(dim, grade, {idx: random_fraction(rng, bound)})
    return out


def induced(matrix, element):
    """Image of element under the map on exterior powers induced by the linear
    map whose matrix columns are the images of the basis elements."""
    cls, n = type(element), element.dim
    images = [cls.from_coeffs([row[a] for row in matrix]) for a in range(n)]
    out = cls.zero(n, element.grade)
    for idx, c in element.terms.items():
        term = cls.scalar(n, c)
        for a in idx:
            term = wedge(term, images[a])
        out = out + term
    return out


def cubic_noninvariant_yb():
    """The algebra of semidirect4_53 with phi0 = 0, x0 = 0 and
    r = e1^e2 + e3^e4: [r,r] - 2 x0^r = -2 e1^e2^e3 is not invariant at e4,
    the only failing Yang-Baxter hypothesis."""
    return YbData(catalog("semidirect4_53").g, Form.zero(4, 1),
                  mv(4, 2, {(0, 1): 1, (2, 3): 1}), Multivector.zero(4, 1))


def noncommuting_yb():
    """The algebra and phi0 of thirdkind_u2 with r = e1^e2 and x0 = e1:
    every Yang-Baxter residual is nonzero, [x0,r] = e1^e3 among them."""
    b = catalog("thirdkind_u2")
    return YbData(b.g, b.phi0, mv(4, 2, {(0, 1): 1}), vec(4, 0))


def non_lie_glb():
    """A quadruple whose base "bad" and dual "bad*" share one bracket that
    fails the Jacobi identity at (e1,e2,e3)."""
    bracket = {(0, 1): mv(3, 1, {(1,): 1}), (0, 2): mv(3, 1, {(1,): 1}),
               (1, 2): mv(3, 1, {(0,): 1})}
    g = LieAlgebra("bad", 3, standard_labels(3), bracket)
    return GeneralizedBialgebra(g, LieAlgebra("bad*", 3, g.dual_labels, bracket),
                                Form.zero(3, 1), Multivector.zero(3, 1))


def broken_noncob():
    """noncob4_53 with [e^1,e^4]* = 3 e^4: schema-valid, but it breaks the
    bialgebra conditions, so check_glb has nonzero residuals."""
    b = catalog("noncob4_53")
    structure = dict(b.g_star.structure)
    structure[(0, 3)] = structure[(0, 3)].scale(3)
    return GeneralizedBialgebra(b.g, replace(b.g_star, structure=structure), b.phi0, b.x0)


# Reference routes for the exterior kernels, which sum integer forms: term by
# term Fraction arithmetic, with results built by the public constructor.

def _collect(cls, dim, grade, pieces):
    acc = {}
    for idx, c in pieces:
        acc[idx] = acc.get(idx, Fraction(0)) + c
    return cls(dim, grade, {idx: c for idx, c in acc.items() if c})


def evaluate(omega, *vectors):
    """omega(X_1, ..., X_k) as the pairing with X_1 ^ ... ^ X_k."""
    if len(vectors) != omega.grade:
        raise ValueError("argument count must match the grade")
    if omega.grade == 0:
        return omega.scalar_value()
    prod = vectors[0]
    for v in vectors[1:]:
        prod = wedge(prod, v)
    return pair(omega, prod)


def evaluate_on(p, *forms):
    """P(alpha_1, ..., alpha_k): the pairing of alpha_1 ^ ... ^ alpha_k with
    the multivector P, the mirror of evaluate."""
    if len(forms) != p.grade:
        raise ValueError("argument count must match the grade")
    if p.grade == 0:
        return p.scalar_value()
    prod = forms[0]
    for f in forms[1:]:
        prod = wedge(prod, f)
    return pair(prod, p)


def wedge_reference(a, b):
    grade = a.grade + b.grade
    if grade > a.dim:
        return type(a).zero(a.dim, a.dim)
    pieces = []
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = sort_index(ia + ib)
            if sign:
                pieces.append((idx, sign * ca * cb))
    return _collect(type(a), a.dim, grade, pieces)


def add_reference(a, b):
    if not a.terms:
        return b
    if not b.terms:
        return a
    return _collect(type(a), a.dim, a.grade, [*a.terms.items(), *b.terms.items()])


def scale_reference(a, c):
    if c == 0:
        return type(a).zero(a.dim, a.grade)
    return type(a)(a.dim, a.grade, {idx: c * v for idx, v in a.terms.items()})


def contract_reference(one, target):
    """i(one)(x_1^..^x_k) = sum_j (-1)^j one(x_j) x_1^..(no j)..^x_k, j from 0."""
    if target.grade == 0:
        return type(target).zero(target.dim, 0)
    pieces = [(idx[:pos] + idx[pos + 1:], (-1) ** pos * one.coefficient((i,)) * c)
              for idx, c in target.terms.items() for pos, i in enumerate(idx)]
    return _collect(type(target), target.dim, target.grade - 1, pieces)


def pair_reference(omega, p):
    return sum((c * p.coefficient(idx) for idx, c in omega.terms.items()), Fraction(0))


# Algebras whose structure constants have mixed coprime denominators, so that
# the common denominator of the integer structure-constant table is a real
# lcm.  Random constants almost never satisfy the Jacobi identity; basis
# changes of catalog algebras give Lie inputs with the same denominators.

def mixed_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))


def seeded_quadruples(rng, cocycle_phi0=False):
    """Quadruples on the algebras with mixed denominators, Lie or not, with a
    dual of the same dimension, a random x0 and a random phi0, or a random
    1-cocycle phi0 of g when cocycle_phi0 is set."""
    lie, non_lie = mixed_algebras()
    out = []
    for g in lie + non_lie:
        g_star = rng.choice([h for h in lie + non_lie if h.dim == g.dim])
        vector = lambda cls: cls.from_coeffs([mixed_fraction(rng) for _ in range(g.dim)])
        if cocycle_phi0:
            phi0 = Form.zero(g.dim, 1)
            for row in one_cocycles(g).rows:
                phi0 = phi0 + Form.from_coeffs(row).scale(mixed_fraction(rng))
        else:
            phi0 = vector(Form)
        out.append(GeneralizedBialgebra(g, g_star, phi0, vector(Multivector)))
    return out


def random_basis(rng: random.Random, n: int) -> list:
    """Seeded invertible n x n matrix of mixed-denominator fractions."""
    p = None
    while p is None or determinant(p) == 0:
        p = [[mixed_fraction(rng) for _ in range(n)] for _ in range(n)]
    return p


def mixed_algebras():
    """(Lie algebras, non-Lie brackets), seeded, with mixed denominators."""
    rng = random.Random(2001)
    lie = []
    for g in (catalog("su2"), catalog("sl2r"), catalog("u2"), heisenberg(2),
              catalog("semidirect4_53").g):
        lie.append(change_basis(g, random_basis(rng, g.dim), name=f"{g.name}.mixed"))
    non_lie = []
    for dim in (3, 4, 4, 5, 6):
        structure = {}
        for ij in combinations(range(dim), 2):
            v = Multivector.from_coeffs([mixed_fraction(rng) for _ in range(dim)])
            if not v.is_zero():
                structure[ij] = v
        non_lie.append(LieAlgebra(f"random{dim}", dim, standard_labels(dim), structure))
    return lie, non_lie


def seeded_brackets():
    """Seeded brackets at dims 0-14, mostly not Lie: sparse (three pairs,
    two coordinates each), dense (every pair and coordinate, small mixed
    denominators) and 100-digit (every pair, on every coordinate up to dim 6
    and on three above), then su2^k x R^2 for k = 1-4 in a dense unimodular
    basis (dims 5-14, compact).  The 100-digit coefficients of one bracket
    share a denominator, and above dim 8 all of them share one: independent
    ones make the table's common denominator thousands of digits long and
    the eliminations take seconds."""
    rng = random.Random(2040)
    out = []
    for n in range(15):
        pairs = list(combinations(range(n), 2))
        sparse, digits = {}, {}
        for ij in rng.sample(pairs, min(3, len(pairs))):
            sparse[ij] = [ZERO] * n
            for k in rng.sample(range(n), 2):
                sparse[ij][k] = mixed_fraction(rng) or ONE
        shared = rng.randrange(1, 10 ** 100)
        for ij in pairs:
            den = shared if n > 8 else rng.randrange(1, 10 ** 100)
            digits[ij] = [ZERO] * n
            for k in rng.sample(range(n), 3) if n > 6 else range(n):
                digits[ij][k] = Fraction(rng.randrange(-10 ** 100, 10 ** 100), den)
        dense = {ij: [mixed_fraction(rng) for _ in range(n)] for ij in pairs}
        out += [LieAlgebra.from_brackets(f"{kind}{n}", n, brackets)
                for kind, brackets in (("sparse", sparse), ("dense", dense), ("digits", digits))]
    g = abelian(2)
    for _ in range(4):
        g = direct_product(catalog("su2"), g)
        out.append(dense_frame(rng, g, 1)[0])
    return out


def dense_heisenberg_cocycle(seed):
    """(g, phi), built as the coboundary-solve benchmark builds its inputs
    but without its density filter: heisenberg(1,3) in a seeded unimodular
    integer basis (shuffled rows of a lower times an upper unitriangular
    matrix with entries in -1, 0, 1) and a nonzero integer combination phi
    of its closed 1-forms."""
    h = heisenberg(3)
    n = h.dim
    rng = random.Random(seed)
    p = unimodular_basis(rng, n, 1)
    rng.shuffle(p)
    g = change_basis(h, p, name=f"h13.{seed}")
    cocycles = one_cocycles(g).rows
    weights = [0] * len(cocycles)
    while not any(weights):
        weights = [rng.randint(-2, 2) for _ in cocycles]
    return g, Form.from_coeffs([sum(w * row[k] for w, row in zip(weights, cocycles))
                                for k in range(n)])


def dense_heisenberg_bialgebras(seeds):
    """(g, g*) of glb_from_cocycle on dense_heisenberg_cocycle, one pair per
    seed: g is abelian(7) and g* carries the dense bracket."""
    pairs = []
    for seed in seeds:
        b = glb_from_cocycle(*dense_heisenberg_cocycle(seed))
        pairs.append((b.g, b.g_star))
    return pairs


def unimodular_basis(rng: random.Random, n: int, radius: int) -> list:
    """L U for unit lower and upper triangular L and U whose off-diagonal
    entries are seeded integers in [-radius, radius]: a dense integer basis
    of determinant 1."""
    lower, upper = identity(n), identity(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                (lower if i > j else upper)[i][j] = Fraction(rng.choice(range(-radius, radius + 1)))
    return mat_mul(lower, upper)


def dense_frame(rng: random.Random, g: LieAlgebra, radius: int):
    """(g', move): g named "dense" in the basis given by the columns of
    P = unimodular_basis(rng, g.dim, radius), and the map that moves a
    builder argument into it: multivectors by P^-1, forms pulled back by P^T."""
    p = unimodular_basis(rng, g.dim, radius)
    p_inv, p_t = invert(p), transpose(p)
    return (change_basis(g, p, name="dense"),
            lambda e: induced(p_t if isinstance(e, Form) else p_inv, e))


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def compact_kind_bialgebras(rng: random.Random, count: int, radius: int = 0) -> list:
    """(kind, bialgebra) pairs drawn as the compact-classify benchmark draws
    its inputs: on su2 x R^2 (dim 5), a first-, second- and third-kind
    bialgebra in turn, from small nonzero rationals.  With radius > 0 each
    one is built in its own dense_frame, every builder argument moved into
    it."""
    base = direct_product(catalog("su2"), abelian(2), name="su2xR2")
    q = lambda: small_rational(rng)
    out = []
    for i in range(count):
        g, move = dense_frame(rng, base, radius) if radius else (base, lambda e: e)
        v = lambda *coeffs: move(Multivector.from_coeffs(coeffs))
        kind = ("first", "second", "third")[i % 3]
        if kind == "first":
            # h = <u, w> with u in su2 and w the central vector phi0 kills
            a, b = q(), q()
            u, w = v(q(), q(), q(), 0, 0), v(0, 0, 0, b, -a)
            r = wedge(u, w).scale(q())
            out.append((kind, build_first_kind(g, Subspace.from_elements([u, w]), r,
                                               move(Form.from_coeffs([0, 0, 0, a, b])))))
        elif kind == "second":
            while True:
                a, b, c, d = q(), q(), q(), q()
                if a * d != b * c:
                    break
            out.append((kind, build_second_kind(g, v(0, 0, 0, a, b), v(0, 0, 0, c, d),
                                                q(), q(), q())))
        else:
            triple = (v(1, 0, 0, 0, 0), v(0, 1, 0, 0, 0), v(0, 0, 1, 0, 0))
            out.append((kind, build_third_kind(g, *triple, v(0, 0, 0, q(), q()),
                                               (q(), q(), q()))))
    return out


def third_kind_series(k: int, lambdas, rng: random.Random | None = None,
                      radius: int = 0) -> GeneralizedBialgebra:
    """build_third_kind on su2^k x R^2 with the standard triple of the first
    su2 factor and e4 the first R coordinate; with rng, in a dense_frame."""
    su2 = catalog("su2")
    g = su2
    for _ in range(k - 1):
        g = direct_product(g, su2)
    g = direct_product(g, abelian(2), name=f"su2^{k}xR2")
    n = g.dim
    g, move = dense_frame(rng, g, radius) if rng else (g, lambda e: e)
    return build_third_kind(g, *(move(vec(n, i)) for i in (0, 1, 2, n - 2)), lambdas)


# Reference routes for the integer structure-constant kernels.  They read the
# Fraction structure mapping directly and never touch the integer table, so
# the library's fast paths are checked against an independent computation.

def bracket_reference(g, x, y):
    """[x, y] by bilinear expansion over g.structure, in Fraction arithmetic."""
    out = g.zero_vector()
    for (i, j), value in g.structure.items():
        c = x.coefficient((i,)) * y.coefficient((j,)) - x.coefficient((j,)) * y.coefficient((i,))
        out = out + value.scale(c)
    return out


def ad_matrix(g, x):
    """Matrix of ad_x = [x, .] over the basis (columns are images), from
    reference brackets."""
    cols = [bracket_reference(g, x, g.basis_vector(j)).coeffs() for j in range(g.dim)]
    return [[cols[j][i] for j in range(g.dim)] for i in range(g.dim)]


def bracket_jacobiator_reference(g, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] by bracket composition."""
    ei, ej, ek = map(g.basis_vector, (i, j, k))
    br = lambda x, y: bracket_reference(g, x, y)
    return br(br(ei, ej), ek) + br(br(ej, ek), ei) + br(br(ek, ei), ej)


def jacobiator_sums_reference(g):
    """LieAlgebra._jacobiator by the triple loop it replaced: for each basis
    triple i < j < k, sum_l N_ab^l N_lc^m over the three cyclic (a, b, c)
    one product at a time from the table, kept as {m: N} for every m when
    some N is nonzero."""
    table = g._ad[1]
    entries = []
    for i, j, k in combinations(range(g.dim), 3):
        acc = [0] * g.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in table[a].get(b, {}).items():
                lc = table[l].get(c)
                if lc is not None:
                    for m, y in lc.items():
                        acc[m] += x * y
        if any(acc):
            entries.append(((i, j, k), dict(enumerate(acc))))
    return tuple(entries)


def jacobiator_reference(g):
    """validate's report summed afresh on every call from
    jacobiator_sums_reference, over den^2, one element per nonzero
    residual."""
    den = g._ad[0]
    return ValidationReport(g, tuple(
        (ijk, Multivector._from_ints(g.dim, 1, {(m,): v for m, v in acc.items()}, den * den))
        for ijk, acc in jacobiator_sums_reference(g)))


def ce_differential_reference(source, element):
    """(d w)(x_0..x_k) = sum_{a<b} (-1)^{a+b} w([x_a, x_b], x_0..no a..no b..x_k),
    read coefficient by coefficient over every (k+1)-subset of the basis."""
    n, k = source.dim, element.grade
    if element.is_zero() or k >= n:
        return type(element).zero(n, min(k + 1, n))
    acc = {}
    for big in combinations(range(n), k + 1):
        total = Fraction(0)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                value = source.structure.get((big[a], big[b]))    # big is increasing
                if value is None:
                    continue
                rest = big[:a] + big[a + 1:b] + big[b + 1:]
                for (m,), c in value.terms.items():
                    total += (-1) ** (a + b) * c * element.coefficient((m,) + rest)
        if total:
            acc[big] = total
    return type(element)(n, k + 1, acc)


def schouten_reference(g, p, q):
    """Schouten bracket on decomposables, (-1)^{k+1} sum_{i,j} (-1)^{i+j}
    [x_i, y_j] ^ (rest of p) ^ (rest of q), with reference brackets."""
    k, kp = p.grade, q.grade
    out = Multivector.zero(g.dim, min(max(k + kp - 1, 0), g.dim))
    if k == 0 or kp == 0:
        return out
    for pi, a in p.terms.items():
        for qi, b in q.terms.items():
            for ipos in range(k):
                for jpos in range(kp):
                    term = bracket_reference(g, g.basis_vector(pi[ipos]), g.basis_vector(qi[jpos]))
                    for idx in pi[:ipos] + pi[ipos + 1:] + qi[:jpos] + qi[jpos + 1:]:
                        term = wedge(term, g.basis_vector(idx))
                    sign = (-1) ** (k + 1 + ipos + jpos)
                    out = out + term.scale(sign * a * b)
    return out


# Reference route for the linear system of solve_coboundary: columns are the
# images [e_i, r] - phi0(e_i) r of the basis 2-vectors r through schouten, and
# the right side is d_{*X0}(e_i) = d_* e_i + X0^e_i.

def rational_system(rows, scales, width):
    """(matrix, rhs) of the sparse integer rows of _coboundary_system, each
    divided by its row scale, the right-hand side read from column width.
    Every stored entry must be a nonzero int, as solve_rows requires."""
    assert all(type(v) is int and v for row in rows for v in row.values())
    assert all(type(s) is int and s > 0 for s in scales) and len(scales) == len(rows)
    return ([[Fraction(row.get(j, 0), s) for j in range(width)] for row, s in zip(rows, scales)],
            [Fraction(row.get(width, 0), s) for row, s in zip(rows, scales)])


def coboundary_system_reference(b):
    g = b.g
    n = g.dim
    pairs = list(combinations(range(n), 2))
    rows, rhs = [], []
    for i in range(n):
        x = g.basis_vector(i)
        phi_x = pair(b.phi0, x)
        lhs = ce_differential(b.g_star, x) + wedge(b.x0, x)
        columns = []
        for ac in pairs:
            basis_r = Multivector.from_terms(n, 2, {ac: 1})
            columns.append(schouten(g, x, basis_r) - basis_r.scale(phi_x))
        for t in pairs:
            rows.append([col.coefficient(t) for col in columns])
            rhs.append(lhs.coefficient(t))
    return rows, rhs


# Reference routes for check_glb's compatibility residuals and for the
# adjoint route of the dual bracket, which the library sums as integers from
# the structure-constant tables, by linearity of d_{*X0}, and by
# coad_x alpha = i(x) d alpha: here d_{*X0} is applied to each bracket
# [e_i, e_j], the twisted bracket is twisted_schouten (for a 1-cocycle phi0)
# or the plain bracket minus phi0(e_i) P (for any phi0), and the coadjoint
# action takes one bracket and one pairing per basis vector.

def bracket_compat_reference(b):
    """((i, j), residual) entries, nonzero only, of
    d_{*X0}[e_i, e_j] - [e_i, d_{*X0} e_j]_{phi0} + [e_j, d_{*X0} e_i]_{phi0};
    phi0 must be a 1-cocycle of b.g."""
    g = b.g
    d = lambda p: ce_differential(b.g_star, p) + wedge(b.x0, p)
    basis = [g.basis_vector(i) for i in range(g.dim)]
    d_basis = [d(e) for e in basis]
    entries = []
    for i, j in combinations(range(g.dim), 2):
        ei, ej = basis[i], basis[j]
        res = (d(g.bracket_basis(i, j)) - twisted_schouten(g, b.phi0, ei, d_basis[j])
               + twisted_schouten(g, b.phi0, ej, d_basis[i]))
        if not res.is_zero():
            entries.append(((i, j), res))
    return tuple(entries)


def bracket_compat_plain_reference(b):
    """The same entries for any phi0, with the plain bracket:
    [e_i, P]_{phi0} = schouten(g, e_i, P) - phi0(e_i) P, and d_* by the
    subset loop."""
    g = b.g
    d = lambda p: ce_differential_reference(b.g_star, p) + wedge_reference(b.x0, p)
    twisted = lambda x, p: schouten(g, x, p) - p.scale(pair_reference(b.phi0, x))
    basis = [g.basis_vector(i) for i in range(g.dim)]
    d_basis = [d(e) for e in basis]
    entries = []
    for i, j in combinations(range(g.dim), 2):
        ei, ej = basis[i], basis[j]
        res = (d(bracket_reference(g, ei, ej)) - twisted(ei, d_basis[j])
               + twisted(ej, d_basis[i]))
        if not res.is_zero():
            entries.append(((i, j), res))
    return tuple(entries)


def check_glb_reference(b):
    """(report, d_basis) of _check_glb with every integer sum taken afresh on
    each call and each element built as soon as it is summed, keeping
    nothing on the bialgebra object; the residual kernel _twisted_ad is the
    library's."""
    g, gs = b.g, b.g_star
    n = g.dim
    den, table = g._ad
    dens = gs._ad[0]
    xs, dx = b.x0._ints()
    phi, dphi = b.phi0._ints()
    phi = [phi.get((i,), 0) for i in range(n)]
    d_basis = []
    for i, column in enumerate(gs._columns):
        acc = {(a, c): -dx * v for a, c, v in column}
        for (l,), v in xs.items():
            if l != i:
                key, v = ((l, i), v) if l < i else ((i, l), -v)
                acc[key] = acc.get(key, 0) + dens * v
        d_basis.append(Multivector._from_ints(n, min(2, n), acc, dens * dx))
    forms = [d._ints() for d in d_basis]
    scale = lcm(1, *(dd for _, dd in forms))
    d = [{idx: v * (scale // dd) for idx, v in nums.items()} for nums, dd in forms]
    bracket = []
    for i, j in combinations(range(n), 2):
        acc = {}
        for k, c in table[i].get(j, {}).items():
            for idx, v in d[k].items():
                acc[idx] = acc.get(idx, 0) + c * dphi * v
        for s, t, sign in ((i, j, -1), (j, i, 1)):
            if table[s] or phi[s]:
                _twisted_ad(g, s, d[t], acc, sign * dphi, -sign * den * phi[s])
        if any(acc.values()):
            bracket.append(((i, j), Multivector._from_ints(n, 2, acc, den * scale * dphi)))
    contraction = []
    for i, column in enumerate(gs._columns):
        acc = {}
        for a, c, v in column:
            v *= den * dx
            acc[c] = acc.get(c, 0) - v * phi[a]
            acc[a] = acc.get(a, 0) + v * phi[c]
        for (l,), v in xs.items():
            for m, x in table[l].get(i, {}).items():
                acc[m] = acc.get(m, 0) + v * dens * dphi * x
        if any(acc.values()):
            contraction.append((i, Multivector._from_ints(
                n, 1, {(m,): v for m, v in acc.items()}, den * dens * dphi * dx)))
    return GlbReport(b, g.validate(), gs.validate(), ce_differential(g, b.phi0),
                     ce_differential(gs, b.x0), tuple(bracket), pair(b.phi0, b.x0),
                     tuple(contraction)), d_basis


# The machine forms of the check reports, as the command line wrote them out
# by hand, field by field, before documents._report: the reference for it.

def check_yb_hypotheses_reference(y):
    """check_yb_hypotheses by the public Fraction route: twisted_ad, which
    checks the cocycle and calls schouten, on each basis vector."""
    g = y.g
    check_cocycle(g, y.phi0)
    cubic, x0_commutes = _jacobi_residuals(g, y.r, y.x0)
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
    return YbReport(y, cubic, tuple(cubic_entries), x0_commutes, vector, tuple(vector_entries))


def validation_report_reference(reports) -> dict:
    """validate's report over the ValidationReports of a document's algebras."""
    violations = []
    for rep in reports:
        labels = list(rep.algebra.basis_labels)
        for (i, j, k), res in rep.violations:
            violations.append({"algebra": rep.algebra.name,
                               "triple": [labels[i], labels[j], labels[k]],
                               "residual": to_document(res, labels=labels)})
    return {"passed": all(rep.passed for rep in reports), "violations": violations}


def jacobi_report_reference(rep) -> dict:
    labels = list(rep.pair.algebra.basis_labels)
    return {"passed": rep.passed,
            "self_residual": to_document(rep.self_residual, labels=labels),
            "vector_residual": to_document(rep.vector_residual, labels=labels)}


def yb_report_reference(rep) -> dict:
    labels = list(rep.data.g.basis_labels)
    return {
        "passed": rep.passed,
        "cubic": to_document(rep.cubic, labels=labels),
        "cubic_invariance": [
            {"basis": labels[i], "residual": to_document(res, labels=labels)}
            for i, res in rep.cubic_invariance],
        "x0_commutes": to_document(rep.x0_commutes, labels=labels),
        "vector": to_document(rep.vector, labels=labels),
        "vector_invariance": [
            {"basis": labels[i], "residual": to_document(res, labels=labels)}
            for i, res in rep.vector_invariance],
    }


def glb_report_reference(rep) -> dict:
    labels = list(rep.bialgebra.g.basis_labels)
    duals = list(rep.bialgebra.g_star.basis_labels)
    return {
        "passed": rep.passed,
        "primal_jacobi": rep.primal.passed,
        "dual_jacobi": rep.dual.passed,
        "phi0_cocycle": to_document(rep.phi0_cocycle, labels=duals),
        "x0_cocycle": to_document(rep.x0_cocycle, labels=labels),
        "pairing": str(rep.pairing),
        "bracket_compat": [
            {"i": labels[i], "j": labels[j], "residual": to_document(res, labels=labels)}
            for (i, j), res in rep.bracket_compat],
        "contraction_compat": [
            {"basis": labels[i], "residual": to_document(res, labels=labels)}
            for i, res in rep.contraction_compat],
    }


def describe_reference(rep) -> str:
    """describe() of a check report, written out class by class, each with
    its own verdict: the second route for the texts that the report classes
    derive from their rows.  A nested report sits two spaces deeper than the
    line that introduces it."""
    def nested(intro, inner):
        return "\n".join([intro, *("    " + line for line in describe_reference(inner).split("\n"))])

    if isinstance(rep, ValidationReport):
        name, labels = rep.algebra.name, rep.algebra.basis_labels
        if not rep.violations:
            return f"{name}: Jacobi identity holds on all basis triples"
        lines = [f"{name}: Jacobi identity fails on {len(rep.violations)} triple(s)"]
        for (i, j, k), res in rep.violations:
            lines.append(f"  ({labels[i]},{labels[j]},{labels[k]}): residual {res.render(labels)}")
        return "\n".join(lines)
    if isinstance(rep, JacobiReport):
        labels = rep.pair.algebra.basis_labels
        if rep.self_residual.is_zero() and rep.vector_residual.is_zero():
            return "jacobi pair: both defining identities hold"
        # both residuals, a zero one too
        return ("jacobi pair fails:\n"
                f"  [r,r] - 2*x0^r = {rep.self_residual.render(labels)}\n"
                f"  [x0,r] = {rep.vector_residual.render(labels)}")
    if isinstance(rep, YbReport):
        labels = rep.data.g.basis_labels
        if not rep.cubic_invariance and rep.x0_commutes.is_zero() and not rep.vector_invariance:
            return "yang-baxter hypotheses hold"
        lines = ["yang-baxter hypotheses fail:"]
        for i, res in rep.cubic_invariance:
            lines.append(f"  [r,r]-2*x0^r not invariant at {labels[i]}: {res.render(labels)}")
        if not rep.x0_commutes.is_zero():
            lines.append(f"  [x0,r] = {rep.x0_commutes.render(labels)}")
        for i, res in rep.vector_invariance:
            lines.append(f"  i(phi0)r - x0 not invariant at {labels[i]}: {res.render(labels)}")
        return "\n".join(lines)
    assert isinstance(rep, GlbReport)
    labels, duals = rep.bialgebra.g.basis_labels, rep.bialgebra.g_star.basis_labels
    lines = ["generalized bialgebra fails:"]
    if rep.primal.violations:
        lines.append(nested("  base algebra:", rep.primal))
    if rep.dual.violations:
        lines.append(nested("  dual algebra:", rep.dual))
    if not rep.phi0_cocycle.is_zero():
        lines.append(f"  d(phi0) = {rep.phi0_cocycle.render(duals)}")
    if not rep.x0_cocycle.is_zero():
        lines.append(f"  d_*(x0) = {rep.x0_cocycle.render(labels)}")
    # phi0(x0) comes before the bracket compatibility entries, in the order
    # of the machine form; the hand-written text had it after them
    if rep.pairing != 0:
        lines.append(f"  phi0(x0) = {rep.pairing}")
    for (i, j), res in rep.bracket_compat:
        lines.append(f"  bracket compatibility at ({labels[i]}, {labels[j]}): "
                     f"{res.render(labels)}")
    for i, res in rep.contraction_compat:
        lines.append(f"  contraction identity at {labels[i]}: {res.render(labels)}")
    return "\n".join(lines) if len(lines) > 1 else "generalized bialgebra: all conditions hold"


def contraction_compat_reference(b):
    """(i, residual) entries, nonzero only, of i(phi0) d_*(e_i) + [X0, e_i]."""
    g = b.g
    entries = []
    for i in range(g.dim):
        ei = g.basis_vector(i)
        res = (contract_reference(b.phi0, ce_differential_reference(b.g_star, ei))
               + bracket_reference(g, b.x0, ei))
        if not res.is_zero():
            entries.append((i, res))
    return tuple(entries)


def contraction_reference(p):
    """Matrix of x -> i(x)p for a 2-vector or 2-form p: column j is
    contract(basis_j, p), basis_j the j-th basis element of the opposite
    kind, one element per column."""
    dual = Form if isinstance(p, Multivector) else Multivector
    cols = []
    for j in range(p.dim):
        image = contract(dual.basis(p.dim, j), p)
        cols.append([image.coefficient((i,)) for i in range(p.dim)])
    return LinearMap.from_columns(cols)


def flat_contact_reference(cs):
    """b_eta(X) = i(X)(d eta) + eta(X) eta in dual coordinates, one
    contraction, scale, pairing and sum per basis vector."""
    g, eta = cs.algebra, cs.eta
    d_eta = ce_differential(g, eta)
    cols = []
    for j in range(g.dim):
        x = Multivector.basis(g.dim, j)
        cols.append((contract(x, d_eta) + eta.scale(pair(eta, x))).coeffs())
    return LinearMap.from_columns(cols)


def jacobi_residuals_reference(jp):
    """([r,r] - 2 X0^r, [X0,r]) through the general schouten, wedge and
    scale: the residuals check_jacobi reports, grade of a zero included."""
    g, r, x0 = jp.algebra, jp.r, jp.x0
    return schouten(g, r, r) - wedge(x0, r).scale(2), schouten(g, x0, r)


def contact_to_jacobi_reference(cs):
    """(r, X0) of a contact form by the Fraction route: b_eta inverted by
    invert, X0 = b_eta^-1 eta by mat_vec and r = d eta pushed by the map
    whose columns are the rows of b_eta^-1."""
    binv = invert(flat_contact_reference(cs).rows)
    pushed = induced(LinearMap.from_columns(binv).rows, ce_differential(cs.algebra, cs.eta))
    return (Multivector(pushed.dim, pushed.grade, pushed.terms),
            Multivector.from_coeffs(mat_vec(binv, cs.eta.coeffs())))


def jacobi_to_contact_reference(jp):
    """eta of a full odd-rank pair by one solve of the Fraction rows of #_r,
    with right-hand side 0, and of X0, with right-hand side 1."""
    n = jp.algebra.dim
    sol = solve(contraction_reference(jp.r).rows + [jp.x0.coeffs()], [ZERO] * n + [ONE])
    return Form.from_coeffs(sol[0])


def lcs_from_contact_times_line(jp):
    """The l.c.s. pair on h x R of a full-rank contact pair (r, X0) on h:
    r + e_new ^ X0 with the same X0, of full even rank."""
    h, n = jp.algebra, jp.algebra.dim
    g = direct_product(h, abelian(1), name=f"{h.name}xR")
    x0 = Multivector.from_terms(n + 1, 1, dict(jp.x0.terms))
    r = Multivector.from_terms(n + 1, 2, dict(jp.r.terms)) + wedge(Multivector.basis(n + 1, n), x0)
    return JacobiPair(g, r, x0)


def _tensor_from_inverse(minv, kind):
    # the 2-tensor q with q^ij = -minv[j][i]
    n = len(minv)
    return kind.from_terms(n, 2, {(i, j): -minv[j][i] for i, j in combinations(range(n), 2)})


def lcs_to_jacobi_reference(ls):
    """(r, X0) of an l.c.s. structure by the Fraction route: M^-1 from
    invert for the flat map M of omega2, r^ij = -M^-1[j][i] and X0 =
    M^-1 lee by mat_vec."""
    minv = invert(contraction_reference(ls.omega2).rows)
    return (_tensor_from_inverse(minv, Multivector),
            Multivector.from_coeffs(mat_vec(minv, ls.lee.coeffs())))


def jacobi_to_lcs_reference(jp):
    """(omega2, lee) of a full even-rank pair by the Fraction route: S^-1
    from invert for S = #_r, omega2^ij = -S^-1[j][i] and lee = -S^-1 X0."""
    sinv = invert(contraction_reference(jp.r).rows)
    return (_tensor_from_inverse(sinv, Form),
            Form.from_coeffs([-c for c in mat_vec(sinv, jp.x0.coeffs())]))


def coadjoint_reference(g, x, alpha):
    """(coad_x alpha)(e_k) = -alpha([x, e_k])."""
    return Form.from_coeffs([-pair(alpha, g.bracket(x, g.basis_vector(k))) for k in range(g.dim)])


def dual_bracket_adjoint_reference(g, phi0, r, x0):
    """[a,b]* = coad_{#r b} a - coad_{#r a} b + r(a,b) phi0 + i(x0)(a^b) on
    basis covectors, nonzero entries only."""
    images = [Multivector.from_coeffs(col) for col in zip(*contraction_reference(r).matrix)]
    structure = {}
    for i, j in combinations(range(g.dim), 2):
        ei, ej = g.basis_form(i), g.basis_form(j)
        value = (coadjoint_reference(g, images[j], ei) - coadjoint_reference(g, images[i], ej)
                 + phi0.scale(pair(wedge(ei, ej), r)) + contract(x0, wedge(ei, ej)))
        if not value.is_zero():
            structure[(i, j)] = Multivector.from_coeffs(value.coeffs())
    return structure


def dual_bracket_pointwise_reference(g, phi0, r, x0):
    """[a,b]*(X) = -[X,r](a,b) + r(a,b) phi0(X) + a(x0) b(X) - b(x0) a(X),
    one schouten(g, e_k, r) per (i, j, k), nonzero entries only."""
    structure = {}
    for i, j in combinations(range(g.dim), 2):
        ei, ej = g.basis_form(i), g.basis_form(j)
        r_ij = pair(wedge(ei, ej), r)
        coeffs = []
        for k in range(g.dim):
            x = g.basis_vector(k)
            v = -evaluate_on(schouten(g, x, r), ei, ej) + r_ij * pair(phi0, x)
            if k == j:
                v += pair(ei, x0)
            if k == i:
                v -= pair(ej, x0)
            coeffs.append(v)
        value = Multivector.from_coeffs(coeffs)
        if not value.is_zero():
            structure[(i, j)] = value
    return structure


def sharp_homomorphism_reference(g, dual, r):
    """#_r [e^i, e^j]* == -[#_r e^i, #_r e^j] for every pair, through the
    reference contraction matrix and the public brackets."""
    sharp_map = contraction_reference(r)
    images = [Multivector.from_coeffs(col) for col in zip(*sharp_map.matrix)]
    return all(sharp_map.apply_element(dual.bracket_basis(i, j))
               == -g.bracket(images[i], images[j])
               for i, j in combinations(range(g.dim), 2))


# Reference routes for the invariant scalar product B of a compact-type
# algebra and for B-duals of covectors: the adapted-basis congruence and a
# matrix inverse, which the library replaced by closed forms.

def direct_product_reference(g, h, name=None):
    """direct_product by padding each factor's Fraction coefficient lists
    with zeros: g's brackets, then h's moved by g.dim."""
    n = g.dim + h.dim
    structure = {}
    for (i, j), v in g.structure.items():
        structure[(i, j)] = Multivector.from_coeffs(v.coeffs() + [ZERO] * h.dim)
    for (i, j), v in h.structure.items():
        structure[(i + g.dim, j + g.dim)] = Multivector.from_coeffs([ZERO] * g.dim + v.coeffs())
    return LieAlgebra(name or f"{g.name}(+){h.name}", n, standard_labels(n), structure)


def central_extension_reference(h, omega, name=None):
    """central_extension without the closedness check, by padding: [e_i, e_j]
    of h with -omega(e_i, e_j) appended, for every pair i < j in order."""
    n = h.dim + 1
    structure = {}
    for i, j in combinations(range(h.dim), 2):
        v = Multivector.from_coeffs(h.bracket_basis(i, j).coeffs() + [-omega.coefficient((i, j))])
        if not v.is_zero():
            structure[(i, j)] = v
    return LieAlgebra(name or f"{h.name}+center", n, standard_labels(n), structure)


def semidirect_by_derivation_reference(h, psi, name=None):
    """semidirect_by_derivation without the derivation check, by padding:
    [e_i, e_j] of h, then [e_i, e_n] = -psi(e_i), in the order (i, j) for
    j = i+1..n."""
    brackets = {}
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            brackets[(i, j)] = h.bracket_basis(i, j).coeffs() + [ZERO]
        brackets[(i, h.dim)] = [-c for c in psi.apply(
            [ZERO] * i + [ONE] + [ZERO] * (h.dim - i - 1))] + [ZERO]
    return LieAlgebra.from_brackets(name or f"{h.name}:line", h.dim + 1, brackets)


def semidirect_dual_reference(g, h_star, psi):
    """The dual algebra of build_semidirect_glb on the base g = h x R, by
    padding: [e^a, e^c]* of h*, then [e^a, e^m]* = (psi* - id) e^a."""
    m = h_star.dim
    brackets = {}
    for a, c in combinations(range(m), 2):
        brackets[(a, c)] = h_star.bracket_basis(a, c).coeffs() + [ZERO]
    psi_star_minus = psi.transpose().add(LinearMap.identity(m).scale(-1))
    for a in range(m):
        brackets[(a, m)] = psi_star_minus.apply(h_star.basis_form(a).coeffs()) + [ZERO]
    return LieAlgebra.from_brackets(f"{g.name}*", m + 1, brackets, g.dual_labels)


def compact_algebras():
    """Compact-type algebras: su2, u2, the bases of the three compact catalog
    bialgebras, su2 x R^2 and su2 x su2 x R^2, each also in a seeded rational
    basis."""
    rng = random.Random(2002)
    su2 = catalog("su2")
    out = []
    for g in (su2, catalog("u2"), *(catalog(name).g for name in
                                    ("firstkind4", "secondkind4", "thirdkind_u2")),
              direct_product(su2, abelian(2)), direct_product(direct_product(su2, su2), abelian(2))):
        out += [g, change_basis(g, random_basis(rng, g.dim), name=f"{g.name}.mixed")]
    return out


def center_reference(g):
    """The center as the nullspace of the n^2 x n matrix of the components
    of [e_i, e_j], one bracket_basis element per (i, j)."""
    rows = []
    for j in range(g.dim):
        ad_cols = [g.bracket_basis(i, j).coeffs() for i in range(g.dim)]
        for component in range(g.dim):
            rows.append([ad_cols[i][component] for i in range(g.dim)])
    basis = nullspace(rows) if rows else []
    return Subspace(g.dim, basis)


def derived_algebra_reference(g):
    """The span of the coefficient lists of the brackets, reduced by the
    public constructor."""
    return Subspace(g.dim, [v.coeffs() for v in g.structure.values()])


def annihilator_reference(s):
    """The nullspace of the Fraction rows of s, or every vector when s is
    zero, reduced by the public constructor."""
    rows = [list(r) for r in s.rows]
    basis = nullspace(rows) if rows else [list(r) for r in identity(s.dim)]
    return Subspace(s.dim, basis, dual=not s.dual)


def contains_reference(s, coeffs):
    """Membership by Fraction elimination on the reduced rows of s: v is in
    the span iff v - sum_k v[p_k] row_k = 0."""
    v = [Fraction(c) for c in coeffs]
    for row in s.rows:
        c = v[next(j for j, x in enumerate(row) if x)]
        v = [x - c * y for x, y in zip(v, row)]
    return not any(v)


def killing_form_reference(g):
    """K_ij = sum_{m,l} c_im^l c_jl^m over the Fraction terms of
    bracket_basis."""
    n = g.dim
    c = [[g.bracket_basis(i, m).terms for m in range(n)] for i in range(n)]
    return LinearMap.from_rows([[sum((a * c[j][l].get((m,), ZERO) for m in range(n)
                                      for (l,), a in c[i][m].items()), ZERO)
                                 for j in range(n)] for i in range(n)])


def is_compact_reference(g):
    """The compactness report by Fraction routes: the reference center and
    derived algebra, the rank of their stacked rows, and the Fraction LDL^T
    of the Gram matrix v^T (K w) of the reference Killing form K on the
    derived rows."""
    n = g.dim
    z, d = center_reference(g), derived_algebra_reference(g)
    splits = z.rank + d.rank == n and len(rref([list(r) for r in z.rows + d.rows])[1]) == n
    k = killing_form_reference(g).matrix
    images = [[sum((x * y for x, y in zip(row, w)), ZERO) for row in k] for w in d.rows]
    gram = [[sum((x * y for x, y in zip(v, kw)), ZERO) for kw in images] for v in d.rows]
    definite, pivots = is_definite_reference(gram, positive=False)
    return CompactnessReport(g, z, d, splits, definite, tuple(pivots))


def solve_cocycle_reference(g, constraints):
    """The 1-cocycle of bialgebra._solve_cocycle_with_values from one
    Fraction system: the brackets' coefficient lists with value 0, then the
    constraint vectors with their values; None when inconsistent."""
    rows = [v.coeffs() for v in g.structure.values()]
    rhs = [ZERO] * len(rows)
    for coeffs, value in constraints:
        rows.append(list(coeffs))
        rhs.append(Fraction(value))
    sol = solve(rows, rhs)
    return None if sol is None else Form.from_coeffs(sol[0])


# Reference routes for derivations: the Leibniz rule built and tested from
# bracket elements, which the library replaced by integer rows read from the
# table.

def is_derivation_reference(g, psi):
    """psi[e_i, e_j] == [psi e_i, e_j] + [e_i, psi e_j] for all i < j, on
    elements."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = psi.apply_element(g.bracket_basis(i, j))
            rhs = (g.bracket(psi.apply_element(g.basis_vector(i)), g.basis_vector(j))
                   + g.bracket(g.basis_vector(i), psi.apply_element(g.basis_vector(j))))
            if lhs != rhs:
                return False
    return True


def derivations_reference(g):
    """Derivation basis from a dense Fraction Leibniz system over the
    unknowns psi[a][b] at column a * n + b, one bracket element per entry."""
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j).coeffs()
            for component in range(n):
                row = [ZERO] * (n * n)
                for b in range(n):
                    # psi applied to [e_i, e_j]
                    row[component * n + b] += cij[b]
                for a in range(n):
                    # [psi e_i, e_j] contributes psi[a][i] [e_a, e_j]
                    row[a * n + i] -= g.bracket_basis(a, j).coeffs()[component]
                    # [e_i, psi e_j] contributes psi[a][j] [e_i, e_a]
                    row[a * n + j] -= g.bracket_basis(i, a).coeffs()[component]
                rows.append(row)
    basis = nullspace(rows) if rows else [list(r) for r in identity(n * n)]
    return [LinearMap.from_rows([[flat[a * n + b] for b in range(n)] for a in range(n)])
            for flat in basis]


def invariant_scalar_product_reference(g):
    """P^-T diag(-K_d, I) P^-1, where the columns of P are the derived rows,
    then the center rows, and K_d is the Killing form on the derived rows."""
    report = is_compact(g)
    basis = [list(r) for r in report.derived.rows] + [list(r) for r in report.center.rows]
    nd, n = report.derived.rank, g.dim
    k = killing_form(g).rows
    b_adapted = zeros(n, n)
    for i in range(n):
        for j in range(n):
            if i < nd and j < nd:
                b_adapted[i][j] = -sum(basis[i][a] * k[a][c] * basis[j][c]
                                       for a in range(n) for c in range(n))
            elif i == j:
                b_adapted[i][j] = Fraction(1)
    p_inv = invert(transpose(basis))
    return LinearMap.from_rows(mat_mul(transpose(p_inv), mat_mul(b_adapted, p_inv)))


def classify_semidirect_reference(b):
    """The semidirect certificate with theta0 = B(x0, .) / B(x0, x0) read
    from the n x n matrix of the invariant scalar product B, the kernel of
    theta0 from nullspace and the adapted basis (kernel, then x0)
    eliminated by _frame."""
    g, gs = b.g, b.g_star
    n = g.dim
    bform = invariant_scalar_product(g)
    theta_raw_form = Form.from_coeffs(bform.apply(b.x0.coeffs()))
    theta0 = theta_raw_form.scale(Fraction(1) / pair(theta_raw_form, b.x0))
    kernel_rows = nullspace([theta0.coeffs()])
    m = n - 1
    frame = _frame(kernel_rows + [b.x0.coeffs()], n)
    primal = _restrict(g, g.name, frame)
    dual = _restrict(gs, gs.name, tuple((den, list(zip(*rows))) for den, rows in reversed(frame)))
    block = lambda adapted: {(a, c): _embed(value, m)
                             for (a, c), value in adapted.structure.items() if c < m}
    h = LieAlgebra(f"{g.name}.factor", m, standard_labels(m), block(primal))
    h_star = LieAlgebra(f"{h.name}*", m, h.dual_labels, block(dual))
    zero = Multivector.zero(m, 1)
    psi = LinearMap.from_rows([_embed(dual.structure.get((a, m), zero), m).coeffs()
                               for a in range(m)]).add(LinearMap.identity(m))
    rebuilt = build_semidirect_glb(h, h_star, psi)
    if primal.structure != rebuilt.g.structure or dual.structure != rebuilt.g_star.structure:
        raise ValueError("semidirect reconstruction does not match the input")
    return SemidirectCertificate(theta0, h, h_star, psi, LinearMap.from_columns(kernel_rows))


def unit_center_vector_reference(g, phi0):
    """v / phi0(v) for v = sum phi0(z) z over the Fraction rows z of
    center(g), or None when phi0(v) = 0."""
    v = b_dual_sum_reference(center(g), phi0)
    value = pair(phi0, v)
    return v.scale(Fraction(1) / value) if value != 0 else None


def moved_glb(b, p):
    """b in the basis given by the columns of P: g by P, g* by the dual
    basis P^-T, phi0 pulled back by P^T and x0 moved by P^-1."""
    p_inv = invert(p)
    return GeneralizedBialgebra(change_basis(b.g, p, name="dense"),
                                change_basis(b.g_star, transpose(p_inv)),
                                induced(transpose(p), b.phi0), induced(p_inv, b.x0))


def b_dual_reference(b_form, covector):
    """Vector v with B(v, .) = covector, by inverting the matrix of B."""
    return mat_vec(invert(b_form.rows), list(covector))


def b_dual_sum_reference(center_g, phi):
    """sum_k phi(z_k) z_k over the Fraction rows z_k of a center, summed in
    Fraction: B^-1 phi for the invariant scalar product B of a compact
    algebra and a 1-cocycle phi."""
    values = [pair(phi, z) for z in center_g.elements()]
    return Multivector.from_coeffs([sum((a * z[i] for a, z in zip(values, center_g.rows)), ZERO)
                                    for i in range(center_g.dim)])


# Reference routes for the coordinate solvers of liealg, which read one left
# inverse per basis: one solve per vector, one wedge-basis system per
# 2-vector, and the inverse matrix times each bracket for a change of basis.

def coordinates_reference(basis, v):
    v = list(v)
    sol = solve([[b[i] for b in basis] for i in range(len(v))], v)
    return None if sol is None else sol[0]


def restrict_reference(g, basis, name):
    vectors = [Multivector.from_coeffs(b) for b in basis]
    structure = {}
    for a, b in combinations(range(len(basis)), 2):
        bracket = g.bracket(vectors[a], vectors[b])
        coords = coordinates_reference(basis, bracket.coeffs())
        if coords is None:
            labels = g.basis_labels
            raise ValueError(
                f"span is not bracket-closed: [{vectors[a].render(labels)}, "
                f"{vectors[b].render(labels)}] = {bracket.render(labels)} lies outside")
        value = Multivector.from_coeffs(coords)
        if not value.is_zero():
            structure[(a, b)] = value
    return LieAlgebra(name, len(basis), standard_labels(len(basis)), structure)


def restrict_bivector(r, basis):
    """Coordinates of r in the wedge basis of independent vectors, or None
    when r does not lie in the second exterior power of their span; a
    dependent family raises ValueError.  This was liealg.restrict_bivector
    until the library stopped calling it: one left inverse from
    liealg._frame, accepted by liealg._in_span only when B pushes it back.

    A span of fewer than two vectors holds only r = 0, returned as the
    top-grade zero Multivector.zero(m, m), the convention wedge uses.
    """
    return _in_span(_frame([list(b) for b in basis], r.dim), r)


def restrict_bivector_reference(r, basis):
    vectors = [Multivector.from_coeffs(b) for b in basis]
    if len(vectors) < 2:
        return Multivector.zero(len(vectors), len(vectors)) if r.is_zero() else None
    pairs = list(combinations(range(len(vectors)), 2))
    wedges = [wedge(vectors[a], vectors[b]) for a, b in pairs]
    ambient = list(combinations(range(r.dim), 2))
    coords = coordinates_reference([[w.coefficient(idx) for idx in ambient] for w in wedges],
                                   [r.coefficient(idx) for idx in ambient])
    if coords is None:
        return None
    return Multivector.from_terms(len(vectors), 2, dict(zip(pairs, coords)))


def change_basis_reference(g, columns, name=None):
    p = [list(r) for r in columns]
    p_inv = invert(p)
    n = g.dim
    structure = {}
    for i, j in combinations(range(n), 2):
        fi = Multivector.from_coeffs([p[r][i] for r in range(n)])
        fj = Multivector.from_coeffs([p[r][j] for r in range(n)])
        v = Multivector.from_coeffs(mat_vec(p_inv, g.bracket(fi, fj).coeffs()))
        if not v.is_zero():
            structure[(i, j)] = v
    return LieAlgebra(name or g.name, n, standard_labels(n), structure)


# Reference routes for the integer kernel of linalg: Gaussian elimination,
# matrix-vector products, determinants and the LDL^T definiteness test in
# Fraction arithmetic, entry by entry.

def rref_reference(a):
    """Gauss-Jordan elimination over Fraction; (matrix, pivot columns)."""
    m = [row[:] for row in a]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = pivot = [x * inv for x in m[r]]
        support = [j for j in range(c, cols) if pivot[j] != 0]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                row, f = m[i], m[i][c]
                for j in support:
                    row[j] -= f * pivot[j]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace_reference(a):
    m, pivots = rref_reference(a)
    cols = len(a[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve_reference(a, b):
    """(particular, nullspace basis) from the RREF of [a | b], or None."""
    cols = len(a[0])
    m, pivots = rref_reference([row + [bi] for row, bi in zip(a, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return x, nullspace_reference(a)


def mat_vec_reference(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a]


def determinant(a):
    """Determinant by Gaussian elimination with Fraction pivots on a copy."""
    n = len(a)
    m = [row[:] for row in a]
    det = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [m[i][j] - f * m[c][j] for j in range(n)]
    return det


def is_definite_reference(a, positive):
    """LDL^T with symmetric pivoting over Fraction: the first alive diagonal
    entry of the wanted sign is the next pivot; (verdict, pivots)."""
    n = len(a)
    m = [row[:] for row in a]
    alive = list(range(n))
    pivots = []
    want = 1 if positive else -1
    while alive:
        k = next((i for i in alive if (m[i][i] > 0) == (want > 0) and m[i][i] != 0), None)
        if k is None:
            return False, pivots
        d = m[k][k]
        pivots.append(d)
        alive.remove(k)
        row_k = m[k][:]
        for i in alive:
            f = m[i][k] / d
            if f != 0:
                for j in alive:
                    m[i][j] -= f * row_k[j]
            m[i][k] = ZERO
            m[k][i] = ZERO
    return True, pivots
