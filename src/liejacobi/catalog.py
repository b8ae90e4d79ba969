"""Prebuilt algebras and structure bundles, addressable by name.

Fixed-dimension entries are constructed once per call; abelian(n) and
heisenberg(1,n) take the parameter inside the name, up to dimension
liealg.MAX_DIM.  Entries come in three shapes: plain algebras, Yang-Baxter
bundles (algebra, phi0, r, x0), and full generalized bialgebras.
"""

from __future__ import annotations

import re
from fractions import Fraction

from liejacobi.bialgebra import (
    GeneralizedBialgebra,
    YbData,
    build_first_kind,
    build_second_kind,
    build_third_kind,
)
from liejacobi.exterior import Form, Multivector
from liejacobi.liealg import (
    MAX_DIM,
    LieAlgebra,
    Subspace,
    abelian,
    central_extension,
    direct_product,
    dual_label,
    semidirect_by_derivation,
    LinearMap,
)


def heisenberg(n: int) -> LieAlgebra:
    """Central extension of the abelian 2n-dimensional algebra:
    [e_{2i-1}, e_{2i}] = e_{2n+1}."""
    if n < 1:
        raise ValueError("heisenberg(1,n) needs n >= 1")
    omega = Form.from_terms(2 * n, 2, {(2 * i, 2 * i + 1): -1 for i in range(n)})
    return central_extension(abelian(2 * n), omega, name=f"heisenberg(1,{n})")


def _su2() -> LieAlgebra:
    return LieAlgebra.from_brackets("su2", 3, {(0, 1): [0, 0, 1],
                                               (0, 2): [0, -1, 0],
                                               (1, 2): [1, 0, 0]})


def _sl2r() -> LieAlgebra:
    return LieAlgebra.from_brackets("sl2r", 3, {(0, 1): [0, 2, 0],
                                                (0, 2): [0, 0, -2],
                                                (1, 2): [1, 0, 0]})


def _solvable3_51() -> YbData:
    g = LieAlgebra.from_brackets("solvable3_51", 3, {(0, 2): [1, 0, 0],
                                                     (1, 2): [0, -1, 0]})
    r = Multivector.from_terms(3, 2, {(0, 2): -1, (1, 2): 1})
    return YbData(g, Form.from_coeffs([0, 0, 1]), r,
                  Multivector.from_coeffs([1, 1, 0]))


def _h11_bundle() -> YbData:
    g = heisenberg(1).rename("h11")
    return YbData(g, Form.zero(3, 1), Multivector.from_terms(3, 2, {(0, 1): 2}),
                  Multivector.from_coeffs([0, 0, 1]))


def _semidirect4_53() -> YbData:
    half = Fraction(1, 2)
    psi = LinearMap.from_rows([[half, 0, 0], [0, half, 0], [0, 0, 1]])
    g = semidirect_by_derivation(abelian(3), psi, name="semidirect4_53")
    r = Multivector.from_terms(4, 2, {(0, 1): 1, (2, 3): -2})
    return YbData(g, Form.from_coeffs([0, 0, 0, 1]), r,
                  Multivector.from_coeffs([0, 0, 1, 0]))


def _noncob4_53() -> GeneralizedBialgebra:
    g = LieAlgebra.from_brackets("noncob4_53", 4, {(0, 3): [-1, 0, 0, 0],
                                                   (1, 3): [0, -1, 0, 0],
                                                   (2, 3): [0, 0, -1, 0]})
    g_star = LieAlgebra.from_brackets(
        "noncob4_53*", 4, {(0, 1): [0, 0, 1, 0], (0, 3): [0, 0, 0, 1]},
        labels=tuple(dual_label(l) for l in g.basis_labels))
    return GeneralizedBialgebra(g, g_star, Form.from_coeffs([0, 0, 0, 1]),
                                Multivector.from_coeffs([1, 0, 0, 0]))


def _firstkind4() -> GeneralizedBialgebra:
    g = abelian(4)
    h = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    return build_first_kind(g, h, Multivector.from_terms(4, 2, {(0, 1): 1}),
                            g.basis_form(2))


def _secondkind4() -> GeneralizedBialgebra:
    g = abelian(4)
    return build_second_kind(g, g.basis_vector(0), g.basis_vector(1), 1, 1, 0)


def _u2() -> LieAlgebra:
    return direct_product(_su2(), abelian(1), name="u2")


def _thirdkind_u2() -> GeneralizedBialgebra:
    g = _u2()
    return build_third_kind(g, g.basis_vector(0), g.basis_vector(1),
                            g.basis_vector(2), g.basis_vector(3), (1, 0, 0))


_FIXED = {
    "solvable2": lambda: LieAlgebra.from_brackets("solvable2", 2, {(0, 1): [1, 0]}),
    "solvable3_51": _solvable3_51,
    "sl2r": _sl2r,
    "su2": _su2,
    "u2": _u2,
    "gl2r": lambda: direct_product(_sl2r(), abelian(1), name="gl2r"),
    "h11": _h11_bundle,
    "semidirect4_53": _semidirect4_53,
    "noncob4_53": _noncob4_53,
    "firstkind4": _firstkind4,
    "secondkind4": _secondkind4,
    "thirdkind_u2": _thirdkind_u2,
}

_ABELIAN = re.compile(r"abelian\((\d+)\)\Z")
_HEISENBERG = re.compile(r"heisenberg\(1,(\d+)\)\Z")


def _within_limit(name: str, dim: int) -> None:
    if dim > MAX_DIM:
        raise ValueError(f"catalog name {name!r} asks for dimension {dim}, "
                         f"above the limit MAX_DIM = {MAX_DIM}")


def catalog_names() -> list[str]:
    return sorted(_FIXED) + ["abelian(n)", "heisenberg(1,n)"]


def catalog(name: str):
    """The prebuilt object for a catalog name.

    Returns a LieAlgebra, a YbData bundle, or a GeneralizedBialgebra
    depending on the entry; unknown names raise with the available list.
    """
    if name in _FIXED:
        return _FIXED[name]()
    m = _ABELIAN.match(name)
    if m:
        n = int(m.group(1))
        _within_limit(name, n)
        return abelian(n)
    m = _HEISENBERG.match(name)
    if m:
        n = int(m.group(1))
        _within_limit(name, 2 * n + 1)
        return heisenberg(n)
    raise ValueError(f"unknown catalog name {name!r}; available: "
                     + ", ".join(catalog_names()))
