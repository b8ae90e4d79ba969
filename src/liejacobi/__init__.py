"""Exact computations with Jacobi and bialgebra structures on finite-dimensional Lie algebras.

Everything is done over the rationals with exact arithmetic, so degeneracy
tests (contact conditions, rank computations, cocycle checks) are decidable
and every report carries exact residuals.

The public API is the layer modules, liejacobi.linalg, exterior, liealg,
schouten, jacobi, bialgebra, documents, catalog and cli; the package itself
re-exports nothing.
"""
