"""An op makes the same public calls on a cold algebra and on a warm one.

The invariants of a LieAlgebra, and the glb sums of a GeneralizedBialgebra,
are kept in private caches built on first use, whose bodies hold only
integer data and make no public call.  So an op run on a fresh algebra and
the same op run again on one whose caches are filled must call every public
liejacobi function, and every __post_init__, the same number of times: a
cache that skipped a public call would make a profile or trace of one op
depend on what ran before it.
"""

import cProfile
import pstats
from dataclasses import replace
from functools import cached_property
from pathlib import Path

from helpers import dense_heisenberg_cocycle
from liejacobi import cli
from liejacobi import liealg
from liejacobi.bialgebra import (GeneralizedBialgebra, _classify_checked, _extract_checked,
                                 build_first_kind, build_second_kind, build_semidirect_glb,
                                 build_third_kind, check_glb, classify_compact, extract_jacobi,
                                 glb_from_cocycle, solve_coboundary, unit_center_vector)
from liejacobi.catalog import catalog, heisenberg
from liejacobi.documents import serialize
from liejacobi.exterior import Form, Multivector, wedge
from liejacobi.liealg import LieAlgebra, LinearMap, Subspace, abelian, direct_product

PACKAGE = Path(cli.__file__).resolve().parent


def _public_calls(fn) -> dict:
    """ncalls of each public liejacobi function, dunder method and
    __post_init__ that fn() runs, keyed by (file, line, name)."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    return {key: row[1] for key, row in pstats.Stats(profile).stats.items()
            if Path(key[0]).parent == PACKAGE
            and (not key[2].startswith(("_", "<")) or key[2].startswith("__"))}


# the public calls that build a CompactnessReport (is_compact, also inside
# invariant_scalar_product) or a center Subspace (center)
CENTER_REPORTS = {"is_compact", "center", "derived_algebra", "invariant_scalar_product"}


def _su2_r2():
    return direct_product(catalog("su2"), abelian(2), name="su2xR2")


def _v(*coeffs):
    return Multivector.from_coeffs(list(coeffs))


def _first(g):
    u, w = _v(1, 2, -1, 0, 0), _v(0, 0, 0, 2, -1)
    return build_first_kind(g, Subspace.from_elements([u, w]), wedge(u, w).scale(3),
                            Form.from_coeffs([0, 0, 0, 1, 2]))


def _second(g):
    return build_second_kind(g, _v(0, 0, 0, 1, 2), _v(0, 0, 0, 3, 1), 1, 2, -1)


def _third(g):
    e1, e2, e3 = (_v(*(int(k == j) for k in range(5))) for j in range(3))
    return build_third_kind(g, e1, e2, e3, _v(0, 0, 0, 1, -2), (1, -2, 3))


def test_builders_and_classification_call_alike_cold_and_warm():
    shared = _su2_r2()
    for build in (_first, _second, _third):
        op = lambda g: classify_compact(build(g))     # noqa: E731
        fresh = _su2_r2()
        cold = _public_calls(lambda: op(fresh))
        warm = _public_calls(lambda: op(shared))    # warm from the kinds before
        assert cold == warm, build.__name__
        names = {name for _, _, name in cold}
        assert "__post_init__" in names and names.isdisjoint(CENTER_REPORTS)
    assert {"_killing", "_center", "_derived", "_compactness"} <= set(vars(shared))


def test_center_readers_build_no_center_report():
    # classification, extraction, the kind builders and unit_center_vector
    # read the center of g from the cached rows g._center and decide
    # compactness from g._compactness: on their success paths, on a cold
    # algebra as on a warm one, they make none of the public calls that
    # build a CompactnessReport, a center Subspace or the invariant product
    def names(fn):
        return {name for _, _, name in _public_calls(fn)}

    def cold(b):
        return replace(b, g=replace(b.g))     # a new g, with empty caches

    u2_dual = LieAlgebra("u2*", 4, ("f1", "f2", "f3", "f4"), {})
    psi = LinearMap.from_columns([[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 2]])
    su2 = catalog("su2")
    glbs = [build_semidirect_glb(catalog("u2"), u2_dual, psi),
            glb_from_cocycle(heisenberg(1), Form.basis(3, 0)),
            GeneralizedBialgebra(su2, LieAlgebra("su2*", 3, su2.dual_labels, {}),
                                 Form.zero(3, 1), Multivector.zero(3, 1))]
    for build in (_first, _second, _third):
        assert names(lambda: build(_su2_r2())).isdisjoint(CENTER_REPORTS), build.__name__
        glbs.append(build(_su2_r2()))
    kinds = []
    for b in glbs:
        kinds.append(classify_compact(b).kind)
        y0 = unit_center_vector(b.g, b.phi0)
        ops = [classify_compact, _classify_checked,
               lambda c: unit_center_vector(c.g, c.phi0)]
        if y0 is not None:
            ops += [lambda c: extract_jacobi(c, y0), lambda c: _extract_checked(c, y0)]
        for op in ops:
            for c in (cold(b), b):
                assert names(lambda: op(c)).isdisjoint(CENTER_REPORTS), (b.g.name, op)
    assert kinds == ["phi0-zero-semidirect", "phi0-zero-semidirect", "lie-bialgebra",
                     "first", "second", "third"]


def test_glb_checks_call_alike_cold_and_warm():
    # glb_from_cocycle checks b and keeps its glb sums, which the check in
    # solve_coboundary reads: the op calls alike on a fresh dense
    # heisenberg(1,3) and on one an earlier op warmed, and a check of one
    # object calls alike before and after its sums are kept
    op = lambda g, phi: solve_coboundary(glb_from_cocycle(g, phi))     # noqa: E731
    fresh, phi = dense_heisenberg_cocycle(5)
    warm = dense_heisenberg_cocycle(5)[0]
    op(warm, phi)
    assert _public_calls(lambda: op(fresh, phi)) == _public_calls(lambda: op(warm, phi))
    b = replace(glb_from_cocycle(warm, phi))
    assert "_compat" not in vars(b)
    runs = [_public_calls(lambda: check_glb(b)) for _ in range(2)]
    assert "_compat" in vars(b)
    assert runs[0] == runs[1]
    assert {"validate", "ce_differential", "pair", "__post_init__"} <= {
        name for _, _, name in runs[0]}


def test_cli_classification_calls_alike_on_each_run(capsys, tmp_path):
    # the CLI builds its algebra afresh on every call, by name or from a
    # document, so no earlier call may change the public calls of the next
    path = tmp_path / "glb.json"
    path.write_text(serialize(catalog("thirdkind_u2")))
    for argv in (["glb-classify", "--name", "thirdkind_u2"],
                 ["glb-classify", "--glb", str(path), "--format", "machine"]):
        runs = [_public_calls(lambda: cli.main(argv)) for _ in range(2)]
        assert runs[0] == runs[1], argv
        assert "is_compact" in {name for _, _, name in runs[0]}, argv
    capsys.readouterr()


def test_semidirect_build_tests_its_derivation_on_rows_kept_once(monkeypatch):
    # build_semidirect_glb tests that id - psi* is a derivation of h* twice,
    # for its own hypotheses and inside semidirect_by_derivation: the
    # Leibniz rows are kept once per algebra, so the second test is one dot
    # product, and a cold h* and a warm one make the same public calls
    def solvable2_star():
        return LieAlgebra("solvable2*", 2, ("e^1", "e^2"), catalog("solvable2").structure)

    psi = LinearMap.from_rows([[2, 0], [3, 1]])
    warm = solvable2_star()
    build_semidirect_glb(abelian(2), warm, psi)
    assert "_leibniz" in vars(warm)
    kept = [dict(row) for row in warm._leibniz]
    fresh = solvable2_star()
    cold = _public_calls(lambda: build_semidirect_glb(abelian(2), fresh, psi))
    assert cold == _public_calls(lambda: build_semidirect_glb(abelian(2), warm, psi))
    assert sum(n for (_, _, name), n in cold.items() if name == "is_derivation") == 3
    # the cached rows are read, never changed, by is_derivation and by the
    # elimination of derivations
    liealg.derivations(warm)
    assert [dict(row) for row in warm._leibniz] == kept
    # each algebra builds its rows once: h for psi, h* for both tests
    built = []
    rows = LieAlgebra.__dict__["_leibniz"].func
    counted = cached_property(lambda g: built.append(g.name) or rows(g))
    counted.__set_name__(LieAlgebra, "_leibniz")
    monkeypatch.setattr(LieAlgebra, "_leibniz", counted)
    build_semidirect_glb(abelian(2), solvable2_star(), psi)
    assert built == ["abelian(2)", "solvable2*"]
