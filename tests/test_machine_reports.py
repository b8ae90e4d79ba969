"""The machine form and the text of the check reports: documents._report
and the report of every check subcommand under --format machine equal the
fields written out by hand in helpers, describe() equals the texts written
out by hand there, nested reports included, and the rows of each report
class leave no residual field out."""

import dataclasses
import inspect
import json
import random
import typing

import pytest

from helpers import (
    broken_noncob,
    cubic_noninvariant_yb,
    describe_reference,
    glb_report_reference,
    jacobi_report_reference,
    non_lie_glb,
    noncommuting_yb,
    seeded_quadruples,
    validation_report_reference,
    yb_report_reference,
)
from liejacobi import cli
from liejacobi.bialgebra import (
    GeneralizedBialgebra,
    YbData,
    build_from_jacobi,
    build_semidirect_glb,
    check_glb,
    check_yb_hypotheses,
)
from liejacobi.catalog import catalog, catalog_names
from liejacobi.documents import _report, algebras_of, parse, serialize
from liejacobi.jacobi import JacobiPair, check_jacobi
from liejacobi.liealg import LieAlgebra, LinearMap, _Report

# the catalog entries, the two parameterized ones at small sizes
NAMES = [n for n in catalog_names() if not n.endswith("n)")] + ["abelian(3)",
                                                                 "heisenberg(1,2)"]


def non_lie_algebra():
    """[e1,e2] = e3, [e1,e3] = e1: the Jacobi identity fails at (e1,e2,e3)."""
    return parse(json.dumps({
        "kind": "algebra", "name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"],
        "brackets": [{"i": "e1", "j": "e2", "value": [{"basis": "e3", "coeff": "1"}]},
                     {"i": "e1", "j": "e3", "value": [{"basis": "e1", "coeff": "1"}]}]}))


def failing_inputs():
    """Objects with nonzero residuals in every entry shape of a report."""
    return ([broken_noncob(), non_lie_glb(), non_lie_algebra(), cubic_noninvariant_yb(),
             noncommuting_yb(), catalog("h11"), catalog("semidirect4_53")]
            + seeded_quadruples(random.Random(80)))


def reports_of(obj) -> list:
    """The check reports that the check subcommands make of obj."""
    reports = [g.validate() for g in algebras_of(obj)]
    if isinstance(obj, YbData):
        reports += [check_jacobi(JacobiPair(obj.g, obj.r, obj.x0)), check_yb_hypotheses(obj)]
    if isinstance(obj, GeneralizedBialgebra):
        reports.append(check_glb(obj))
    return reports


REFERENCES = {"ValidationReport": lambda rep: validation_report_reference([rep]),
              "JacobiReport": jacobi_report_reference,
              "YbReport": yb_report_reference,
              "GlbReport": glb_report_reference}


def test_report_matches_the_fields_written_out():
    shapes = set()
    for obj in [catalog(name) for name in NAMES] + failing_inputs():
        for rep in reports_of(obj):
            want = REFERENCES[type(rep).__name__](rep)
            got = _report(rep)
            if type(rep).__name__ == "ValidationReport":
                got = {"passed": got["passed"],
                       "violations": [{"algebra": rep.algebra.name, **entry}
                                      for entry in got["violations"]]}
            # json.dumps keeps key order: the order must match at every depth
            assert json.dumps(got) == json.dumps(want), (type(rep).__name__, obj)
            for value in want.values():
                if isinstance(value, list) and value:
                    shapes.add(tuple(value[0]))
    # every entry shape has been compared with nonzero residuals
    assert shapes == {("algebra", "triple", "residual"), ("i", "j", "residual"),
                      ("basis", "residual")}


def test_describe_matches_the_text_written_out():
    # the text of every report, passing and failing, against the texts the
    # report classes wrote out by hand, on the catalog, the failing inputs
    # and more seeded quadruples, one of them with a 1-cocycle phi0
    objs = [catalog(name) for name in NAMES] + failing_inputs()
    objs += seeded_quadruples(random.Random(81)) + seeded_quadruples(random.Random(82), True)
    failed = set()
    for obj in objs:
        for rep in reports_of(obj):
            want = describe_reference(rep)
            assert rep.describe() == want, (type(rep).__name__, obj)
            # a passing text is its one verdict line
            assert rep.passed == bool(rep) == ("\n" not in want)
            if not rep.passed:
                failed.add(type(rep).__name__)
    assert failed == {cls.__name__ for cls in _Report.__subclasses__()}


def test_nested_report_texts():
    # a failing report inside a construction's preconditions sits two spaces
    # deeper than the line that introduces it, a report nested twice too
    y = cubic_noninvariant_yb()
    with pytest.raises(ValueError) as exc:
        build_from_jacobi(y)
    lines = describe_reference(check_jacobi(JacobiPair(y.g, y.r, y.x0))).split("\n")
    assert str(exc.value) == "\n".join(["jacobi construction preconditions fail:",
                                        "  (r, x0) is not a jacobi pair:",
                                        *("    " + line for line in lines)])
    bad = non_lie_glb()
    with pytest.raises(ValueError) as exc:
        build_semidirect_glb(bad.g, bad.g_star, LinearMap.identity(3))
    lines = describe_reference(check_glb(bad)).split("\n")
    assert len(lines) > 5
    assert str(exc.value) == "\n".join(["semidirect hypotheses fail:",
                                        "  (h, h*) is not a Lie bialgebra:",
                                        *("    " + line for line in lines),
                                        "  psi is not a derivation of h"])


def test_cubic_invariance_entries():
    report = _report(check_yb_hypotheses(cubic_noninvariant_yb()))
    assert report["passed"] is False
    assert report["cubic_invariance"] == [
        {"basis": "e4",
         "residual": {"kind": "multivector", "grade": 3, "basis": ["e1", "e2", "e3", "e4"],
                      "terms": [{"index": ["e1", "e2", "e3"], "coeff": "-4"}]}}]
    assert report["vector_invariance"] == []


# check subcommand -> the reference report of the object its result document
# parses to
EXPECTED = {
    "validate": lambda obj: validation_report_reference([g.validate() for g in algebras_of(obj)]),
    "jacobi-check": lambda jp: jacobi_report_reference(check_jacobi(jp)),
    "yb-check": lambda y: yb_report_reference(check_yb_hypotheses(y)),
    "glb-check": lambda b: glb_report_reference(check_glb(b)),
    "glb-classify": lambda b: glb_report_reference(check_glb(b)),
}


def machine_report(capsys, argv):
    """(exit code, the object of the result document, its report), or None
    when the command prints no check report."""
    code = cli.main([*argv, "--format", "machine"])
    out = capsys.readouterr().out
    if code == 2 or (argv[0] == "glb-classify" and code == 0):
        return None
    payload = json.loads(out)
    report = payload.pop("report")
    return (code, parse(json.dumps(payload)), report) if payload["kind"] != "report" else None


def test_machine_payload_matches_the_fields_written_out(capsys, tmp_path):
    argvs = [[sub, "--name", name] for sub in EXPECTED for name in NAMES]
    for k, obj in enumerate(failing_inputs()):
        if isinstance(obj, YbData):
            files = {}
            for flag, value, labels in (("algebra", obj.g, None),
                                        ("r", obj.r, obj.g.basis_labels),
                                        ("x0", obj.x0, obj.g.basis_labels),
                                        ("phi0", obj.phi0, obj.g.dual_labels)):
                files[flag] = tmp_path / f"{k}-{flag}.json"
                files[flag].write_text(serialize(value, labels))
            common = [arg for flag in ("algebra", "r", "x0") for arg in (f"--{flag}",
                                                                           str(files[flag]))]
            argvs += [["jacobi-check", *common],
                      ["yb-check", *common, "--phi0", str(files["phi0"])]]
            continue
        path = tmp_path / f"{k}.json"
        path.write_text(serialize(obj))
        if isinstance(obj, LieAlgebra):
            argvs.append(["validate", "--algebra", str(path)])
        else:
            argvs += [["validate", "--glb", str(path)], ["glb-check", "--glb", str(path)]]
    # a failing glb on a compact base reaches glb-classify's report
    broken = json.loads(serialize(catalog("thirdkind_u2")))
    broken["g_star"]["brackets"][0]["value"][0]["coeff"] = "2"
    path = tmp_path / "broken-u2.json"
    path.write_text(json.dumps(broken))
    argvs.append(["glb-classify", "--glb", str(path)])
    failed = set()
    for argv in argvs:
        result = machine_report(capsys, argv)
        if result is None:
            continue
        code, obj, report = result
        want = EXPECTED[argv[0]](obj)
        assert json.dumps(report) == json.dumps(want), argv
        assert code == (0 if report["passed"] else 1), argv
        if code:
            failed.add(argv[0])
    assert failed == set(EXPECTED)


def test_every_residual_field_is_in_the_machine_form():
    # the rows of each report class name every field but the first, the
    # checked object, once, under distinct machine keys
    for cls in _Report.__subclasses__():
        names = [f.name for f in dataclasses.fields(cls)]
        assert sorted(attr for _, attr, _ in cls._rows) == sorted(names[1:]), cls.__name__
        keys = [key for key, _, _ in cls._rows]
        assert len(set(keys)) == len(keys) and "passed" not in keys
    # the report classes of validate and of the check subcommands are
    # exactly the classes with rows
    checks = {sub: inspect.getclosurevars(handler).nonlocals["check"]
              for sub, (handler, _) in cli._SUBCOMMANDS.items()
              if handler.__qualname__.startswith("_check.")}
    assert set(checks) == {"jacobi-check", "yb-check", "glb-check"}
    classes = {typing.get_type_hints(check)["return"]
               for check in [LieAlgebra.validate, *checks.values()]}
    assert classes == set(_Report.__subclasses__())


def test_check_handlers_call_the_check_through_its_name(capsys, monkeypatch):
    # a wrapper put on the module name, as benchmarks/tracer.py puts one,
    # sees every call of the shared handler
    calls = []
    for name in ("check_jacobi", "check_yb_hypotheses", "check_glb"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda obj, fn=fn, name=name: calls.append(name) or fn(obj))
    for sub, entry in (("jacobi-check", "h11"), ("yb-check", "h11"), ("glb-check", "noncob4_53")):
        cli.main([sub, "--name", entry])
    capsys.readouterr()
    assert calls == ["check_jacobi", "check_yb_hypotheses", "check_glb"]
