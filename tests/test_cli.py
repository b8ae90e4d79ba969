"""Command line behavior: exit codes, text goldens, machine format, --out."""

import json
import sys
from types import SimpleNamespace

import pytest

from helpers import broken_noncob, fm, mv, vec
from liejacobi import bialgebra, cli, documents, liealg
from liejacobi.catalog import catalog, catalog_names
from liejacobi.cli import main
from liejacobi.documents import parse, serialize
from liejacobi.exterior import Form, Multivector
from liejacobi.liealg import MAX_DIM


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out)


def write(tmp_path, name, obj, labels=None):
    path = tmp_path / name
    path.write_text(serialize(obj, labels))
    return str(path)


def test_yb_build_solvable_golden(capsys):
    code, out, _ = run(capsys, "yb-build", "--name", "solvable3_51")
    assert code == 0
    assert "[e^1,e^3]* = -e^3" in out
    assert "[e^2,e^3]* = e^3" in out
    assert "[e^1,e^2]*" not in out


def test_yb_build_h11_golden(capsys):
    code, out, _ = run(capsys, "yb-build", "--name", "h11")
    assert code == 0
    assert "[e^1,e^3]* = -3*e^1" in out
    assert "[e^2,e^3]* = -3*e^2" in out


def test_glb_check_noncob_golden(capsys):
    code, out, _ = run(capsys, "glb-check", "--name", "noncob4_53")
    assert code == 0
    assert "all conditions hold" in out


def test_jacobi_check_failure_golden(capsys):
    code, out, _ = run(capsys, "jacobi-check", "--name", "semidirect4_53")
    assert code == 1
    assert "2*e1^e2^e3" in out


def test_jacobi_check_machine_residual(capsys):
    code, payload = machine(capsys, "jacobi-check", "--name", "semidirect4_53")
    assert code == 1
    assert payload["kind"] == "jacobi"
    report = payload["report"]
    assert report["passed"] is False
    assert report["self_residual"]["terms"] == [
        {"index": ["e1", "e2", "e3"], "coeff": "2"}]
    assert report["vector_residual"]["terms"] == []


def test_usage_errors_exit_two(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    code, _, err = run(capsys, "yb-build", "--name", "nope")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "jacobi-check")
    assert code == 2 and "error:" in err
    assert run(capsys, "glb-check", "--name", "su2")[0] == 2   # not a glb entry
    # a parameter the catalog refuses is a usage error naming the bound
    assert run(capsys, "rank", "--name", "heisenberg(1,0)") == (
        2, "", "error: heisenberg(1,n) needs n >= 1\n")


def test_validate_judges_files(tmp_path, capsys):
    good = write(tmp_path, "su2.json", catalog("su2"))
    assert run(capsys, "validate", "--algebra", good)[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, _ = run(capsys, "validate", "--algebra", str(bad))
    assert code == 1 and "invalid" in out
    code, _, err = run(capsys, "jacobi-check", "--algebra", str(bad))
    assert code == 2 and "error:" in err


def test_validate_reports_jacobi_violation(tmp_path, capsys):
    doc = {"kind": "algebra", "name": "bad", "dim": 3,
           "basis": ["e1", "e2", "e3"],
           "brackets": [
               {"i": "e1", "j": "e2", "value": [{"basis": "e3", "coeff": "1"}]},
               {"i": "e1", "j": "e3", "value": [{"basis": "e1", "coeff": "1"}]}]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, payload = machine(capsys, "validate", "--algebra", str(path))
    assert code == 1
    assert payload["report"]["passed"] is False
    triple = payload["report"]["violations"][0]["triple"]
    assert triple == ["e1", "e2", "e3"]


def test_validate_element_schema_only(tmp_path, capsys):
    path = write(tmp_path, "m.json", mv(3, 2, {(0, 1): 1}), ("e1", "e2", "e3"))
    code, out, _ = run(capsys, "validate", "--algebra", path)
    assert code == 0 and "schema-valid" in out


def test_glb_document_with_a_foreign_name_is_usage_error(capsys, tmp_path):
    doc = documents.to_document(catalog("noncob4_53"))
    doc["name"] = "other"
    path = tmp_path / "glb.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "glb-check", "--glb", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and ": name: " in err


def test_validate_glb_by_name(capsys):
    code, payload = machine(capsys, "validate", "--name", "noncob4_53")
    assert code == 0
    assert payload["kind"] == "glb"
    assert payload["report"]["passed"] is True


def test_rank_and_char_sub(capsys):
    code, payload = machine(capsys, "rank", "--name", "solvable3_51")
    assert code == 0 and payload["report"]["rank"] == 3
    code, payload = machine(capsys, "char-sub", "--name", "solvable3_51")
    assert code == 0
    assert payload["report"]["tag"] == "contact"
    assert payload["report"]["dim"] == 3
    code, out, _ = run(capsys, "char-sub", "--name", "semidirect4_53")
    assert code == 1


def test_rank_with_files(tmp_path, capsys):
    g = catalog("su2")
    algebra = write(tmp_path, "g.json", g)
    r = write(tmp_path, "r.json", mv(3, 2, {(1, 2): -1}), g.basis_labels)
    x0 = write(tmp_path, "x0.json", vec(3, 0), g.basis_labels)
    code, payload = machine(capsys, "rank", "--algebra", algebra,
                            "--r", r, "--x0", x0)
    assert code == 0 and payload["report"]["rank"] == 3
    # defaults: omitted x0 is zero
    code, payload = machine(capsys, "rank", "--algebra", algebra, "--r", r)
    assert code == 0 and payload["report"]["rank"] == 2


def test_dimension_mismatch_is_usage_error(tmp_path, capsys):
    algebra = write(tmp_path, "g.json", catalog("su2"))
    r = write(tmp_path, "r.json", mv(4, 2, {(0, 1): 1}), ("e1", "e2", "e3", "e4"))
    code, _, err = run(capsys, "rank", "--algebra", algebra, "--r", r)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("dim", [0, 1])
def test_pair_subcommands_refuse_dimension_below_two(tmp_path, capsys, dim):
    # r is a 2-vector, so these inputs are usage errors, not failed checks
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"kind": "algebra", "name": "tiny", "dim": dim,
                                "basis": [f"e{i + 1}" for i in range(dim)], "brackets": []}))
    for sub in ("rank", "jacobi-check", "char-sub", "contact", "lcs", "yb-check", "yb-build"):
        for fmt in ("text", "machine"):
            code, out, err = run(capsys, sub, "--algebra", str(path), "--format", fmt)
            assert code == 2 and out == "" and f"has dimension {dim};" in err, sub
    code, _, err = run(capsys, "rank", "--name", f"abelian({dim})")
    assert code == 2 and f"has dimension {dim};" in err


@pytest.mark.parametrize("sub, flag, grade, needs, nonzero", [
    ("rank", "--r", 0, 2, False),
    ("char-sub", "--r", 3, 2, False),
    ("contact", "--r", 0, 2, False),
    ("yb-build", "--r", 3, 2, False),
    ("rank", "--x0", 0, 1, False),
    ("yb-check", "--phi0", 0, 1, False),
    ("contact", "--eta", 2, 1, True),
    ("lcs", "--omega", 1, 2, True),
    ("lcs", "--lee", 0, 1, False),
    ("lcs", "--lee", 2, 1, True),
])
def test_wrong_grade_element_is_usage_error(tmp_path, capsys, sub, flag, grade, needs, nonzero):
    # an element of the wrong grade is refused by the flag that reads it,
    # whether or not it is zero
    named = sub == "yb-check"
    g = catalog("h11").g if named else catalog("su2")
    cls = Form if flag in ("--phi0", "--eta", "--omega", "--lee") else Multivector
    element = cls.from_terms(3, grade, {tuple(range(grade)): 1}) if nonzero else cls.zero(3, grade)
    path = write(tmp_path, "element.json", element,
                 g.dual_labels if cls is Form else g.basis_labels)
    argv = [sub, "--name", "h11"] if named else [sub, "--algebra", write(tmp_path, "g.json", g)]
    if flag == "--lee":
        argv += ["--omega", write(tmp_path, "omega.json", fm(3, 2, {(0, 1): 1}), g.dual_labels)]
    code, out, err = run(capsys, *argv, flag, path)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert f"{flag} has grade {grade}, {flag} needs grade {needs}" in err


def test_contact_both_directions(tmp_path, capsys):
    g = catalog("su2")
    algebra = write(tmp_path, "g.json", g)
    eta = write(tmp_path, "eta.json", -Form.basis(3, 0), g.dual_labels)
    code, payload = machine(capsys, "contact", "--algebra", algebra, "--eta", eta)
    assert code == 0
    assert payload["kind"] == "jacobi"
    assert payload["report"]["reeb"]["terms"] == [{"index": ["e1"], "coeff": "-1"}]
    assert payload["report"]["r"]["terms"] == [{"index": ["e2", "e3"], "coeff": "1"}]
    r = write(tmp_path, "r.json", mv(3, 2, {(1, 2): 1}), g.basis_labels)
    x0 = write(tmp_path, "x0.json", -vec(3, 0), g.basis_labels)
    code, payload = machine(capsys, "contact", "--algebra", algebra,
                            "--r", r, "--x0", x0)
    assert code == 0
    assert payload["kind"] == "contact"
    assert payload["report"]["eta"]["terms"] == [{"index": ["e^1"], "coeff": "-1"}]


def test_contact_rejects_degenerate_form(tmp_path, capsys):
    g = catalog("su2")
    algebra = write(tmp_path, "g.json", g)
    zero_eta = write(tmp_path, "eta.json", Form.zero(3, 1), g.dual_labels)
    code, out, _ = run(capsys, "contact", "--algebra", algebra,
                       "--eta", zero_eta)
    assert code == 1


def test_degenerate_contact_and_lcs_forms_exit_1(tmp_path, capsys):
    # a nonzero eta with eta ^ d eta = 0 and a singular omega2: exit 1 with
    # the library's message
    a3, a4 = liealg.abelian(3), liealg.abelian(4)
    for argv, message in (
            (["contact", "--algebra", write(tmp_path, "a3.json", a3),
              "--eta", write(tmp_path, "eta.json", Form.basis(3, 0), a3.dual_labels)],
             "eta ^ (d eta)^k = 0: not an algebraic contact form"),
            (["lcs", "--algebra", write(tmp_path, "a4.json", a4),
              "--omega", write(tmp_path, "omega.json", fm(4, 2, {(0, 1): 1}), a4.dual_labels)],
             "omega2 is degenerate: omega2^k = 0")):
        assert run(capsys, *argv) == (1, message + "\n", "")
        code, payload = machine(capsys, *argv)
        assert code == 1
        assert payload["report"] == {"passed": False, "error": message}


def test_contact_rejects_rank_deficient_odd_pair(tmp_path, capsys):
    # rank 2 on abelian(3) and rank 1 on su2: exit 1 with the library's message
    g = liealg.abelian(3)
    abelian3 = write(tmp_path, "a3.json", g)
    r = write(tmp_path, "r.json", mv(3, 2, {(0, 1): 1}), g.basis_labels)
    x0 = write(tmp_path, "x0.json", vec(3, 0), catalog("su2").basis_labels)
    for argv in (["--algebra", abelian3, "--r", r], ["--name", "su2", "--x0", x0]):
        code, out, err = run(capsys, "contact", *argv)
        assert (code, out, err) == (1, "jacobi pair does not have full odd rank\n", "")
        code, payload = machine(capsys, "contact", *argv)
        assert code == 1
        assert payload["report"] == {"passed": False,
                                     "error": "jacobi pair does not have full odd rank"}


@pytest.mark.parametrize("g, r, x0", [
    # rank n - 2 on an even algebra, and a full-rank contact pair on su2
    (liealg.abelian(4), mv(4, 2, {(0, 1): 1}), Multivector.zero(4, 1)),
    (catalog("su2"), mv(3, 2, {(1, 2): 1}), -vec(3, 0)),
])
def test_lcs_refuses_a_pair_without_full_even_rank(tmp_path, capsys, g, r, x0):
    labels = g.basis_labels
    code, payload = machine(capsys, "lcs", "--algebra", write(tmp_path, "g.json", g),
                            "--r", write(tmp_path, "r.json", r, labels),
                            "--x0", write(tmp_path, "x0.json", x0, labels))
    assert code == 1
    assert payload["report"] == {"passed": False,
                                 "error": "jacobi pair does not have full even rank"}


def test_lcs_both_directions(tmp_path, capsys):
    g = catalog("solvable2")
    algebra = write(tmp_path, "g.json", g)
    omega = write(tmp_path, "omega.json", fm(2, 2, {(0, 1): -1}), g.dual_labels)
    code, payload = machine(capsys, "lcs", "--algebra", algebra, "--omega", omega)
    assert code == 0
    assert payload["report"]["r"]["terms"] == [{"index": ["e1", "e2"], "coeff": "-1"}]
    assert payload["report"]["x0"]["terms"] == []
    r = write(tmp_path, "r.json", mv(2, 2, {(0, 1): -1}), g.basis_labels)
    code, payload = machine(capsys, "lcs", "--algebra", algebra, "--r", r)
    assert code == 0
    assert payload["kind"] == "lcs"
    assert payload["report"]["omega"]["terms"] == [{"index": ["e^1", "e^2"], "coeff": "-1"}]
    assert payload["report"]["lee"]["terms"] == []


def test_yb_check_catalog_and_failure(tmp_path, capsys):
    code, payload = machine(capsys, "yb-check", "--name", "h11")
    assert code == 0
    assert payload["report"]["passed"] is True
    assert payload["report"]["cubic"]["terms"] == [
        {"index": ["e1", "e2", "e3"], "coeff": "-12"}]
    g = catalog("su2")
    algebra = write(tmp_path, "g.json", g)
    r = write(tmp_path, "r.json", mv(3, 2, {(0, 1): 1}), g.basis_labels)
    phi0 = write(tmp_path, "phi.json", Form.basis(3, 0), g.dual_labels)
    code, out, _ = run(capsys, "yb-check", "--algebra", algebra,
                       "--r", r, "--phi0", phi0)
    assert code == 1 and "1-cocycle" in out


def test_yb_build_failure_emits_report(tmp_path, capsys):
    g = catalog("su2")
    algebra = write(tmp_path, "g.json", g)
    r = write(tmp_path, "r.json", mv(3, 2, {(0, 1): 1}), g.basis_labels)
    x0 = write(tmp_path, "x0.json", vec(3, 0), g.basis_labels)
    code, payload = machine(capsys, "yb-build", "--algebra", algebra,
                            "--r", r, "--x0", x0)
    assert code == 1
    assert payload["kind"] == "report"
    assert payload["report"]["passed"] is False


def test_glb_extract_goldens(capsys):
    code, payload = machine(capsys, "glb-extract", "--name", "firstkind4")
    assert code == 0
    assert payload["report"]["y0"]["terms"] == [{"index": ["e3"], "coeff": "1"}]
    assert payload["report"]["r"]["terms"] == [{"index": ["e1", "e2"], "coeff": "1"}]
    assert payload["report"]["x0"]["terms"] == []
    assert payload["report"]["characteristic_tag"] == "lcs"
    code, payload = machine(capsys, "glb-extract", "--name", "thirdkind_u2")
    assert code == 0
    assert payload["report"]["y0"]["terms"] == [{"index": ["e4"], "coeff": "1"}]
    assert payload["report"]["r"]["terms"] == [
        {"index": ["e1", "e4"], "coeff": "1"},
        {"index": ["e2", "e3"], "coeff": "1"}]


def test_glb_extract_without_center_is_usage_error(capsys):
    code, _, err = run(capsys, "glb-extract", "--name", "noncob4_53")
    assert code == 2 and "error:" in err


def test_glb_classify_kinds(capsys):
    for name, kind in (("firstkind4", "first"), ("secondkind4", "second"),
                       ("thirdkind_u2", "third")):
        code, out, _ = run(capsys, "glb-classify", "--name", name)
        assert code == 0
        assert f"classification: {kind}" in out
    code, payload = machine(capsys, "glb-classify", "--name", "secondkind4")
    assert code == 0
    assert payload["report"]["kind"] == "second"
    assert {"lam", "lam1", "lam2"} <= set(payload["report"])


def test_glb_classify_checks_once(capsys, monkeypatch, tmp_path):
    # one compactness report of the base and one check_glb per command,
    # across the CLI and the library it calls; read from documents, since
    # the catalog's builders run their own checks
    calls = []

    def counting(name, fn):
        def wrapper(x):
            calls.append((name, x.name if name == "is_compact" else x.g.name))
            return fn(x)
        return wrapper
    for module in (cli, bialgebra):
        for name in ("is_compact", "check_glb"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        path = write(tmp_path, f"{name}.json", b)
        calls.clear()
        code, _, _ = run(capsys, "glb-classify", "--glb", path)
        assert code == 0
        assert [c for c in calls if c[1] == b.g.name] == [("is_compact", b.g.name),
                                                          ("check_glb", b.g.name)], name


def test_glb_classify_reports_a_failing_glb_on_a_compact_base(capsys, tmp_path):
    # the base u2 is compact, but doubling one g* structure constant breaks
    # the bracket compatibility: exit 1 with the glb report, no classification
    doc = documents.to_document(catalog("thirdkind_u2"))
    doc["g_star"]["brackets"][0]["value"][0]["coeff"] = "2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "glb-classify", "--glb", str(path))
    assert code == 1
    assert out.startswith("generalized bialgebra fails:")
    assert "bracket compatibility at (e2, e4): -e1^e2" in out
    assert "classification" not in out
    code, payload = machine(capsys, "glb-classify", "--glb", str(path))
    assert code == 1
    assert payload["report"]["passed"] is False and "kind" not in payload["report"]


def test_glb_classify_semidirect_document_prints_psi(capsys, tmp_path):
    su2 = catalog("su2")
    psi = liealg.LinearMap.from_columns([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    b = bialgebra.build_semidirect_glb(su2, liealg.abelian(3), psi)
    path = write(tmp_path, "semidirect.json", b)
    code, out, _ = run(capsys, "glb-classify", "--glb", path)
    assert code == 0 and out == "classification: phi0-zero-semidirect\n"
    code, payload = machine(capsys, "glb-classify", "--glb", path)
    assert code == 0
    assert payload["report"]["kind"] == "phi0-zero-semidirect"
    assert payload["report"]["psi"] == [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]


def test_glb_classify_noncompact_is_usage_error(capsys):
    code, _, err = run(capsys, "glb-classify", "--name", "noncob4_53")
    assert code == 2 and "compact" in err


def test_coboundary_solve(capsys):
    code, out, _ = run(capsys, "coboundary-solve", "--name", "noncob4_53")
    assert code == 0
    assert "no solution" in out
    code, payload = machine(capsys, "coboundary-solve", "--name", "noncob4_53")
    assert code == 0
    assert payload["report"]["empty"] is True
    assert payload["report"]["particular"] is None


def test_coboundary_solve_rejects_non_bialgebra(tmp_path, capsys):
    path = write(tmp_path, "broken.json", broken_noncob())
    code, out, err = run(capsys, "coboundary-solve", "--glb", path, "--format", "machine")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["passed"] is False and "not a generalized bialgebra" in report["error"]
    assert "Traceback" not in out + err


def test_catalog_listing_and_entry(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("su2", "noncob4_53", "heisenberg(1,2)"):
        assert name.split("(")[0] in out
    code, payload = machine(capsys, "catalog")
    assert code == 0
    assert payload["kind"] == "catalog"
    assert set(catalog_names()) <= set(payload["names"])
    code, out, _ = run(capsys, "catalog", "--name", "su2")
    assert code == 0
    assert json.loads(out)["kind"] == "algebra"
    assert run(capsys, "catalog", "--name", "nope")[0] == 2


def test_out_writes_canonical_document(tmp_path, capsys):
    out_file = tmp_path / "dual.json"
    code, stdout, _ = run(capsys, "yb-build", "--name", "solvable3_51",
                          "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert serialize(parse(text)) == text       # canonical fixed point
    payload = json.loads(text)
    assert payload["kind"] == "algebra"
    assert "report" not in payload


def test_validate_text_builds_the_document_only_for_out(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "to_document", lambda obj, labels=None: built.append(obj) or {})
    code, out, _ = run(capsys, "validate", "--name", "noncob4_53")
    assert code == 0 and "Jacobi identity holds" in out and built == []
    monkeypatch.undo()
    out_file = tmp_path / "glb.json"
    assert run(capsys, "validate", "--name", "noncob4_53", "--out", str(out_file))[0] == 0
    assert out_file.read_text() == serialize(catalog("noncob4_53"))


def test_out_with_machine_format(tmp_path, capsys):
    out_file = tmp_path / "pair.json"
    code, payload = machine(capsys, "jacobi-check", "--name", "solvable3_51",
                            "--out", str(out_file))
    assert code == 0
    assert payload["report"]["passed"] is True
    saved = json.loads(out_file.read_text())
    assert "report" not in saved and saved["kind"] == "jacobi"


def test_out_and_machine_output_match_indented_json_dumps(tmp_path, capsys):
    out_file = tmp_path / "glb.json"
    code, out, _ = run(capsys, "glb-check", "--name", "noncob4_53", "--format", "machine",
                       "--out", str(out_file))
    assert code == 0
    document = documents.to_document(catalog("noncob4_53"))
    assert out_file.read_text() == json.dumps(document, indent=2) + "\n"
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    for argv in (["catalog"], ["catalog", "--name", "h11"]):
        code, out, _ = run(capsys, *argv, "--format", "machine")
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    code, out, _ = run(capsys, "catalog", "--name", "h11")
    assert code == 0 and out == serialize(catalog("h11"))


def test_machine_output_is_streamed_in_pieces(monkeypatch, capsys):
    argv = ["validate", "--name", "noncob4_53", "--format", "machine"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    writes = []
    monkeypatch.setattr(documents, "_PIECE", 1)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(argv) == 0
    assert len(writes) > 10
    assert "".join(writes) == whole


@pytest.mark.parametrize("phi0, x0", [(Form.basis(1, 0), Multivector.zero(1, 1)),
                                      (Form.zero(1, 1), Multivector.basis(1, 0))])
def test_coboundary_solve_in_dimension_one(tmp_path, capsys, phi0, x0):
    g = liealg.abelian(1)
    path = write(tmp_path, "glb.json", bialgebra.GeneralizedBialgebra(g, g, phi0, x0))
    assert run(capsys, "glb-check", "--glb", path)[0] == 0
    code, payload = machine(capsys, "coboundary-solve", "--glb", path)
    assert code == 0
    report = payload["report"]
    assert report["empty"] is False and report["homogeneous"] == []
    assert report["particular"]["terms"] == []
    code, out, _ = run(capsys, "coboundary-solve", "--glb", path)
    assert code == 0 and "homogeneous solution space has dimension 0" in out


@pytest.mark.parametrize("sub", ["validate", "glb-check", "glb-classify", "coboundary-solve"])
def test_glb_document_in_dimension_zero(tmp_path, capsys, sub):
    # the dimension-0 bialgebra's phi0 and x0 are grade-0 zeros, and its
    # document parses back to it
    g = liealg.abelian(0)
    path = write(tmp_path, "glb.json", bialgebra.GeneralizedBialgebra(
        g, g, Form.zero(0, 0), Multivector.zero(0, 0)))
    code, _, err = run(capsys, sub, "--glb", path)
    assert (code, err) == (0, "")


def test_heisenberg_parameterized_names(capsys):
    code, out, _ = run(capsys, "jacobi-check", "--name", "h11")
    assert code == 1      # weak hypotheses only; jacobi residual is nonzero
    code, out, _ = run(capsys, "rank", "--name", "abelian(4)")
    assert code == 0 and "rank = 0" in out


def test_oversized_inputs_exit_two(tmp_path, capsys):
    # each of these would run O(dim^3) Jacobi checks without the limit
    with pytest.raises(ValueError, match="above the limit"):
        catalog(f"abelian({MAX_DIM + 1})")
    for name in ("abelian(33)", "abelian(100000)", "heisenberg(1,16)"):
        code, out, err = run(capsys, "validate", "--name", name)
        assert code == 2 and out == "" and f"MAX_DIM = {MAX_DIM}" in err, name
    n = MAX_DIM + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "algebra", "name": "big", "dim": n,
                                "basis": [f"e{i + 1}" for i in range(n)], "brackets": []}))
    code, _, err = run(capsys, "rank", "--algebra", str(path))
    assert code == 2 and "MAX_DIM" in err
    assert catalog(f"abelian({MAX_DIM})").dim == MAX_DIM
    assert catalog("heisenberg(1,15)").dim == 31


def _long_denominator_algebra(tmp_path, digits):
    # [e1,e2] = e3/q, [e1,e3] = e1/q breaks Jacobi; the residual's
    # coefficient 1/q^2 has twice the digits of q
    q = "7" * digits
    doc = {"kind": "algebra", "name": "long", "dim": 3, "basis": ["e1", "e2", "e3"],
           "brackets": [
               {"i": "e1", "j": "e2", "value": [{"basis": "e3", "coeff": f"1/{q}"}]},
               {"i": "e1", "j": "e3", "value": [{"basis": "e1", "coeff": f"1/{q}"}]}]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("text, validate_code", [
    (None, 2),                                              # 3000-digit denominators
    ('{"kind": "algebra", "name": "x", "dim": 1' + "0" * 5000 + ', "basis": [], "brackets": []}', 1),
    ("[" * 100000 + "]" * 100000, 1),
    (json.dumps({"kind": "algebra", "name": "x", "dim": 2, "basis": ["e1", "e2"], "brackets": [
        {"i": "e1", "j": "e2", "value": [{"basis": "e1", "coeff": "1e999999"}]}]}), 1),
], ids=["long-rationals", "long-json-integer", "deep-json", "exponent"])
def test_hostile_documents_are_input_errors(tmp_path, capsys, text, validate_code):
    # validate reports a malformed document as invalid (exit 1) and refuses
    # one past the limits (exit 2); the other subcommands refuse both
    if text is None:
        path = _long_denominator_algebra(tmp_path, 3000)
    else:
        path = tmp_path / "hostile.json"
        path.write_text(text)
    for sub in ("validate", "rank"):
        for fmt in ("text", "machine"):
            code, out, err = run(capsys, sub, "--algebra", str(path), "--format", fmt)
            assert "Traceback" not in err
            if sub == "validate" and validate_code == 1:
                assert code == 1
                assert ("invalid" in out if fmt == "text"
                        else json.loads(out)["report"]["passed"] is False)
            else:
                assert code == 2 and out == "" and err.startswith("error: ")
    if text is None:
        assert f"MAX_DIGITS = {liealg.MAX_DIGITS}" in err


def test_result_past_the_int_string_limit_is_a_report(tmp_path, capsys, monkeypatch):
    # the input cap lifted, so that the Jacobi residual cannot be rendered
    monkeypatch.setattr(documents, "MAX_DIGITS", 4300, raising=False)
    path = _long_denominator_algebra(tmp_path, 3000)
    code, out, err = run(capsys, "validate", "--algebra", path)
    assert code == 1 and "Exceeds the limit" in out and "Traceback" not in err
    code, payload = machine(capsys, "validate", "--algebra", path)
    assert code == 1
    assert payload["kind"] == "report" and payload["report"]["passed"] is False
    assert "Exceeds the limit" in payload["report"]["error"]
