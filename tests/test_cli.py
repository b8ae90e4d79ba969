"""Command line behavior: exit codes, text goldens, machine format, --out."""

import json
from dataclasses import replace

import pytest

from helpers import fm, mv, vec
from liejacobi.bialgebra import GeneralizedBialgebra
from liejacobi import documents, liealg
from liejacobi.catalog import catalog, catalog_names
from liejacobi.cli import main
from liejacobi.documents import parse, serialize
from liejacobi.exterior import Form
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
    # schema-valid, but [e^1,e^4]* = 3 e^4 breaks the bialgebra conditions
    b = catalog("noncob4_53")
    structure = dict(b.g_star.structure)
    structure[(0, 3)] = structure[(0, 3)].scale(3)
    broken = GeneralizedBialgebra(b.g, replace(b.g_star, structure=structure), b.phi0, b.x0)
    path = write(tmp_path, "broken.json", broken)
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


def test_out_with_machine_format(tmp_path, capsys):
    out_file = tmp_path / "pair.json"
    code, payload = machine(capsys, "jacobi-check", "--name", "solvable3_51",
                            "--out", str(out_file))
    assert code == 0
    assert payload["report"]["passed"] is True
    saved = json.loads(out_file.read_text())
    assert "report" not in saved and saved["kind"] == "jacobi"


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
