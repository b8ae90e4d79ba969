"""Document schema: parsing, serialization, fixed points and error paths."""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fm, mv, vec
from liejacobi.bialgebra import GeneralizedBialgebra, build_dual_bracket
from liejacobi.catalog import catalog, catalog_names, heisenberg
from liejacobi.documents import (
    _KINDS,
    _dump,
    DocumentError,
    LimitError,
    algebras_of,
    parse,
    parse_rational,
    render_rational,
    serialize,
    to_document,
)
from liejacobi.exterior import Form, Multivector
from liejacobi.jacobi import ContactStructure, JacobiPair, LcsStructure
from liejacobi.liealg import MAX_DIGITS, MAX_DIM, abelian


def _sample_objects():
    y = catalog("solvable3_51")
    samples = [catalog("su2"), y, catalog("h11"), catalog("noncob4_53"),
               JacobiPair(y.g, y.r, y.x0),
               ContactStructure(catalog("su2"), Form.basis(3, 0)),
               LcsStructure(catalog("solvable2"), fm(2, 2, {(0, 1): -1}),
                            Form.zero(2, 1))]
    # abelian bialgebras in dimension 1 and 0, which has no grade 1: its phi0
    # and x0 are the grade-0 zeros
    samples += [GeneralizedBialgebra(abelian(n), abelian(n), Form.zero(n, min(1, n)),
                                     Multivector.zero(n, min(1, n))) for n in (1, 0)]
    return samples


def test_serialize_parse_identity():
    for obj in _sample_objects():
        assert parse(serialize(obj)) == obj


def test_serialize_byte_fixed_point():
    for obj in _sample_objects():
        text = serialize(obj)
        assert serialize(parse(text)) == text


def test_every_bundle_kind_has_a_round_tripping_sample():
    samples = _sample_objects()
    kinds = {to_document(obj)["kind"] for obj in samples}
    assert set(_KINDS) <= kinds, "a bundle kind has no sample"
    for obj in samples:
        text = serialize(obj)
        assert serialize(parse(text)) == text
        doc = json.loads(text)
        nested = tuple(parse(json.dumps(v)) for v in doc.values()
                       if isinstance(v, dict) and v.get("kind") == "algebra")
        assert algebras_of(obj) == (nested if doc["kind"] != "algebra" else (obj,))
    assert algebras_of(Form.basis(3, 0)) == ()


def test_standalone_elements_need_labels():
    m = mv(3, 2, {(0, 2): Fraction(1, 2)})
    labels = ("e1", "e2", "e3")
    text = serialize(m, labels)
    assert parse(text) == m                      # carries its own basis
    doc = json.loads(text)
    del doc["basis"]
    assert parse(json.dumps(doc), labels=labels) == m
    with pytest.raises(DocumentError, match="basis"):
        parse(json.dumps(doc))
    f = fm(3, 1, {(1,): -2})
    ftext = serialize(f, ("e^1", "e^2", "e^3"))
    assert parse(ftext) == f
    fdoc = json.loads(ftext)
    del fdoc["basis"]
    assert parse(json.dumps(fdoc), dual_labels=("e^1", "e^2", "e^3")) == f


def test_element_index_normalization():
    doc = {"kind": "multivector", "grade": 2, "basis": ["e1", "e2", "e3"],
           "terms": [{"index": ["e3", "e2"], "coeff": "1"}]}
    assert parse(json.dumps(doc)) == mv(3, 2, {(1, 2): -1})
    doc["terms"].append({"index": ["e2", "e3"], "coeff": "1"})
    assert parse(json.dumps(doc)).is_zero()      # the two terms cancel


def test_parse_rejects_malformed_json():
    with pytest.raises(DocumentError, match="line 1"):
        parse("{not json")
    with pytest.raises(DocumentError, match="top-level object"):
        parse("[1, 2]")
    with pytest.raises(DocumentError, match="unknown document kind"):
        parse(json.dumps({"kind": "mystery"}))


def _su2_doc():
    return to_document(catalog("su2"))


def test_parse_rejects_unknown_and_missing_fields():
    doc = _su2_doc()
    doc["extra"] = 1
    with pytest.raises(DocumentError, match="unknown field"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    del doc["basis"]
    with pytest.raises(DocumentError, match="missing field 'basis'"):
        parse(json.dumps(doc))
    for kind in ([], {}, 3):
        with pytest.raises(DocumentError, match="unknown document kind"):
            parse(json.dumps(dict(_su2_doc(), kind=kind)))


def test_parse_rejects_bad_algebra_entries():
    doc = _su2_doc()
    doc["brackets"][0]["j"] = "e1"
    with pytest.raises(DocumentError, match="repeated index"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    doc["brackets"][0]["i"], doc["brackets"][0]["j"] = "e2", "e1"
    with pytest.raises(DocumentError, match="precede"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    doc["brackets"].append(dict(doc["brackets"][0]))
    with pytest.raises(DocumentError, match="duplicate bracket"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    doc["brackets"][0]["value"][0]["basis"] = "e9"
    with pytest.raises(DocumentError, match="unknown basis label"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    doc["dim"] = 2
    with pytest.raises(DocumentError, match="labels for dim"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    doc["dim"] = -1
    with pytest.raises(DocumentError, match="nonnegative"):
        parse(json.dumps(doc))


def test_parse_rejects_dimension_above_limit():
    n = MAX_DIM + 1
    doc = {"kind": "algebra", "name": "big", "dim": n,
           "basis": [f"e{i + 1}" for i in range(n)], "brackets": []}
    with pytest.raises(DocumentError, match=f"exceeds the limit MAX_DIM = {MAX_DIM}"):
        parse(json.dumps(doc))
    doc["dim"] = 10 ** 9        # rejected before the labels are read
    with pytest.raises(DocumentError, match="MAX_DIM"):
        parse(json.dumps(doc))
    doc.update(dim=MAX_DIM, basis=doc["basis"][:MAX_DIM])
    assert parse(json.dumps(doc)).dim == MAX_DIM


def test_parse_rejects_rationals_above_digit_limit():
    long = "7" * (MAX_DIGITS + 1)
    for text in (long, f"1/{long}", f"-{long}/3"):
        with pytest.raises(LimitError, match=f"MAX_DIGITS = {MAX_DIGITS}"):
            parse_rational(text, "x")
    edge = "7" * MAX_DIGITS
    assert parse_rational(f"-{edge}/{edge}", "x") == -1
    # 2^200 and 3^120 fit the limit, their lcm does not: in one algebra,
    # in one element, and summed into one coefficient
    p, q = f"1/{2 ** 200}", f"1/{3 ** 120}"
    assert len(str(2 ** 200 * 3 ** 120)) > MAX_DIGITS
    doc = _su2_doc()
    doc["brackets"][0]["value"][0]["coeff"] = p
    doc["brackets"][1]["value"][0]["coeff"] = q
    with pytest.raises(LimitError, match="common denominator"):
        parse(json.dumps(doc))
    doc = _su2_doc()
    doc["brackets"][0]["value"] = [{"basis": "e3", "coeff": p}, {"basis": "e3", "coeff": q}]
    with pytest.raises(LimitError, match="common denominator"):
        parse(json.dumps(doc))
    element = {"kind": "multivector", "grade": 1, "basis": ["e1", "e2"],
               "terms": [{"index": ["e1"], "coeff": p}, {"index": ["e2"], "coeff": q}]}
    with pytest.raises(LimitError, match="common denominator"):
        parse(json.dumps(element))
    element["terms"][1]["index"] = ["e1"]
    with pytest.raises(LimitError, match="common denominator"):
        parse(json.dumps(element))


def test_parse_keeps_jacobi_check_lazy():
    # schema-valid but mathematically broken algebras parse; validate() reports
    doc = {"kind": "algebra", "name": "bad", "dim": 3,
           "basis": ["e1", "e2", "e3"],
           "brackets": [
               {"i": "e1", "j": "e2", "value": [{"basis": "e3", "coeff": "1"}]},
               {"i": "e1", "j": "e3", "value": [{"basis": "e1", "coeff": "1"}]}]}
    g = parse(json.dumps(doc))
    report = g.validate()
    assert not report.passed
    assert report.violations[0][0] == (0, 1, 2)


def test_parse_rejects_bad_rationals():
    doc = _su2_doc()
    doc["brackets"][0]["value"][0]["coeff"] = "x"
    with pytest.raises(DocumentError, match="not a rational"):
        parse(json.dumps(doc))
    doc["brackets"][0]["value"][0]["coeff"] = "1/0"
    with pytest.raises(DocumentError, match="not a rational"):
        parse(json.dumps(doc))
    doc["brackets"][0]["value"][0]["coeff"] = 1
    with pytest.raises(DocumentError, match="must be strings"):
        parse(json.dumps(doc))
    # only "p" and "p/q": the exponent form would denote huge integers
    for text in ("1e5", "1e999999999", "0.5", " 2", "1_000", "", "1/-2", "٣"):
        with pytest.raises(DocumentError, match="not a rational"):
            parse_rational(text, "x")


def test_parse_rejects_bad_element_terms():
    base = {"kind": "multivector", "grade": 2, "basis": ["e1", "e2"],
            "terms": [{"index": ["e1", "e1"], "coeff": "1"}]}
    with pytest.raises(DocumentError, match="repeated index"):
        parse(json.dumps(base))
    base["terms"] = [{"index": ["e1"], "coeff": "1"}]
    with pytest.raises(DocumentError, match="entries for grade"):
        parse(json.dumps(base))
    base["grade"] = -1
    with pytest.raises(DocumentError, match="nonnegative"):
        parse(json.dumps(base))
    base["grade"] = True
    with pytest.raises(DocumentError, match="nonnegative"):
        parse(json.dumps(base))


def test_parse_rejects_failed_bundle_constructors():
    cs = ContactStructure(catalog("su2"), Form.basis(3, 0))
    doc = to_document(cs)
    doc["eta"]["terms"] = []                     # zero form is not contact
    with pytest.raises(DocumentError):
        parse(json.dumps(doc))
    jp = JacobiPair(catalog("su2"), mv(3, 2, {(1, 2): -1}), vec(3, 0))
    jdoc = to_document(jp)
    jdoc["r"]["grade"] = 1
    jdoc["r"]["terms"] = [{"index": ["e1"], "coeff": "1"}]
    with pytest.raises(DocumentError):
        parse(json.dumps(jdoc))


def test_glb_document_shape():
    b = catalog("noncob4_53")
    doc = to_document(b)
    assert doc["kind"] == "glb"
    assert doc["name"] == b.g.name
    assert set(doc) == {"kind", "name", "g", "g_star", "phi0", "x0"}
    assert parse(json.dumps(doc)) == b
    bad = json.loads(json.dumps(doc))
    bad["g_star"]["dim"] = 3
    bad["g_star"]["basis"] = bad["g_star"]["basis"][:3]
    with pytest.raises(DocumentError):
        parse(json.dumps(bad))


@pytest.mark.parametrize("name", [5, {"x": [1]}, "other"], ids=["number", "object", "string"])
def test_glb_name_must_be_the_base_algebra_name(name):
    doc = to_document(catalog("noncob4_53"))
    doc["name"] = name
    with pytest.raises(DocumentError) as info:
        parse(json.dumps(doc))
    assert info.value.path == "name"


def test_glb_name_is_optional():
    b = catalog("noncob4_53")
    doc = to_document(b)
    del doc["name"]
    assert parse(json.dumps(doc)) == b


def test_assembled_bialgebra_documents_roundtrip():
    y = catalog("h11")
    b = GeneralizedBialgebra(y.g, build_dual_bracket(y), y.phi0, y.x0)
    assert parse(serialize(b)) == b


def test_contact_and_lcs_documents():
    cs = ContactStructure(heisenberg(1), Form.basis(3, 2))
    assert parse(serialize(cs)) == cs
    doc = to_document(cs)
    assert doc["kind"] == "contact" and doc["eta"]["grade"] == 1
    ls = LcsStructure(catalog("solvable2"), fm(2, 2, {(0, 1): -1}), Form.zero(2, 1))
    ldoc = to_document(ls)
    assert ldoc["kind"] == "lcs" and set(ldoc) == {"kind", "algebra", "omega", "lee"}
    assert parse(serialize(ls)) == ls


def test_rational_rendering():
    assert render_rational(Fraction(1, 2)) == "1/2"
    assert render_rational(Fraction(-4, 2)) == "-2"
    assert render_rational(Fraction(0)) == "0"
    assert parse_rational("-7/3", "x") == Fraction(-7, 3)
    assert parse_rational("5", "x") == Fraction(5)
    for text in (render_rational(Fraction(a, b)) for a in range(-5, 6)
                 for b in range(1, 5)):
        assert render_rational(parse_rational(text, "t")) == text


def test_yb_document_grade_mismatch():
    y = catalog("solvable3_51")
    doc = to_document(y)
    doc["x0"]["grade"] = 2
    doc["x0"]["terms"] = [{"index": ["e1", "e2"], "coeff": "1"}]
    with pytest.raises(DocumentError, match="grade"):
        parse(json.dumps(doc))


# trees of every shape a document or report can hold, against the independent
# route json.dumps(tree, indent=2)
_texts = st.text(st.sampled_from("aZ09 \"\\/\n\t\x00\x1f\x7féü∂€😀") | st.characters())
_scalars = (_texts | st.booleans() | st.none()
            | st.integers(-10 ** 200, 10 ** 200) | st.sampled_from((0, -1, -10 ** 199)))
_trees = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=30)


def _dumped(tree) -> str:
    parts = []
    _dump(tree, parts.append)
    return "".join(parts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees)
@example({})
@example([[]])
@example({"a": [{}, [], ()], "b": ("x", 0, -1, True, False, None)})
def test_writer_matches_indented_json_dumps(tree):
    assert _dumped(tree) == json.dumps(tree, indent=2) + "\n"


def test_writer_leaves_no_garbage():
    # the writer recurses through a module function, not a closure that
    # refers to itself, so its calls leave no reference cycle to collect
    tree = to_document(catalog("thirdkind_u2"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            _dump(tree, lambda text: None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_serialize_matches_indented_json_dumps_on_the_catalog():
    names = [n for n in catalog_names() if "(" not in n]
    for name in names + ["abelian(3)", "heisenberg(1,2)"]:
        entry = catalog(name)
        assert serialize(entry) == json.dumps(to_document(entry), indent=2) + "\n"
