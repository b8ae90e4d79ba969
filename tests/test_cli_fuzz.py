"""The CLI contract under hostile input: generated and mutated documents
through every subcommand.

Whatever the files hold, main returns 0, 1 or 2 and raises nothing, so no
traceback reaches stderr; with --format machine, stdout is one JSON document
whenever the exit code is 0 or 1.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import fm
from liejacobi import cli
from liejacobi.catalog import catalog
from liejacobi.documents import to_document
from liejacobi.exterior import Form, Multivector
from liejacobi.jacobi import ContactStructure, JacobiPair, LcsStructure


def _seed_documents() -> list:
    """One well-formed document of every kind, on small algebras."""
    su2, solvable2 = catalog("su2"), catalog("solvable2")
    yb = catalog("solvable3_51")
    docs = [to_document(catalog(name)) for name in (
        "su2", "solvable2", "u2", "heisenberg(1,1)", "abelian(2)",
        "firstkind4", "secondkind4", "thirdkind_u2", "noncob4_53", "solvable3_51", "h11")]
    docs += [
        to_document(JacobiPair(yb.g, yb.r, yb.x0)),
        to_document(ContactStructure(su2, -Form.basis(3, 0))),
        to_document(LcsStructure(solvable2, fm(2, 2, {(0, 1): -1}), Form.zero(2, 1))),
        to_document(yb.r, labels=yb.g.basis_labels),
        to_document(Multivector.basis(3, 0), labels=su2.basis_labels),
        to_document(-Form.basis(3, 0), labels=su2.dual_labels),
        to_document(fm(2, 2, {(0, 1): Fraction(-1, 2)}), labels=solvable2.dual_labels),
        to_document(Form.basis(4, 3), labels=catalog("u2").dual_labels),
    ]
    return docs


SEEDS = _seed_documents()
NAMES = ["su2", "u2", "solvable2", "sl2r", "h11", "solvable3_51", "semidirect4_53",
         "firstkind4", "secondkind4", "thirdkind_u2", "noncob4_53", "abelian(3)",
         "heisenberg(1,2)", "nope", "abelian(x)", "heisenberg(1,99)"]
LABELS = ["e1", "e2", "e3", "e4", "e5", "e^1", "e^2", "e^3", "e^4", "x"]

rational_text = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=4).map(
        lambda q: str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"),
    st.sampled_from(["1/0", "x", "", "1e5", " 2", "0.5", "+3", "-0", "7" * 101,
                     "1/" + "3" * 101, "9" * 100 + "/" + "7" * 100, "1/" + "7" * 3000]))
scalars = st.one_of(rational_text, st.sampled_from(LABELS), st.integers(-2, 40),
                    st.booleans(), st.none(), st.just([]), st.just({}))


@st.composite
def generated_algebra(draw):
    dim = draw(st.integers(0, 4))
    labels = [f"e{i + 1}" for i in range(dim)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = [{"i": labels[i], "j": labels[j],
                 "value": [{"basis": draw(st.sampled_from(labels)), "coeff": draw(rational_text)}
                           for _ in range(draw(st.integers(0, 2)))]}
                for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
                ] if pairs else []
    return {"kind": "algebra", "name": "fuzz", "dim": dim, "basis": labels, "brackets": brackets}


@st.composite
def generated_element(draw):
    kind = draw(st.sampled_from(["multivector", "form"]))
    grade = draw(st.integers(0, 3))
    labels = ["e1", "e2", "e3", "e4"] if kind == "multivector" else ["e^1", "e^2", "e^3", "e^4"]
    terms = [{"index": draw(st.lists(st.sampled_from(labels), min_size=grade, max_size=grade)),
              "coeff": draw(rational_text)} for _ in range(draw(st.integers(0, 3)))]
    doc = {"kind": kind, "grade": grade, "terms": terms}
    if draw(st.booleans()):
        doc["basis"] = labels[:draw(st.integers(2, 4))]
    return doc


def _paths(tree, prefix=()):
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(tree, list):
        for k, value in enumerate(tree):
            yield from _paths(value, prefix + (k,))


@st.composite
def mutated_seed(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        if draw(st.booleans()):     # top-level fields half of the time
            paths = [p for p in paths if len(p) == 1] or paths
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(scalars)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.append(parent[path[-1]])
    return doc


@st.composite
def document_text(draw):
    doc = draw(st.one_of(mutated_seed(), generated_algebra(), generated_element(),
                         st.sampled_from(SEEDS)))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def docdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_on_hostile_documents(docdir, data):
    sub = data.draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    argv = [sub]
    for flag in cli._SUBCOMMANDS[sub][1]:
        if data.draw(st.booleans()):
            continue
        if flag == "name":
            argv += ["--name", data.draw(st.sampled_from(NAMES))]
        else:
            path = docdir / f"{flag}.json"
            path.write_text(data.draw(document_text()), encoding="utf-8")
            argv += [f"--{flag}", str(path)]
    fmt = data.draw(st.sampled_from(["text", "machine"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", fmt])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if fmt == "machine" and code in (0, 1):
        json.loads(out.getvalue())
