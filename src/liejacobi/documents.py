"""Text documents for algebras, elements, and structure bundles.

The format is JSON with a fixed schema per "kind".  Rationals travel as
strings "p" or "p/q" so that files stay exact and diffable; serialization is
canonical (fixed key order, basis-order brackets, increasing indices), which
makes serialize(parse(text)) a byte-level fixed point on well-formed files.

_dump is the one JSON output path, for serialize and for every document and
report the CLI prints or writes.  On a tree of dicts with str keys, lists,
tuples, str, int, bool and None it writes, byte for byte, what json.dumps
returns with indent=2, plus "\n"; it does so without the pure-Python encoder
json.dumps falls back to under an indent, and it hands the text out in
bounded pieces, so a large report is never held whole.  _report is the one
machine form of a check report, which _dump writes for --format machine.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from math import lcm

from liejacobi.bialgebra import GeneralizedBialgebra, GlbReport, YbData, YbReport
from liejacobi.exterior import Form, Multivector
from liejacobi.jacobi import ContactStructure, JacobiPair, JacobiReport, LcsStructure
from liejacobi.liealg import MAX_DIGITS, MAX_DIM, LieAlgebra, ValidationReport


class DocumentError(ValueError):
    """Schema violation, annotated with the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class LimitError(DocumentError):
    """A document past MAX_DIM or MAX_DIGITS, refused before any check runs."""


_RATIONAL = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")


def parse_rational(text, path: str) -> Fraction:
    """A rational written "p" or "p/q" with at most MAX_DIGITS digits each,
    counted before conversion; Fraction's exponent form ("1e999999999")
    could denote an integer of any size."""
    if not isinstance(text, str):
        raise DocumentError(path, "rationals must be strings like \"3\" or \"-1/2\"")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise DocumentError(path, f"not a rational: {text!r}")
    if any(len(digits) > MAX_DIGITS for digits in match.groups("")):
        raise LimitError(path, f"rational has more than MAX_DIGITS = {MAX_DIGITS} digits "
                                  "in its numerator or denominator")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DocumentError(path, f"not a rational: {text!r}") from None


def _fold_denominator(den: int, q: Fraction, path: str) -> int:
    """lcm(den, q.denominator), folded over one algebra or element; it bounds
    sums of repeated entries too."""
    den = lcm(den, q.denominator)
    if den >= 10 ** MAX_DIGITS:
        raise LimitError(path, f"common denominator has more than MAX_DIGITS = "
                                  f"{MAX_DIGITS} digits")
    return den


def render_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _expect_object(value, path: str, fields: dict) -> dict:
    """Check a JSON object against {field: required} and reject strangers."""
    if not isinstance(value, dict):
        raise DocumentError(path, "expected an object")
    for key in value:
        if key not in fields:
            raise DocumentError(f"{path}.{key}" if path else key, "unknown field")
    for key, required in fields.items():
        if required and key not in value:
            raise DocumentError(path, f"missing field {key!r}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(path, "expected a list")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(path, "expected a string")
    return value


class _Labels:
    """Label lookup for one side (primal or dual) of an algebra basis."""

    def __init__(self, labels, path: str):
        labels = _expect_list(labels, path)
        seen = {}
        for k, label in enumerate(labels):
            name = _expect_str(label, f"{path}[{k}]")
            if name in seen:
                raise DocumentError(f"{path}[{k}]", f"repeated label {name!r}")
            seen[name] = k
        self.names = [str(l) for l in labels]
        self.index = seen

    def resolve(self, label, path: str) -> int:
        name = _expect_str(label, path)
        if name not in self.index:
            raise DocumentError(path, f"unknown basis label {name!r}")
        return self.index[name]


def _parse_value_list(value, labels: _Labels, path: str,
                      den: int = 1) -> tuple[list[Fraction], int]:
    """Coefficient list from [{"basis": label, "coeff": rational}] entries,
    and the common denominator den folded over them."""
    coeffs = [Fraction(0)] * len(labels.names)
    for k, entry in enumerate(_expect_list(value, path)):
        here = f"{path}[{k}]"
        obj = _expect_object(entry, here, {"basis": True, "coeff": True})
        i = labels.resolve(obj["basis"], f"{here}.basis")
        coeff = parse_rational(obj["coeff"], f"{here}.coeff")
        den = _fold_denominator(den, coeff, f"{here}.coeff")
        coeffs[i] += coeff
    return coeffs, den


def _render_value_list(coeffs, labels) -> list[dict]:
    return [{"basis": labels[i], "coeff": render_rational(c)}
            for i, c in enumerate(coeffs) if c != 0]


def _parse_algebra(obj: dict, path: str) -> LieAlgebra:
    _expect_object(obj, path, {"kind": True, "name": True, "dim": True,
                               "basis": True, "brackets": True})
    name = _expect_str(obj["name"], f"{path}.name")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{path}.dim", "expected a nonnegative integer")
    if dim > MAX_DIM:
        raise LimitError(f"{path}.dim", f"dimension {dim} exceeds the limit MAX_DIM = {MAX_DIM}")
    labels = _Labels(obj["basis"], f"{path}.basis")
    if len(labels.names) != dim:
        raise DocumentError(f"{path}.basis", f"{len(labels.names)} labels for dim {dim}")
    structure = {}
    den = 1
    for k, entry in enumerate(_expect_list(obj["brackets"], f"{path}.brackets")):
        here = f"{path}.brackets[{k}]"
        bracket = _expect_object(entry, here, {"i": True, "j": True, "value": True})
        i = labels.resolve(bracket["i"], f"{here}.i")
        j = labels.resolve(bracket["j"], f"{here}.j")
        if i == j:
            raise DocumentError(here, f"repeated index {bracket['i']!r}")
        if i > j:
            raise DocumentError(here, "i must precede j in basis order")
        if (i, j) in structure:
            raise DocumentError(here, "duplicate bracket entry")
        coeffs, den = _parse_value_list(bracket["value"], labels, f"{here}.value", den)
        value = Multivector.from_coeffs(coeffs)
        if not value.is_zero():
            structure[(i, j)] = value
    try:
        return LieAlgebra(name, dim, tuple(labels.names), structure)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _render_algebra(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.structure):
        brackets.append({"i": g.basis_labels[i], "j": g.basis_labels[j],
                         "value": _render_value_list(g.structure[(i, j)].coeffs(),
                                                     g.basis_labels)})
    return {"kind": "algebra", "name": g.name, "dim": g.dim,
            "basis": list(g.basis_labels), "brackets": brackets}


def _parse_element(obj: dict, path: str, cls: type, labels: _Labels | None) -> Form | Multivector:
    """Element document of class cls; `labels` supplies context when "basis" is absent."""
    kind = cls.__name__.lower()
    _expect_object(obj, path, {"kind": True, "grade": True, "basis": False, "terms": True})
    declared = _expect_str(obj["kind"], f"{path}.kind")
    if declared != kind:
        raise DocumentError(f"{path}.kind", f"expected {kind!r}, found {declared!r}")
    grade = obj["grade"]
    if not isinstance(grade, int) or isinstance(grade, bool) or grade < 0:
        raise DocumentError(f"{path}.grade", "expected a nonnegative integer")
    if "basis" in obj:
        labels = _Labels(obj["basis"], f"{path}.basis")
    if labels is None:
        raise DocumentError(path, "element document needs a \"basis\" field here")
    dim = len(labels.names)
    raw: dict[tuple[int, ...], Fraction] = {}
    den = 1
    for k, entry in enumerate(_expect_list(obj["terms"], f"{path}.terms")):
        here = f"{path}.terms[{k}]"
        term = _expect_object(entry, here, {"index": True, "coeff": True})
        index_labels = _expect_list(term["index"], f"{here}.index")
        if len(index_labels) != grade:
            raise DocumentError(f"{here}.index", f"{len(index_labels)} entries for grade {grade}")
        idx = tuple(labels.resolve(l, f"{here}.index[{p}]")
                    for p, l in enumerate(index_labels))
        if len(set(idx)) != len(idx):
            raise DocumentError(f"{here}.index", "repeated index")
        coeff = parse_rational(term["coeff"], f"{here}.coeff")
        den = _fold_denominator(den, coeff, f"{here}.coeff")
        raw[idx] = raw.get(idx, Fraction(0)) + coeff
    try:
        return cls.from_terms(dim, grade, raw)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _render_element(e, labels, standalone: bool = False) -> dict:
    if labels is None:
        raise TypeError("element documents need basis labels")
    names = list(labels)
    terms = []
    for idx in sorted(e.terms):
        terms.append({"index": [names[i] for i in idx],
                      "coeff": render_rational(e.terms[idx])})
    out = {"kind": type(e).__name__.lower(), "grade": e.grade}
    if standalone:
        out["basis"] = names
    out["terms"] = terms
    return out


# Field shapes: a nested algebra; the glb's optional "name", written as the
# name of the algebra under the attribute and refused on parse unless equal to
# it; or an element (class, position of the algebra in the bundle, its labels
# attribute, bare), read from an element document, or from a bare value list
# when bare is True.
_ALGEBRA = "algebra"
_NAME = "name"
_VECTORS = (Multivector, 0, "basis_labels", False)
_FORMS = (Form, 0, "dual_labels", False)

# bundle kind -> (class, fields as (document key, attribute, shape) in document order)
_KINDS = {
    "jacobi": (JacobiPair, (("algebra", "algebra", _ALGEBRA), ("r", "r", _VECTORS),
                            ("x0", "x0", _VECTORS))),
    "yb": (YbData, (("algebra", "g", _ALGEBRA), ("r", "r", _VECTORS),
                    ("x0", "x0", _VECTORS), ("phi0", "phi0", _FORMS))),
    "glb": (GeneralizedBialgebra, (("name", "g", _NAME), ("g", "g", _ALGEBRA),
                                   ("g_star", "g_star", _ALGEBRA),
                                   ("phi0", "phi0", (Form, 1, "basis_labels", True)),
                                   ("x0", "x0", (Multivector, 0, "basis_labels", True)))),
    "contact": (ContactStructure, (("algebra", "algebra", _ALGEBRA), ("eta", "eta", _FORMS))),
    "lcs": (LcsStructure, (("algebra", "algebra", _ALGEBRA), ("omega", "omega2", _FORMS),
                           ("lee", "lee", _FORMS))),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}


def _parse_bundle(obj: dict, kind: str):
    cls, fields = _KINDS[kind]
    _expect_object(obj, "", {"kind": True, **{key: shape is not _NAME
                                              for key, _, shape in fields}})
    values, algebras, lookups = {}, [], {}
    for key, attr, shape in fields:
        if shape is _ALGEBRA:
            values[attr] = _parse_algebra(obj[key], key)
            algebras.append(values[attr])
        elif shape is not _NAME:
            element, pos, side, bare = shape
            if (pos, side) not in lookups:
                lookups[pos, side] = _Labels(list(getattr(algebras[pos], side)), "")
            labels = lookups[pos, side]
            values[attr] = (element.from_coeffs(_parse_value_list(obj[key], labels, key)[0])
                            if bare else _parse_element(obj[key], key, element, labels))
    for key, attr, shape in fields:
        if shape is _NAME and key in obj:
            name, expected = _expect_str(obj[key], key), values[attr].name
            if name != expected:
                raise DocumentError(key, f"{name!r} is not the name {expected!r} of {attr}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise DocumentError("", str(exc)) from None


def _render_bundle(obj, kind: str) -> dict:
    out = {"kind": kind}
    algebras = []
    for key, attr, shape in _KINDS[kind][1]:
        value = getattr(obj, attr)
        if shape is _NAME:
            out[key] = value.name
        elif shape is _ALGEBRA:
            out[key] = _render_algebra(value)
            algebras.append(value)
        else:
            _, pos, side, bare = shape
            labels = getattr(algebras[pos], side)
            out[key] = (_render_value_list(value.coeffs(), labels) if bare
                        else _render_element(value, labels))
    return out


def algebras_of(obj) -> tuple:
    """The algebras a document object carries, in document order; () for elements."""
    if isinstance(obj, LieAlgebra):
        return (obj,)
    kind = _KIND_OF.get(type(obj))
    if kind is None:
        return ()
    return tuple(getattr(obj, attr) for _, attr, shape in _KINDS[kind][1] if shape is _ALGEBRA)


def parse(text: str, labels=None, dual_labels=None):
    """Parse a document into its domain object.

    Standalone multivector and form documents resolve their index labels
    against `labels` / `dual_labels` when they carry no "basis" field of
    their own; the bundle kinds are self-contained.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:     # huge int literal, deep nesting
        raise DocumentError("", f"unreadable JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("", "expected a top-level object")
    kind = obj.get("kind")
    if kind == "multivector":
        context = _Labels(list(labels), "") if labels is not None else None
        return _parse_element(obj, "", Multivector, context)
    if kind == "form":
        context = _Labels(list(dual_labels), "") if dual_labels is not None else None
        return _parse_element(obj, "", Form, context)
    if kind == "algebra":
        return _parse_algebra(obj, "")
    if isinstance(kind, str) and kind in _KINDS:
        return _parse_bundle(obj, kind)
    raise DocumentError("kind", f"unknown document kind {kind!r}")


def to_document(obj, labels=None) -> dict:
    """The JSON-ready dict for a domain object; `labels` names element indices."""
    if isinstance(obj, LieAlgebra):
        return _render_algebra(obj)
    if type(obj) in _KIND_OF:
        return _render_bundle(obj, _KIND_OF[type(obj)])
    if isinstance(obj, (Form, Multivector)):
        return _render_element(obj, labels, standalone=True)
    raise TypeError(f"no document form for {type(obj).__name__}")


# check report class -> (checked object, (machine key, attribute) in output order)
_REPORTS = {
    ValidationReport: ("algebra", (("violations", "violations"),)),
    JacobiReport: ("pair", (("self_residual", "self_residual"),
                            ("vector_residual", "vector_residual"))),
    YbReport: ("data", (("cubic", "cubic"), ("cubic_invariance", "cubic_invariance"),
                        ("x0_commutes", "x0_commutes"), ("vector", "vector"),
                        ("vector_invariance", "vector_invariance"))),
    GlbReport: ("bialgebra", (("primal_jacobi", "primal"), ("dual_jacobi", "dual"),
                              ("phi0_cocycle", "phi0_cocycle"), ("x0_cocycle", "x0_cocycle"),
                              ("pairing", "pairing"), ("bracket_compat", "bracket_compat"),
                              ("contraction_compat", "contraction_compat"))),
}


def _report(rep) -> dict:
    """The machine form of a check report: "passed", then the fields _REPORTS
    names.  A nested report becomes its verdict, a Fraction its string, an
    element its document on the labels of the checked object's first algebra
    (its last, g* of a glb, for a Form) and an entry its index and "residual"."""
    subject, fields = _REPORTS[type(rep)]
    algebras = algebras_of(getattr(rep, subject))
    labels = algebras[0].basis_labels
    out = {"passed": rep.passed}
    for key, attr in fields:
        value = getattr(rep, attr)
        if isinstance(value, ValidationReport):
            value = value.passed
        elif isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, (Form, Multivector)):
            side = algebras[-1] if isinstance(value, Form) else algebras[0]
            value = to_document(value, labels=side.basis_labels)
        else:
            value = [{**_entry_index(index, labels), "residual": to_document(res, labels=labels)}
                     for index, res in value]
        out[key] = value
    return out


def _entry_index(index, labels) -> dict:
    if isinstance(index, int):
        return {"basis": labels[index]}
    if len(index) == 2:
        return {"i": labels[index[0]], "j": labels[index[1]]}
    return {"triple": [labels[k] for k in index]}


def serialize(obj, labels=None) -> str:
    parts = []
    _dump(to_document(obj, labels), parts.append)
    return "".join(parts)


_PIECE = 4096   # list entries _dump gathers before it hands them to write


def _dump(tree, write) -> None:
    """Write json.dumps's indent=2 text of tree and "\n" through write(str).

    Strings are escaped by json's C encode_basestring_ascii and any other
    scalar is json.dumps(scalar); dict keys must be str.  The text is
    gathered in one list of separator-prefixed pieces, which is joined and
    written whenever it holds more than _PIECE entries at the start of a
    container item, and once at the end.
    """
    out = []
    append = out.append
    piece = _PIECE

    def flush():
        write("".join(out))
        out.clear()

    def put(prefix, o, nl):
        if isinstance(o, dict):
            if not o:
                append(prefix + "{}")
                return
            inner = nl + "  "
            comma, sep = "," + inner, prefix + "{" + inner
            for k, v in o.items():
                if len(out) > piece:
                    flush()
                if type(v) is str:
                    append(f"{sep}{_escape(k)}: {_escape(v)}")
                else:
                    put(f"{sep}{_escape(k)}: ", v, inner)
                sep = comma
            append(nl + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append(prefix + "[]")
                return
            inner = nl + "  "
            comma, sep = "," + inner, prefix + "[" + inner
            for v in o:
                if len(out) > piece:
                    flush()
                if type(v) is str:
                    append(sep + _escape(v))
                else:
                    put(sep, v, inner)
                sep = comma
            append(nl + "]")
        else:
            append(prefix + (_escape(o) if isinstance(o, str) else json.dumps(o)))

    put("", tree, "\n")
    append("\n")
    flush()
