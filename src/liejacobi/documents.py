"""Text documents for algebras, elements, and structure bundles.

The format is JSON with a fixed schema per "kind".  Rationals travel as
strings "p" or "p/q" so that files stay exact and diffable; serialization is
canonical (fixed key order, basis-order brackets, increasing indices), which
makes serialize(parse(text)) a byte-level fixed point on well-formed files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from liejacobi.bialgebra import GeneralizedBialgebra, YbData
from liejacobi.exterior import Form, Multivector
from liejacobi.jacobi import ContactStructure, JacobiPair, LcsStructure
from liejacobi.liealg import MAX_DIGITS, MAX_DIM, LieAlgebra


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


def _parse_element(obj: dict, path: str, kind: str, labels: _Labels | None) -> Form | Multivector:
    """Element document; `labels` supplies context when "basis" is absent."""
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
    cls = Form if kind == "form" else Multivector
    try:
        return cls.from_terms(dim, grade, raw)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _render_element(e, labels, standalone: bool = False) -> dict:
    kind = "form" if isinstance(e, Form) else "multivector"
    if labels is None:
        raise TypeError("element documents need basis labels")
    names = list(labels)
    terms = []
    for idx in sorted(e.terms):
        terms.append({"index": [names[i] for i in idx],
                      "coeff": render_rational(e.terms[idx])})
    out = {"kind": kind, "grade": e.grade}
    if standalone:
        out["basis"] = names
    out["terms"] = terms
    return out


def _parse_jacobi(obj: dict, path: str) -> JacobiPair:
    _expect_object(obj, path, {"kind": True, "algebra": True, "r": True, "x0": True})
    g = _parse_algebra(obj["algebra"], "algebra")
    labels = _Labels(list(g.basis_labels), "")
    r = _parse_element(obj["r"], "r", "multivector", labels)
    x0 = _parse_element(obj["x0"], "x0", "multivector", labels)
    try:
        return JacobiPair(g, r, x0)
    except (TypeError, ValueError) as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_yb(obj: dict, path: str) -> YbData:
    _expect_object(obj, path, {"kind": True, "algebra": True, "r": True,
                               "x0": True, "phi0": True})
    g = _parse_algebra(obj["algebra"], "algebra")
    labels = _Labels(list(g.basis_labels), "")
    duals = _Labels(list(g.dual_labels), "")
    r = _parse_element(obj["r"], "r", "multivector", labels)
    x0 = _parse_element(obj["x0"], "x0", "multivector", labels)
    phi0 = _parse_element(obj["phi0"], "phi0", "form", duals)
    try:
        return YbData(g, phi0, r, x0)
    except (TypeError, ValueError) as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_glb(obj: dict, path: str) -> GeneralizedBialgebra:
    _expect_object(obj, path, {"kind": True, "name": False, "g": True,
                               "g_star": True, "phi0": True, "x0": True})
    g = _parse_algebra(obj["g"], "g")
    g_star = _parse_algebra(obj["g_star"], "g_star")
    duals = _Labels(list(g_star.basis_labels), "")
    labels = _Labels(list(g.basis_labels), "")
    phi0 = Form.from_coeffs(_parse_value_list(obj["phi0"], duals, "phi0")[0])
    x0 = Multivector.from_coeffs(_parse_value_list(obj["x0"], labels, "x0")[0])
    try:
        return GeneralizedBialgebra(g, g_star, phi0, x0)
    except (TypeError, ValueError) as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_contact(obj: dict, path: str) -> ContactStructure:
    _expect_object(obj, path, {"kind": True, "algebra": True, "eta": True})
    g = _parse_algebra(obj["algebra"], "algebra")
    duals = _Labels(list(g.dual_labels), "")
    eta = _parse_element(obj["eta"], "eta", "form", duals)
    try:
        return ContactStructure(g, eta)
    except (TypeError, ValueError) as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_lcs(obj: dict, path: str) -> LcsStructure:
    _expect_object(obj, path, {"kind": True, "algebra": True, "omega": True, "lee": True})
    g = _parse_algebra(obj["algebra"], "algebra")
    duals = _Labels(list(g.dual_labels), "")
    omega = _parse_element(obj["omega"], "omega", "form", duals)
    lee = _parse_element(obj["lee"], "lee", "form", duals)
    try:
        return LcsStructure(g, omega, lee)
    except (TypeError, ValueError) as exc:
        raise DocumentError(path, str(exc)) from None


def _render_jacobi(jp: JacobiPair) -> dict:
    labels = jp.algebra.basis_labels
    return {"kind": "jacobi", "algebra": _render_algebra(jp.algebra),
            "r": _render_element(jp.r, labels), "x0": _render_element(jp.x0, labels)}


def _render_yb(y: YbData) -> dict:
    labels = y.g.basis_labels
    return {"kind": "yb", "algebra": _render_algebra(y.g),
            "r": _render_element(y.r, labels), "x0": _render_element(y.x0, labels),
            "phi0": _render_element(y.phi0, y.g.dual_labels)}


def _render_glb(b: GeneralizedBialgebra) -> dict:
    return {"kind": "glb", "name": b.g.name,
            "g": _render_algebra(b.g), "g_star": _render_algebra(b.g_star),
            "phi0": _render_value_list(b.phi0.coeffs(), b.g_star.basis_labels),
            "x0": _render_value_list(b.x0.coeffs(), b.g.basis_labels)}


def _render_contact(cs: ContactStructure) -> dict:
    return {"kind": "contact", "algebra": _render_algebra(cs.algebra),
            "eta": _render_element(cs.eta, cs.algebra.dual_labels)}


def _render_lcs(ls: LcsStructure) -> dict:
    duals = ls.algebra.dual_labels
    return {"kind": "lcs", "algebra": _render_algebra(ls.algebra),
            "omega": _render_element(ls.omega2, duals),
            "lee": _render_element(ls.lee, duals)}


_PARSERS = {
    "algebra": _parse_algebra,
    "jacobi": _parse_jacobi,
    "yb": _parse_yb,
    "glb": _parse_glb,
    "contact": _parse_contact,
    "lcs": _parse_lcs,
}


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
        return _parse_element(obj, "", "multivector", context)
    if kind == "form":
        context = _Labels(list(dual_labels), "") if dual_labels is not None else None
        return _parse_element(obj, "", "form", context)
    if isinstance(kind, str) and kind in _PARSERS:
        return _PARSERS[kind](obj, "")
    raise DocumentError("kind", f"unknown document kind {kind!r}")


def to_document(obj, labels=None) -> dict:
    """The JSON-ready dict for a domain object; `labels` names element indices."""
    if isinstance(obj, LieAlgebra):
        return _render_algebra(obj)
    if isinstance(obj, JacobiPair):
        return _render_jacobi(obj)
    if isinstance(obj, YbData):
        return _render_yb(obj)
    if isinstance(obj, GeneralizedBialgebra):
        return _render_glb(obj)
    if isinstance(obj, ContactStructure):
        return _render_contact(obj)
    if isinstance(obj, LcsStructure):
        return _render_lcs(obj)
    if isinstance(obj, (Form, Multivector)):
        return _render_element(obj, labels, standalone=True)
    raise TypeError(f"no document form for {type(obj).__name__}")


def serialize(obj, labels=None) -> str:
    return json.dumps(to_document(obj, labels), indent=2) + "\n"
