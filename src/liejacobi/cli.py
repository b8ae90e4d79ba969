"""Command line front end over the document schema and the structure checks.

Exit codes are total: 0 when all requested checks pass, 1 when a check
fails (a report is still emitted), 2 for input or usage errors.  With
--format machine the output is the result document plus a "report" object
whose entries are exact serialized residuals, never bare booleans; that of a
check comes from documents._report, the one machine form of a check report.

Handlers return the code of a check that ran and raise otherwise; main maps
UsageError and OSError to exit 2 (only validate reports a malformed document
as a failed check) and ValueError, such as failed hypotheses or a result too
long to print, to the exit-1 report {"passed": false, "error": ...}.  The
argument parser is built once, at import.
"""

import argparse
import sys

from liejacobi.bialgebra import (
    GeneralizedBialgebra,
    YbData,
    _classify_checked,
    build_dual_bracket,
    check_glb,
    check_yb_hypotheses,
    extract_jacobi,
    solve_coboundary,
    unit_center_vector,
)
from liejacobi.catalog import catalog, catalog_names
from liejacobi.documents import (DocumentError, LimitError, _dump, _report, algebras_of,
                                  parse, to_document)
from liejacobi.exterior import Form, Multivector
from liejacobi.jacobi import (
    ContactStructure,
    JacobiPair,
    LcsStructure,
    characteristic_subalgebra,
    check_jacobi,
    contact_to_jacobi,
    jacobi_to_contact,
    jacobi_to_lcs,
    lcs_to_jacobi,
    rank,
)
from liejacobi.liealg import LieAlgebra, is_compact


class UsageError(Exception):
    """Bad flags, unreadable files, malformed documents: exit code 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse_file(path: str, labels=None, dual_labels=None):
    try:
        return parse(_read_file(path), labels=labels, dual_labels=dual_labels)
    except DocumentError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _catalog_entry(name: str):
    try:
        return catalog(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# flag -> (help text, element kind, grade); kind and grade are None for
# flags that do not name an element document
_FLAGS = {
    "algebra": ("algebra document file", None, None),
    "glb": ("generalized bialgebra document file", None, None),
    "name": ("catalog entry name", None, None),
    "r": ("2-vector document file", Multivector, 2),
    "x0": ("vector document file", Multivector, 1),
    "phi0": ("1-form document file", Form, 1),
    "eta": ("contact 1-form document file", Form, 1),
    "omega": ("2-form document file", Form, 2),
    "lee": ("Lee 1-form document file", Form, 1),
}


def _element_file(args, flag: str, g: LieAlgebra):
    """The element document given by --flag, of the kind, the dimension and
    the grade that flag needs; an empty element counts too."""
    _, want, grade = _FLAGS[flag]
    path, what = getattr(args, flag), f"--{flag}"
    obj = _parse_file(path, labels=g.basis_labels, dual_labels=g.dual_labels)
    if not isinstance(obj, want):
        raise UsageError(f"{path}: {what} must be a {want.__name__.lower()} document")
    if obj.dim != g.dim:
        raise UsageError(f"{path}: {what} has dimension {obj.dim}, algebra has {g.dim}")
    if obj.grade != grade:
        raise UsageError(f"{path}: {what} has grade {obj.grade}, {what} needs grade {grade}")
    return obj


def _load_algebra(args) -> tuple[LieAlgebra, object]:
    """Resolve --algebra / --name into (algebra, catalog entry or None) for
    the subcommands on a pair (r, x0), whose 2-vector r needs dimension 2."""
    if getattr(args, "algebra", None):
        g, entry = _parse_file(args.algebra), None
        if not isinstance(g, LieAlgebra):
            raise UsageError(f"{args.algebra}: expected an algebra document, "
                             f"found kind {type(g).__name__.lower()}")
    elif getattr(args, "name", None):
        entry = _catalog_entry(args.name)
        g = algebras_of(entry)[0]      # every catalog entry carries an algebra
    else:
        raise UsageError("provide --algebra FILE or --name NAME")
    if g.dim < 2:
        raise UsageError(f"algebra {g.name!r} has dimension {g.dim}; "
                         "a pair (r, x0) needs dimension at least 2")
    return g, entry


def _load_pair(args) -> tuple[JacobiPair, object]:
    """Resolve the algebra and the pair; returns (pair, catalog entry or None)."""
    g, entry = _load_algebra(args)
    r = x0 = None
    if isinstance(entry, YbData):
        r, x0 = entry.r, entry.x0
    if isinstance(entry, GeneralizedBialgebra):
        raise UsageError(f"catalog entry {args.name!r} is a generalized bialgebra; "
                         "use the glb-* subcommands")
    if getattr(args, "r", None):
        r = _element_file(args, "r", g)
    if getattr(args, "x0", None):
        x0 = _element_file(args, "x0", g)
    if r is None:
        r = Multivector.zero(g.dim, 2)
    if x0 is None:
        x0 = Multivector.zero(g.dim, 1)
    # the catalog's pairs and _element_file's elements fit g, so this cannot raise
    return JacobiPair(g, r, x0), entry


def _load_yb(args) -> YbData:
    jp, entry = _load_pair(args)
    phi0 = entry.phi0 if isinstance(entry, YbData) else None
    if getattr(args, "phi0", None):
        phi0 = _element_file(args, "phi0", jp.algebra)
    if phi0 is None:
        phi0 = Form.zero(jp.algebra.dim, 1)
    return YbData(jp.algebra, phi0, jp.r, jp.x0)      # phi0 fits g, as the pair does


def _load_glb(args) -> GeneralizedBialgebra:
    if getattr(args, "glb", None):
        obj = _parse_file(args.glb)
        if not isinstance(obj, GeneralizedBialgebra):
            raise UsageError(f"{args.glb}: expected a glb document")
        return obj
    if getattr(args, "name", None):
        entry = _catalog_entry(args.name)
        if not isinstance(entry, GeneralizedBialgebra):
            raise UsageError(f"catalog entry {args.name!r} is a "
                             f"{type(entry).__name__}, not a generalized bialgebra")
        return entry
    raise UsageError("provide --glb FILE or --name NAME")


def _emit(args, document: dict | None, report: dict | None, text: str | None) -> None:
    """Print the document with its report (machine) or the text, where None
    stands for the document itself; --out FILE gets the document."""
    if args.format == "machine":
        payload = dict(document) if document is not None else {"kind": "report"}
        payload["report"] = report
        _dump(payload, sys.stdout.write)
    elif text is None:
        _dump(document, sys.stdout.write)
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")
    if getattr(args, "out", None) and document is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            _dump(document, fh.write)


# subcommand handlers; each returns the exit code

def _cmd_validate(args) -> int:
    entry = None
    if getattr(args, "name", None) and not getattr(args, "glb", None):
        entry = _catalog_entry(args.name)
    if entry is not None and (isinstance(entry, GeneralizedBialgebra)
                              or not getattr(args, "algebra", None)):
        obj = entry
    elif getattr(args, "glb", None) or getattr(args, "algebra", None):
        try:
            obj = _load_glb(args) if getattr(args, "glb", None) else _parse_file(args.algebra)
        except UsageError as exc:
            if isinstance(exc.__cause__, LimitError):
                raise   # past the documented limits: an input error, not a verdict
            _emit(args, None, {"passed": False, "error": str(exc)},
                  f"invalid: {exc}")
            return 1
    else:
        raise UsageError("provide --algebra FILE, --glb FILE or --name NAME")
    algebras = algebras_of(obj)
    if not algebras:
        _emit(args, None, {"passed": True}, "document is schema-valid")
        return 0
    reports = [g.validate() for g in algebras]
    passed = all(rep.passed for rep in reports)
    if args.format == "text":     # render only what the format prints and --out writes
        document = to_document(obj) if getattr(args, "out", None) else None
        _emit(args, document, None, "\n".join(rep.describe() for rep in reports))
        return 0 if passed else 1
    violations = [{"algebra": rep.algebra.name, **entry}
                  for rep in reports for entry in _report(rep)["violations"]]
    _emit(args, to_document(obj), {"passed": passed, "violations": violations}, None)
    return 0 if passed else 1


def _check(load, check):
    """The handler of a check subcommand.  check is called through its name
    here, so that a wrapper put on the name (benchmarks/tracer.py) runs."""
    def handler(args) -> int:
        obj = load(args)
        rep = globals()[check.__name__](obj)
        _emit(args, to_document(obj), _report(rep), rep.describe())
        return 0 if rep.passed else 1
    return handler


def _cmd_rank(args) -> int:
    jp, _ = _load_pair(args)
    value = rank(jp)
    _emit(args, to_document(jp), {"rank": value}, f"rank = {value}")
    return 0


def _cmd_char_sub(args) -> int:
    jp, _ = _load_pair(args)
    cs = characteristic_subalgebra(jp)
    inclusion = [[str(c) for c in row] for row in cs.inclusion.rows]
    report = {"passed": True, "tag": cs.tag, "dim": cs.algebra.dim,
              "inclusion": inclusion}
    text = (f"characteristic subalgebra: dimension {cs.algebra.dim}, "
            f"induced structure {cs.tag}")
    _emit(args, to_document(cs.pair), report, text)
    return 0


def _cmd_contact(args) -> int:
    if getattr(args, "eta", None):
        g, _ = _load_algebra(args)
        eta = _element_file(args, "eta", g)
        jp = contact_to_jacobi(ContactStructure(g, eta))
        labels = list(g.basis_labels)
        report = {"passed": True,
                  "reeb": to_document(jp.x0, labels=labels),
                  "r": to_document(jp.r, labels=labels)}
        text = (f"contact form accepted; Reeb vector {jp.x0.render(labels)}, "
                f"r = {jp.r.render(labels)}")
        _emit(args, to_document(jp), report, text)
        return 0
    jp, _ = _load_pair(args)
    structure = jacobi_to_contact(jp)
    duals = list(jp.algebra.dual_labels)
    report = {"passed": True, "eta": to_document(structure.eta, labels=duals)}
    _emit(args, to_document(structure), report,
          f"contact form eta = {structure.eta.render(duals)}")
    return 0


def _cmd_lcs(args) -> int:
    if getattr(args, "omega", None):
        g, _ = _load_algebra(args)
        omega2 = _element_file(args, "omega", g)
        lee = (_element_file(args, "lee", g)
               if getattr(args, "lee", None) else Form.zero(g.dim, 1))
        jp = lcs_to_jacobi(LcsStructure(g, omega2, lee))
        labels = list(g.basis_labels)
        report = {"passed": True,
                  "r": to_document(jp.r, labels=labels),
                  "x0": to_document(jp.x0, labels=labels)}
        text = (f"l.c.s. structure accepted; r = {jp.r.render(labels)}, "
                f"x0 = {jp.x0.render(labels)}")
        _emit(args, to_document(jp), report, text)
        return 0
    jp, _ = _load_pair(args)
    structure = jacobi_to_lcs(jp)
    duals = list(jp.algebra.dual_labels)
    report = {"passed": True,
              "omega": to_document(structure.omega2, labels=duals),
              "lee": to_document(structure.lee, labels=duals)}
    text = (f"l.c.s. structure: omega = {structure.omega2.render(duals)}, "
            f"lee = {structure.lee.render(duals)}")
    _emit(args, to_document(structure), report, text)
    return 0



def _cmd_yb_build(args) -> int:
    y = _load_yb(args)
    dual = build_dual_bracket(y)
    duals = list(dual.basis_labels)
    brackets = []
    for (i, j), value in sorted(dual.structure.items()):
        brackets.append(f"[{duals[i]},{duals[j]}]* = {value.render(duals)}")
    text = f"dual algebra {dual.name}:\n  " + "\n  ".join(brackets) \
        if brackets else f"dual algebra {dual.name}: abelian"
    _emit(args, to_document(dual), {"passed": True, "dual": dual.name}, text)
    return 0



def _cmd_glb_extract(args) -> int:
    b = _load_glb(args)
    y0 = unit_center_vector(b.g, b.phi0)
    if y0 is None:
        raise UsageError("no central y0 with phi0(y0) = 1 exists; "
                         "extraction is undefined for this bialgebra")
    result = extract_jacobi(b, y0)
    labels = list(b.g.basis_labels)
    report = {"passed": True,
              "y0": to_document(y0, labels=labels),
              "r": to_document(result.pair.r, labels=labels),
              "x0": to_document(result.pair.x0, labels=labels),
              "characteristic_tag": result.characteristic.tag}
    text = (f"extracted jacobi pair from y0 = {y0.render(labels)}:\n"
            f"  r = {result.pair.r.render(labels)}\n"
            f"  x0 = {result.pair.x0.render(labels)}\n"
            f"  characteristic structure: {result.characteristic.tag}")
    _emit(args, to_document(result.pair), report, text)
    return 0


def _certificate_report(result) -> dict:
    cert = result.certificate
    out = {"kind": result.kind}
    if result.kind == "second":
        out.update(lam=str(cert.lam), lam1=str(cert.lam1), lam2=str(cert.lam2))
    if result.kind == "third":
        out["lambdas"] = [str(c) for c in cert.lambdas]
    if result.kind == "phi0-zero-semidirect":
        out["psi"] = [[str(c) for c in row] for row in cert.psi.rows]
    return out


def _cmd_glb_classify(args) -> int:
    b = _load_glb(args)
    splits, definite, _ = b.g._compactness     # is_compact only describes a failure
    if not (splits and definite):
        raise UsageError("classification needs a compact base algebra:\n"
                         + is_compact(b.g).describe())
    rep = check_glb(b)
    if not rep.passed:
        _emit(args, to_document(b), _report(rep), rep.describe())
        return 1
    result = _classify_checked(b)
    report = {"passed": True, **_certificate_report(result)}
    if result.y0 is not None:
        report["y0"] = to_document(result.y0, labels=list(b.g.basis_labels))
    _emit(args, to_document(b), report, f"classification: {result.kind}")
    return 0


def _cmd_coboundary_solve(args) -> int:
    b = _load_glb(args)
    solutions = solve_coboundary(b)
    labels = list(b.g.basis_labels)
    report = {"empty": solutions.is_empty,
              "particular": (None if solutions.particular is None
                             else to_document(solutions.particular, labels=labels)),
              "homogeneous": [to_document(h, labels=labels) for h in solutions.homogeneous]}
    if solutions.is_empty:
        text = "no solution: the dual bracket is not a twisted coboundary"
    else:
        text = (f"particular solution r = {solutions.particular.render(labels)}; "
                f"homogeneous solution space has dimension {len(solutions.homogeneous)}")
    _emit(args, to_document(b), report, text)
    return 0


def _cmd_catalog(args) -> int:
    if not getattr(args, "name", None):
        names = catalog_names()
        if args.format == "machine":
            _dump({"kind": "catalog", "names": names}, sys.stdout.write)
        else:
            sys.stdout.write("\n".join(names) + "\n")
        return 0
    _emit(args, to_document(_catalog_entry(args.name)), {"name": args.name}, None)
    return 0


# subcommand -> (handler, flags); --help and the golden CLI battery follow
# this order
_SUBCOMMANDS = {
    "validate": (_cmd_validate, ("algebra", "glb", "name")),
    "jacobi-check": (_check(lambda args: _load_pair(args)[0], check_jacobi),
                     ("algebra", "name", "r", "x0")),
    "rank": (_cmd_rank, ("algebra", "name", "r", "x0")),
    "char-sub": (_cmd_char_sub, ("algebra", "name", "r", "x0")),
    "contact": (_cmd_contact, ("algebra", "name", "r", "x0", "eta")),
    "lcs": (_cmd_lcs, ("algebra", "name", "r", "x0", "omega", "lee")),
    "yb-check": (_check(_load_yb, check_yb_hypotheses), ("algebra", "name", "r", "x0", "phi0")),
    "yb-build": (_cmd_yb_build, ("algebra", "name", "r", "x0", "phi0")),
    "glb-check": (_check(_load_glb, check_glb), ("glb", "name")),
    "glb-extract": (_cmd_glb_extract, ("glb", "name")),
    "glb-classify": (_cmd_glb_classify, ("glb", "name")),
    "coboundary-solve": (_cmd_coboundary_solve, ("glb", "name")),
    "catalog": (_cmd_catalog, ("name",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liejacobi",
        description="exact checks for jacobi structures and generalized "
                    "Lie bialgebras over rational structure constants")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", help=_FLAGS[flag][0])
        p.add_argument("--out", help="write the result document to this file")
        p.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _SUBCOMMANDS[args.subcommand][0](args)
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        _emit(args, None, {"passed": False, "error": str(exc)}, str(exc))
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
