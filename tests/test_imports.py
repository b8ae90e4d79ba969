"""Every name a library module, test module or script imports is used in
that module, every private module-level function or class is used
somewhere in the library, only the modules that exterior names touch the
integer form of elements and tables, the pointwise dual-bracket route reads
neither that form nor the contraction matrix of r, the coboundary system,
the elimination kernel and the Jacobi sums build no Fraction, the Jacobi
sums make no public call, the Jacobi residuals and the contact and l.c.s.
maps stay on the integer forms, bialgebra builds no l.c.s. or contact structure,
the element inputs of the library's constructors go through one argument
check, and every liejacobi name the benchmark uses exists and is callable.

The package's __init__.py is left out of the import check: it imports names
to re-export them.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "liejacobi").glob("*.py"))
SOURCES = ([p for p in PACKAGE if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_sees_the_modules():
    assert {p.name for p in SOURCES} >= {"liealg.py", "bialgebra.py", "cli.py", "helpers.py",
                                         "test_imports.py", "contact_sweep.py"}


def test_unused_import_is_reported():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["b", "os"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.name if p in PACKAGE else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private(sources: list[str]) -> list[str]:
    """Private module-level functions and classes that no source refers to,
    by name or as an attribute."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_unreferenced_private_is_reported():
    assert unreferenced_private(["def _a(): pass\nclass _B: pass\ndef _c(): _a()\n",
                                 "x = m._c\n"]) == ["_B"]


def test_no_unreferenced_private_helpers():
    assert unreferenced_private([p.read_text() for p in PACKAGE]) == []


# The integer form: element numerators (_ints, _from_ints), the integer
# structure-constant table (_ad) and its column view (_columns).  exterior's
# docstring lists the modules that may read and build it.
INTEGER_FORM = {"_ints", "_from_ints", "_ad", "_columns"}
INTEGER_FORM_MODULES = {"exterior.py", "liealg.py", "schouten.py", "bialgebra.py",
                        "jacobi.py"}


def integer_form_uses(source: str) -> list[str]:
    """Integer-form names a source touches, as names or attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in INTEGER_FORM:
            names.add(name)
    return sorted(names)


def test_integer_form_use_is_reported():
    assert integer_form_uses("den = g._ad[0]\nnums, d = e._ints()\n_columns = 1\n") == [
        "_ad", "_columns", "_ints"]
    assert integer_form_uses("e.terms\n") == []


def test_integer_form_stays_in_its_modules():
    users = {p.name for p in PACKAGE if integer_form_uses(p.read_text())}
    assert users == INTEGER_FORM_MODULES


def function_references(source: str, name: str) -> set[str]:
    """Names and attributes the module-level function `name`, or the method
    `Class.method`, refers to."""
    body = ast.parse(source).body
    *owner, name = name.split(".")
    if owner:
        body = next(node for node in body
                    if isinstance(node, ast.ClassDef) and node.name == owner[0]).body
    node = next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)
    return {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if isinstance(n, (ast.Attribute, ast.Name))}


def test_function_references_are_reported():
    assert function_references("def f(g):\n    return h(g._ad)\ndef h(): pass\n", "f") == {
        "g", "h", "_ad"}
    assert function_references("class C:\n    def f(self):\n        return Fraction(1)\n",
                               "C.f") == {"Fraction"}


def test_pointwise_dual_route_stays_off_the_integer_tables():
    # the pointwise route cross-checks the integer kernel of the adjoint
    # route, so it goes through schouten and never reads a table itself, nor
    # the contraction matrix of r that the adjoint route reads
    names = function_references((ROOT / "src" / "liejacobi" / "bialgebra.py").read_text(),
                                "dual_bracket_pointwise_route")
    assert "schouten" in names
    assert names.isdisjoint(INTEGER_FORM | {"_contraction"})


def test_jacobi_sums_read_the_table_only():
    # the packed Jacobi sums are summed in int from the table, so they build
    # no Fraction and make no public call that a trace would count
    source = (ROOT / "src" / "liejacobi" / "liealg.py").read_text()
    algebra = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.ClassDef) and node.name == "LieAlgebra")
    public = {node.name for node in algebra.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public >= {"bracket", "bracket_basis", "basis_vector", "validate"}
    names = function_references(source, "LieAlgebra._jacobiator")
    assert "_ad" in names
    assert names.isdisjoint(public | {"Fraction"})


def test_jacobi_kernels_read_the_integer_forms_only():
    # check_jacobi sums its residuals from the table, and the contact and
    # l.c.s. maps invert integer rows; none of them goes back through the
    # general schouten or a Fraction matrix
    source = (ROOT / "src" / "liejacobi" / "jacobi.py").read_text()
    banned = {"Fraction", "schouten", "invert", "mat_vec", "from_columns", "solve"}
    check = function_references(source, "check_jacobi")
    assert "_jacobi_residuals" in check and "schouten" not in check
    assert {"_ad", "_ints"} <= function_references(source, "_jacobi_residuals")
    for fn in ("contact_to_jacobi", "_inverse_tensor"):
        assert {"_inverse", "_ints"} <= function_references(source, fn)
    assert "solve_rows" in function_references(source, "jacobi_to_contact")
    for fn in ("_jacobi_residuals", "_antisymmetric", "_inverse_tensor", "_times",
               "contact_to_jacobi", "jacobi_to_contact", "lcs_to_jacobi", "jacobi_to_lcs"):
        assert function_references(source, fn).isdisjoint(banned), fn
    # invert is the Fraction view of the one integer inverse
    linalg_source = (ROOT / "src" / "liejacobi" / "linalg.py").read_text()
    assert "_inverse" in function_references(linalg_source, "invert")
    assert "_echelon" not in function_references(linalg_source, "invert")
    kernel = reachable_functions(linalg_source, "_inverse")
    assert "_echelon" in kernel
    assert all(function_references(linalg_source, fn).isdisjoint(banned | {"ZERO"})
               for fn in kernel)


def module_references(source: str) -> set[str]:
    """Names, attributes and imported names anywhere in a source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_module_references_are_reported():
    assert module_references("from a import b\nimport c.d\nx.y(z)\n") == {"b", "d", "x", "y", "z"}


def test_third_kind_classification_reads_no_lcs_or_contact_structure():
    # the third-kind certificate is read from the characteristic algebra and
    # checked by third_kind_pair; no l.c.s. or contact structure is rebuilt
    names = module_references((ROOT / "src" / "liejacobi" / "bialgebra.py").read_text())
    assert names.isdisjoint({"jacobi_to_lcs", "lcs_to_jacobi", "contact_to_jacobi",
                             "ContactStructure", "LcsStructure"})


# The sites whose element inputs exterior._check_argument checks, by module;
# YbData goes through the dual-bracket routes' _check_route_args.
ARGUMENT_SITES = {
    "bialgebra.py": ("GeneralizedBialgebra.__post_init__", "_check_route_args",
                     "YbData.__post_init__", "glb_from_cocycle"),
    "jacobi.py": ("JacobiPair.__post_init__", "ContactStructure.__post_init__",
                  "LcsStructure.__post_init__"),
    "liealg.py": ("central_extension", "Subspace.from_elements", "Subspace.contains_element"),
}


@pytest.mark.parametrize("module, site", [(m, s) for m, sites in ARGUMENT_SITES.items()
                                          for s in sites])
def test_element_inputs_are_checked_by_one_rule(module, site):
    # one rule decides TypeError against ValueError, so no site raises a
    # TypeError of its own
    names = function_references((ROOT / "src" / "liejacobi" / module).read_text(), site)
    rule = "_check_route_args" if site == "YbData.__post_init__" else "_check_argument"
    assert rule in names
    assert "TypeError" not in names


def reachable_functions(source: str, name: str) -> set[str]:
    """`name` and the module-level functions of the same source that it
    refers to, directly or through each other."""
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [name]
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.add(fn)
            todo += function_references(source, fn) & defined
    return seen


def test_reachable_functions_are_reported():
    source = "def f(): return g()\ndef g(): return h\ndef h(): pass\ndef k(): f()\n"
    assert reachable_functions(source, "f") == {"f", "g", "h"}


def test_coboundary_system_and_kernel_stay_integer():
    # solve_coboundary's system is built from the integer tables and solved
    # by the integer kernel of solve_rows; only its output becomes Fraction
    linalg_source = (ROOT / "src" / "liejacobi" / "linalg.py").read_text()
    assert "_echelon" in function_references(linalg_source, "solve_rows")
    kernel = reachable_functions(linalg_source, "_echelon")
    assert kernel >= {"_echelon", "_eliminate", "_primitive"}
    references = [function_references(linalg_source, fn) for fn in sorted(kernel)]
    bialgebra_source = (ROOT / "src" / "liejacobi" / "bialgebra.py").read_text()
    references.append(function_references(bialgebra_source, "_coboundary_system"))
    assert all(names.isdisjoint({"Fraction", "ZERO"}) for names in references)


def test_integer_built_elements_build_no_fraction():
    # _from_ints keeps the integer form only, and _hold, which it hands the
    # form to, stores it; Fraction terms are built on their first read
    exterior_source = (ROOT / "src" / "liejacobi" / "exterior.py").read_text()
    names = function_references(exterior_source, "_Element._from_ints")
    assert "_hold" in names
    for fn in ("_Element._from_ints", "_Element._hold"):
        assert function_references(exterior_source, fn).isdisjoint({"Fraction", "ZERO"})


LAYERS = ("linalg", "exterior", "liealg", "schouten", "jacobi", "bialgebra", "documents",
          "catalog", "cli")


def _dotted(node) -> list[str]:
    """The names of an attribute chain a.b.c, or [] when it does not start
    at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else []


def benchmark_layer_names() -> set[tuple[str, str]]:
    """(layer, dotted name) for each liejacobi name that
    benchmarks/workloads.py reaches through a layer handle (self.liealg, or a
    local name bound to one, as in la = self.linalg) and that
    benchmarks/tracer.py names as a span, such as "liealg.LieAlgebra.validate"
    (metric keys such as out["linalg.rref.cells"] are left out)."""
    names = set()
    tree = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    handles = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(value, ast.Tuple)
                     and isinstance(target, ast.Tuple) else [(target, value)])
            for t, v in pairs:
                chain = _dotted(v)
                if (isinstance(t, ast.Name) and len(chain) == 2 and chain[0] == "self"
                        and chain[1] in LAYERS):
                    handles[t.id] = chain[1]
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else []
        if chain[:1] == ["self"] and len(chain) > 2 and chain[1] in LAYERS:
            names.add((chain[1], ".".join(chain[2:])))
        elif len(chain) > 1 and chain[0] in handles:
            names.add((handles[chain[0]], ".".join(chain[1:])))
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    keys = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in keys and node.value.split(".")[0] in LAYERS
                and "." in node.value):
            layer, name = node.value.split(".", 1)
            names.add((layer, name))
    return names


def test_benchmark_linalg_names_exist():
    # every liejacobi name the benchmark uses, so that a rename cannot
    # silently break it
    names = benchmark_layer_names()
    assert {("linalg", "identity"), ("linalg", "mat_mul"), ("linalg", "invert"),
            ("linalg", "rref"), ("liealg", "change_basis"), ("liealg", "one_cocycles"),
            ("bialgebra", "solve_coboundary"), ("jacobi", "contact_to_jacobi"),
            ("exterior", "Multivector.from_coeffs"), ("cli", "main"),
            ("liealg", "LieAlgebra.validate"), ("documents", "parse")} <= names
    missing = []
    for layer, name in sorted(names):
        obj = importlib.import_module(f"liejacobi.{layer}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None or not callable(obj):
            missing.append(f"{layer}.{name}")
    assert missing == []
