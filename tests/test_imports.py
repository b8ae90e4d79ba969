"""Every name a library module, test module or script imports is used in that
module, every private module-level function or class and every private
method of a library class is used somewhere in the library, every public
name of a layer module is used by the library, a script, the benchmark or
the README or is allowlisted with a reason, only the modules that exterior
names touch the integer form of elements and tables, the pointwise
dual-bracket route reads neither that form nor the contraction matrix of r,
the coboundary system, the elimination kernel and the Jacobi sums build no
Fraction, the Jacobi sums and the cached invariants of an algebra make no
public call, the Jacobi residuals and the contact and l.c.s. maps stay on
the integer forms, a 2-tensor has one integer matrix and one push-forward
that only the public sharp map views as Fractions, the compactness test,
subspaces and basis frames stay on integer rows, bialgebra builds no l.c.s.
or contact structure, each of six primitives (the dense integer form of a
matrix, the matrix-vector product, the linear map's shape check, the left
inverse of a basis, the Jacobi residuals and the reduction of the
characteristic subspace) has one implementation, the element inputs of the
library's constructors go through one argument check, and every liejacobi
name the benchmark uses exists and is callable.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "liejacobi").glob("*.py"))
SOURCES = (PACKAGE + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "scripts").glob("*.py")))


# the private cached bodies that hold each invariant of a LieAlgebra
CACHED_INVARIANTS = ("LieAlgebra._killing", "LieAlgebra._center", "LieAlgebra._derived",
                     "LieAlgebra._compactness")


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
    """Private module-level functions and classes, and private methods of
    module-level classes, that no source refers to, by name or as an
    attribute."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        defined |= {node.name for body in bodies for node in body
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
    methods = ("class C:\n    def _m(self): pass\n    def _n(self): self._m()\n"
               "    def __init__(self): pass\n")
    assert unreferenced_private([methods]) == ["_n"]


def test_no_unreferenced_private_helpers():
    assert unreferenced_private([p.read_text() for p in PACKAGE]) == []


# Public names that nothing but the tests uses, each with the reason it stays
# public.
PUBLIC_ALLOWLIST = {
    ("jacobi", "sharp"): "the paper's #_r, the one Fraction view of a 2-tensor's matrix",
    ("schouten", "twisted_schouten"): "the paper's phi0-twisted Schouten bracket, whose graded "
                                      "Jacobi and Leibniz identities the property suites check",
}


def public_names(source: str) -> set[str]:
    """Public module-level functions, classes and assigned names of a source."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def layer_references(source: str, own: str | None = None) -> set[tuple[str, str]]:
    """(layer, name) for each public layer name a source uses: a name
    imported from a layer, an attribute of a layer module bound by an import
    and, in the layer `own` itself, its own names outside their own
    definitions.  A name is resolved in its layer only, so a method or
    another layer's function of the same name does not count."""
    tree = ast.parse(source)
    imported, handles = {}, {}     # local name -> (layer, name); local name -> layer
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "liejacobi":
            handles |= {a.asname or a.name: a.name for a in node.names if a.name in LAYERS}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("liejacobi."):
            layer = node.module.split(".")[1]
            imported |= {a.asname or a.name: (layer, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            handles |= {a.asname: a.name.split(".")[1] for a in node.names
                        if a.asname and a.name.startswith("liejacobi.")}
    own_names = public_names(source) if own else set()
    refs = set()
    for statement in tree.body:
        defined = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    refs.add(imported[node.id])
                elif node.id in own_names and node.id != defined:
                    refs.add((own, node.id))
            elif isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if len(chain) > 1 and chain[0] in handles:
                    refs.add((handles[chain[0]], chain[1]))
    return refs


def readme_references(text: str) -> set[tuple[str, str]]:
    """(layer, name) for each public name the README sets in code: what its
    python blocks use, `layer.name` or `liejacobi.layer.name` anywhere, and a
    bare `name` in the paragraph of the layer, the bullet `liejacobi.layer`
    that it stands in (up to the next heading)."""
    refs, layer = set(), None
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        refs |= layer_references(block)
    for line in re.sub(r"```.*?```", "", text, flags=re.S).splitlines():
        if line.startswith("#"):
            layer = None
        bullet = re.match(r"- `liejacobi\.(\w+)`", line)
        if bullet:
            layer = bullet.group(1)
        for code in re.findall(r"`([^`]+)`", line):
            parts = code.removeprefix("liejacobi.").split(".")
            if len(parts) > 1 and parts[0] in LAYERS:
                refs.add((parts[0], parts[1]))
            elif layer and code.isidentifier():
                refs.add((layer, code))
    return refs


def unreferenced_public(modules: dict[str, str], references: set[tuple[str, str]]) -> list[str]:
    """layer.name for each public name of a layer module that no reference
    names."""
    return sorted(f"{layer}.{name}" for layer, source in modules.items()
                  for name in public_names(source) if (layer, name) not in references)


def test_unreferenced_public_is_reported():
    modules = {
        "linalg": "ZERO = ONE = 0\ndef rank(a): return rank(a)\ndef rref(a): return ZERO\n"
                  "def _echelon(): pass\n",
        "liealg": "class Subspace:\n    def rank(self): pass\n"
                  "def center(g): return Subspace().rank\n",
        "jacobi": "from liejacobi.linalg import rref, ONE\ndef rank(jp): return rref(jp)\n",
    }
    script = "import liejacobi.liealg as la\nla.center(None)\n"
    readme = "- `liejacobi.jacobi` - the `rank` of a pair\n## Next\n`center` and `linalg.rref`\n"
    refs = set().union(*(layer_references(s, layer) for layer, s in modules.items()))
    assert ("linalg", "ONE") not in refs           # imported but never used
    refs |= layer_references(script) | readme_references(readme)
    assert ("liealg", "center") in refs and ("linalg", "rref") in refs
    assert ("jacobi", "center") not in refs        # the bare name falls outside the bullet
    assert unreferenced_public(modules, refs) == ["linalg.ONE", "linalg.rank"]
    assert layer_references("from liejacobi import linalg as la\nla.rank([])\n") == {
        ("linalg", "rank")}


def test_every_public_name_is_used():
    # a public name is called in the library, used by a script or the
    # benchmark, set in code in the README, or allowlisted with a reason
    assert all(PUBLIC_ALLOWLIST.values())
    modules = {p.stem: p.read_text() for p in PACKAGE if p.stem in LAYERS}
    assert set(modules) == set(LAYERS)
    refs = set().union(*(layer_references(source, layer) for layer, source in modules.items()))
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py")):
        refs |= layer_references(path.read_text())
    refs |= {(layer, name.split(".")[0]) for layer, name in benchmark_layer_names()}
    refs |= readme_references((ROOT / "README.md").read_text())
    assert unreferenced_public(modules, refs) == sorted(f"{layer}.{name}"
                                                        for layer, name in PUBLIC_ALLOWLIST)

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


def definition(source: str, name: str) -> ast.FunctionDef:
    """The module-level function `name`, or the method `Class.method`."""
    body = ast.parse(source).body
    *owner, name = name.split(".")
    if owner:
        body = next(node for node in body
                    if isinstance(node, ast.ClassDef) and node.name == owner[0]).body
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def _references(nodes) -> set[str]:
    return {n.attr if isinstance(n, ast.Attribute) else n.id for node in nodes
            for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}


def function_references(source: str, name: str) -> set[str]:
    """Names and attributes the module-level function `name`, or the method
    `Class.method`, refers to."""
    return _references([definition(source, name)])


def body_references(source: str, name: str) -> set[str]:
    """function_references of the statements of `name` only, leaving out
    the annotations of its signature."""
    return _references(definition(source, name).body)


def test_function_references_are_reported():
    assert function_references("def f(g):\n    return h(g._ad)\ndef h(): pass\n", "f") == {
        "g", "h", "_ad"}
    assert function_references("class C:\n    def f(self):\n        return Fraction(1)\n",
                               "C.f") == {"Fraction"}
    assert body_references("def f(g: G) -> H:\n    return h(g)\n", "f") == {"h", "g"}


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
    # general schouten or a Fraction matrix.  A 2-tensor has one matrix,
    # liealg's integer _antisymmetric, and one push-forward, _push; the
    # dual-bracket and certificate kernels read that matrix, and only the
    # public sharp builds its Fraction view _contraction
    source = (ROOT / "src" / "liejacobi" / "jacobi.py").read_text()
    banned = {"Fraction", "schouten", "invert", "mat_vec", "from_columns", "solve"}
    check = function_references(source, "check_jacobi")
    assert "_jacobi_residuals" in check and "schouten" not in check
    assert {"_ad", "_ints"} <= function_references(source, "_jacobi_residuals")
    for fn in ("contact_to_jacobi", "_inverse_tensor"):
        assert {"_inverse", "_ints"} <= function_references(source, fn)
    assert "solve_rows" in function_references(source, "jacobi_to_contact")
    for fn in ("_jacobi_residuals", "_inverse_tensor", "contact_to_jacobi", "jacobi_to_contact",
               "lcs_to_jacobi", "jacobi_to_lcs"):
        assert function_references(source, fn).isdisjoint(banned), fn
    liealg_source = (ROOT / "src" / "liejacobi" / "liealg.py").read_text()
    assert "_echelon" in function_references(liealg_source, "_rank")
    for fn in ("_antisymmetric", "_push", "_rank"):
        assert "Fraction" not in function_references(liealg_source, fn), fn
    bialgebra_source = (ROOT / "src" / "liejacobi" / "bialgebra.py").read_text()
    for fn in ("dual_bracket_adjoint_route", "_check_sharp_homomorphism"):
        names = function_references(bialgebra_source, fn)
        assert "_antisymmetric" in names, fn
        assert names.isdisjoint({"Fraction", "_contraction", "sharp"}), fn
    assert "_contraction" in function_references(source, "sharp")
    modules = {p.name: module_references(p.read_text()) for p in PACKAGE}
    assert {name for name, refs in modules.items() if "_contraction" in refs} == {"jacobi.py"}
    assert not [name for name, refs in modules.items() if "sharp" in refs]
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


def test_compactness_subspaces_and_frames_stay_integer():
    # the compactness test, the center, the derived algebra, the frames of
    # the coordinate solvers and subspace membership run on the integer rows
    # of linalg's kernel and build no Fraction themselves; the split and the
    # definiteness are decided on integers, not through killing_form,
    # a public rank or a Fraction Gram matrix, once per algebra in the cached
    # body _compactness, which is_compact reads
    liealg_source = (ROOT / "src" / "liejacobi" / "liealg.py").read_text()
    for fn in ("is_compact", "_gram", *CACHED_INVARIANTS, "center", "derived_algebra",
               "_bracket_rows", "annihilator", "_kernel", "_frame", "_in_span",
               "Subspace.contains", "Subspace.from_elements"):
        assert "Fraction" not in function_references(liealg_source, fn), fn
    names = function_references(liealg_source, "LieAlgebra._compactness")
    assert {"_definite", "_echelon", "_gram", "_center", "_derived"} <= names
    assert names.isdisjoint({"killing_form", "rank", "_restrict_bilinear", "is_definite"})
    names = function_references(liealg_source, "is_compact")
    assert "_compactness" in names and names.isdisjoint({"_definite", "_echelon", "_gram"})
    assert "_killing" in function_references(liealg_source, "_gram")
    assert "_killing" in function_references(liealg_source, "killing_form")
    for fn, cache in (("center", "_center"), ("derived_algebra", "_derived")):
        assert {cache, "_from_echelon"} <= function_references(liealg_source, fn), fn
    for fn in ("LieAlgebra._center", "annihilator"):
        assert "_kernel" in function_references(liealg_source, fn), fn
    for fn in ("annihilator", "Subspace.from_elements"):
        assert "_from_echelon" in function_references(liealg_source, fn), fn
    assert "_null_rows" in function_references(liealg_source, "_kernel")
    frame = function_references(liealg_source, "_frame")
    assert "_inverse" in frame and "invert" not in frame
    contains = function_references(liealg_source, "Subspace.contains")
    assert {"_reduced", "_eliminate"} <= contains and "rows" not in contains
    linalg_source = (ROOT / "src" / "liejacobi" / "linalg.py").read_text()
    assert "_definite" in function_references(linalg_source, "is_definite")
    assert function_references(linalg_source, "_null_rows").isdisjoint({"Fraction", "ZERO"})
    # one nullspace path and one reduced-rows view: the Fraction nullspace
    # basis is read from _null_rows, and rref and Subspace from _reduced
    assert "_null_rows" in function_references(linalg_source, "_null_basis")
    assert "_reduced" in function_references(linalg_source, "rref")
    assert "_reduced" in function_references(liealg_source, "Subspace._hold")
    # the cocycle with prescribed values solves integer rows of the table
    bialgebra_source = (ROOT / "src" / "liejacobi" / "bialgebra.py").read_text()
    names = function_references(bialgebra_source, "_solve_cocycle_with_values")
    assert {"_bracket_rows", "solve_rows"} <= names
    assert names.isdisjoint({"Fraction", "solve", "structure"})


def test_cached_invariants_make_no_public_call():
    # a cached body runs on the first call only, so one that made a public
    # call would make the traced calls of an op depend on whether the cache
    # was filled: the bodies, and every private liealg or linalg function
    # they reach, name no public liejacobi function or class and no public
    # LieAlgebra method
    sources = {p.name: p.read_text() for p in PACKAGE}
    public = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
            if isinstance(node, ast.ClassDef) and node.name == "LieAlgebra":
                public |= {m.name for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
    assert public >= {"center", "is_compact", "killing_form", "rank", "Subspace", "bracket"}
    private = {}        # name -> (source, the name function_references takes)
    for source in (sources["liealg.py"], sources["linalg.py"]):
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                private[node.name] = (source, node.name)
            if isinstance(node, ast.ClassDef) and node.name == "LieAlgebra":
                private |= {m.name: (source, f"LieAlgebra.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef) and m.name.startswith("_")
                            and not m.name.startswith("__")}
    for fn in CACHED_INVARIANTS:
        todo, seen = [fn.split(".")[1]], set()
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                names = body_references(*private[name])
                assert names.isdisjoint(public), (fn, name, names & public)
                todo += [n for n in names if n in private]
        assert "_ad" in seen, fn


def test_one_implementation_per_primitive():
    linalg_source = (ROOT / "src" / "liejacobi" / "linalg.py").read_text()
    liealg_source = (ROOT / "src" / "liejacobi" / "liealg.py").read_text()
    # the dense integer form of a Fraction matrix: _dense, the one reader of
    # _integers besides the sparse form of a vector
    for source, fn in ((liealg_source, "LinearMap.__post_init__"), (liealg_source, "_frame"),
                       (linalg_source, "is_definite")):
        names = function_references(source, fn)
        assert "_dense" in names and "_integers" not in names, fn
    functions = [node.name for node in ast.parse(linalg_source).body
                 if isinstance(node, ast.FunctionDef)]
    assert {fn for fn in functions
            if "_integers" in function_references(linalg_source, fn)} == {"_dense", "_sparse"}
    modules = {p.name: module_references(p.read_text()) for p in PACKAGE}
    assert [name for name, refs in modules.items() if "_integers" in refs] == ["linalg.py"]
    # the matrix-vector product: one int kernel behind mat_vec and LinearMap.apply
    for source, fn in ((linalg_source, "mat_vec"), (liealg_source, "LinearMap.apply")):
        names = function_references(source, fn)
        assert "_mat_vec" in names and names.isdisjoint({"_sparse", "mul", "sum"}), fn
    # the linear map's shape check, in __post_init__ only, which also keeps _ints
    linear_map = next(node for node in ast.parse(liealg_source).body
                      if isinstance(node, ast.ClassDef) and node.name == "LinearMap")
    assert "_ints" not in {node.name for node in linear_map.body
                           if isinstance(node, ast.FunctionDef)}
    assert "ValueError" in function_references(liealg_source, "LinearMap.__post_init__")
    assert "ValueError" not in function_references(liealg_source, "LinearMap.from_rows")
    # the left inverse of a basis: _frame eliminates every basis, and no
    # module calls the Fraction invert
    names = function_references(liealg_source, "invariant_scalar_product")
    assert {"_frame", "_killing"} <= names
    assert names.isdisjoint({"invert", "transpose", "killing_form"})
    assert not [name for name, refs in modules.items() if "invert" in refs]
    # the Jacobi residuals: the Yang-Baxter check reads jacobi's
    names = function_references((ROOT / "src" / "liejacobi" / "bialgebra.py").read_text(),
                                "check_yb_hypotheses")
    assert "_jacobi_residuals" in names and names.isdisjoint({"schouten", "wedge"})
    # the characteristic subspace: integer rows reduced once, as center does
    names = function_references((ROOT / "src" / "liejacobi" / "jacobi.py").read_text(),
                                "_span_with_x0")
    assert {"_antisymmetric", "_echelon", "_from_echelon"} <= names
    assert names.isdisjoint({"coeffs", "frac", "Fraction"})


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


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_import_gives_the_module(layer):
    # the package binds no name of its own over a layer module, so
    # `import liejacobi.catalog as m` gives the module, not the function
    namespace = {}
    exec(f"import liejacobi.{layer} as m", namespace)
    assert namespace["m"] is sys.modules[f"liejacobi.{layer}"]
