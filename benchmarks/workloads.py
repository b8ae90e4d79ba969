"""The four benchmark workloads.

Each workload is a closed loop of single-threaded, in-process requests into
liejacobi.  Op ``i`` of a run draws its input from
``random.Random(f"{name}:{seed}:{i}")``, so a seed fixes the whole input
stream independently of how many ops a run gets through.  Every workload
keeps one input size; where its ops come in kinds of different cost, the
kinds follow a fixed cycle (``cycle`` ops long) and runs stop on a cycle
boundary, so each kind's share of the ops is the same on every run and seed.

A workload looks the library up through module attributes at call time
(``self.bialgebra.classify_compact``), so the tracer's patches apply, and it
re-imports nothing itself: the modules in ``sys.modules`` when it is
constructed are the ones it uses.

``check`` verifies an op's output by a route independent of the code under
test and returns False on a mismatch.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path


def _modules(obj) -> None:
    for layer in ("linalg", "exterior", "liealg", "schouten", "jacobi",
                  "bialgebra", "documents", "catalog", "cli"):
        setattr(obj, layer, importlib.import_module(f"liejacobi.{layer}"))


def _rational(rng: random.Random) -> Fraction:
    """A small nonzero rational."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


class CompactClassify:
    """Build a compact-kind bialgebra on su2 x R^2 (dim 5), then classify it.

    The cycle is first, second, third kind.  All ops share one base algebra
    object, so a per-algebra cache would hit on every op.
    """

    name = "compact-classify"
    cycle = 3
    KINDS = ("first", "second", "third")

    def __init__(self, seed: int, workdir: Path):
        _modules(self)
        self.seed = seed
        self.g = self.liealg.direct_product(self.catalog.catalog("su2"),
                                            self.liealg.abelian(2), name="su2xR2")

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        q = lambda: _rational(rng)
        kind = self.KINDS[i % 3]
        if kind == "first":
            # h = <u, w> with u in su2 and w the central vector phi0 kills
            return kind, {"a": q(), "b": q(), "u": [q(), q(), q(), 0, 0], "c": q()}
        if kind == "second":
            while True:
                a, b, c, d = q(), q(), q(), q()
                if a * d != b * c:
                    break
            return kind, {"e1": [0, 0, 0, a, b], "e2": [0, 0, 0, c, d],
                          "lam": (q(), q(), q())}
        return kind, {"e4": [0, 0, 0, q(), q()], "lam": (q(), q(), q())}

    def _vector(self, coeffs):
        return self.exterior.Multivector.from_coeffs(coeffs)

    def run(self, inp):
        kind, p = inp
        bi, v = self.bialgebra, self._vector
        if kind == "first":
            u, w = v(p["u"]), v([0, 0, 0, p["b"], -p["a"]])
            h = self.liealg.Subspace.from_elements([u, w])
            r = self.exterior.wedge(u, w).scale(p["c"])
            phi0 = self.exterior.Form.from_coeffs([0, 0, 0, p["a"], p["b"]])
            b = bi.build_first_kind(self.g, h, r, phi0)
        elif kind == "second":
            b = bi.build_second_kind(self.g, v(p["e1"]), v(p["e2"]), *p["lam"])
        else:
            e1, e2, e3 = (v([int(k == j) for k in range(5)]) for j in range(3))
            b = bi.build_third_kind(self.g, e1, e2, e3, v(p["e4"]), p["lam"])
        return b, bi.classify_compact(b)

    def _expected_pair(self, kind, p):
        """(r, x0) the builder was asked for, from the kind's closed form."""
        ext, v = self.exterior, self._vector
        if kind == "first":
            u, w = v(p["u"]), v([0, 0, 0, p["b"], -p["a"]])
            return ext.wedge(u, w).scale(p["c"]), v([0] * 5)
        if kind == "second":
            lam, lam1, lam2 = p["lam"]
            e1, e2 = v(p["e1"]), v(p["e2"])
            return ext.wedge(e1, e2).scale(lam), e1.scale(lam1) + e2.scale(lam2)
        basis = [v([int(k == j) for k in range(5)]) for j in range(3)]
        return _third_kind_pair(ext, *basis, v(p["e4"]), p["lam"])

    def check(self, inp, out) -> bool:
        kind, p = inp
        _, result = out
        if result.kind != kind:
            return False
        r, x0 = self._expected_pair(kind, p)
        pair = result.extraction.pair
        if pair.r != r or pair.x0 != x0:
            return False
        if kind == "second":
            cert = result.certificate
            return cert.lam != 0 and (cert.lam1, cert.lam2) != (0, 0)
        if kind == "third":
            # the certificate's own triple, e4 and lambdas must rebuild the pair
            cert = result.certificate
            return _third_kind_pair(self.exterior, *cert.triple, cert.e4,
                                    cert.lambdas) == (r, x0)
        return True


def _third_kind_pair(ext, e1, e2, e3, e4, lambdas):
    """r = l1 (e2^e3 - e4^e1) - l2 (e1^e3 + e4^e2) + l3 (e1^e2 - e4^e3),
    x0 = -(l1 e1 + l2 e2 + l3 e3)."""
    l1, l2, l3 = (Fraction(c) for c in lambdas)
    w = ext.wedge
    r = ((w(e2, e3) - w(e4, e1)).scale(l1) - (w(e1, e3) + w(e4, e2)).scale(l2)
         + (w(e1, e2) - w(e4, e3)).scale(l3))
    return r, -(e1.scale(l1) + e2.scale(l2) + e3.scale(l3))


class CoboundarySolve:
    """heisenberg(1,3) (dim 7) in a seeded unimodular integer basis with a
    seeded 1-cocycle: glb_from_cocycle, then solve_coboundary.

    Every op gets a distinct algebra.  Bases are drawn until the structure
    constants have at least DENSE nonzero entries (of 147), which keeps the
    op cost unimodal.
    """

    name = "coboundary-solve"
    cycle = 1
    N = 7
    DENSE = 120

    def __init__(self, seed: int, workdir: Path):
        _modules(self)
        self.seed = seed
        self.h = self.catalog.heisenberg(3)

    def _dense_basis(self, rng):
        n, la = self.N, self.linalg
        while True:
            lower, upper = la.identity(n), la.identity(n)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        (lower if i > j else upper)[i][j] = Fraction(rng.choice((-1, 0, 1)))
            p = la.mat_mul(lower, upper)
            order = list(range(n))
            rng.shuffle(order)
            p = [p[k] for k in order]
            # [f_a, f_b] = B(f_a, f_b) z with B the symplectic form of the
            # first six coordinates and z = e7, whose new coordinates are the
            # last column of p^-1
            cols = [[p[r][c] for r in range(n)] for c in range(n)]
            nonzero_pairs = sum(
                1 for a, b in combinations(range(n), 2)
                if sum(cols[a][2 * k] * cols[b][2 * k + 1] - cols[a][2 * k + 1] * cols[b][2 * k]
                       for k in range(3)) != 0)
            z_new = [row[n - 1] for row in la.invert(p)]
            if nonzero_pairs * sum(1 for c in z_new if c != 0) >= self.DENSE:
                return p

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        g = self.liealg.change_basis(self.h, self._dense_basis(rng), name=f"h13.{i}")
        cocycles = self.liealg.one_cocycles(g).rows
        while True:
            weights = [rng.randint(-2, 2) for _ in cocycles]
            if any(weights):
                break
        phi = [sum(w * row[k] for w, row in zip(weights, cocycles)) for k in range(self.N)]
        return g, phi

    def run(self, inp):
        g, phi = inp
        b = self.bialgebra.glb_from_cocycle(g, self.exterior.Form.from_coeffs(phi))
        return b, self.bialgebra.solve_coboundary(b)

    def check(self, inp, out) -> bool:
        """Substitute back: d_{*X0}(e_i) = [e_i, r] - phi0(e_i) r for each i.

        The left side comes from the dual structure constants directly,
        (d_* e_i)_{ab} = -[e^a, e^b]*_i, plus X0 ^ e_i; the right side goes
        through schouten and pair.  An empty answer is confirmed when the
        right side vanishes on every basis 2-vector (so on every r) while some
        left side does not.
        """
        b, sol = out
        ext, n = self.exterior, self.N
        x0 = b.x0.coeffs()
        lhs = []
        for i in range(n):
            terms = {}
            for a, c in combinations(range(n), 2):
                coeff = (-ext.pair(ext.Form.basis(n, i), b.g_star.bracket_basis(a, c))
                         + x0[a] * (c == i) - x0[c] * (a == i))
                if coeff != 0:
                    terms[(a, c)] = coeff
            lhs.append(ext.Multivector.from_terms(n, 2, terms))

        def rhs(i, r):
            e = b.g.basis_vector(i)
            return self.schouten.schouten(b.g, e, r) - r.scale(ext.pair(b.phi0, e))

        if sol.is_empty:
            basis = [ext.Multivector.from_terms(n, 2, {ac: 1})
                     for ac in combinations(range(n), 2)]
            return (all(rhs(i, r).is_zero() for i in range(n) for r in basis)
                    and any(not side.is_zero() for side in lhs))
        return (all(rhs(i, sol.particular) == lhs[i] for i in range(n))
                and all(rhs(i, h).is_zero() for i in range(n) for h in sol.homogeneous))


class ContactSweep:
    """Seeded rational contact forms on su2 through contact_to_jacobi and back."""

    name = "contact-sweep"
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        _modules(self)
        self.seed = seed
        self.su2 = self.catalog.catalog("su2")

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return [_rational(rng) for _ in range(3)]

    def run(self, mu):
        j = self.jacobi
        eta = self.exterior.Form.from_coeffs(mu)
        jp = j.contact_to_jacobi(j.ContactStructure(self.su2, eta))
        return jp, j.jacobi_to_contact(jp)

    def check(self, mu, out) -> bool:
        """Round trip returns eta exactly, and the pair has the closed form
        r = sum lam_i (cyclic bivector), X0 = mu / |mu|^2, lam = -mu / |mu|^2."""
        jp, back = out
        ext = self.exterior
        norm = sum(m * m for m in mu)
        lam = [-m / norm for m in mu]
        r = ext.Multivector.from_terms(3, 2, {(1, 2): lam[0], (2, 0): lam[1], (0, 1): lam[2]})
        return (back.eta == ext.Form.from_coeffs(mu) and jp.r == r
                and jp.x0 == ext.Multivector.from_coeffs([m / norm for m in mu]))


class CliCatalog:
    """``cli.main(argv)`` with ``--format machine`` over every subcommand.

    A cycle is the 25 commands of ``_SLOTS``; the seed picks entries,
    document contents and malformations within the cheap slots.  The four
    costliest commands have fixed inputs, and the cycle length is odd, so
    that p50 and p90 fall inside one slot's cost cluster rather than between
    two.  Each slot states the exit code the contract in cli.py requires:
    0 pass, 1 failed check with a report, 2 usage or document error.
    Slot 20 hands coboundary-solve a schema-valid document that is not a
    generalized bialgebra; the contract asks for exit 1 with a report, and
    the ValueError it raises instead counts as a failed op.
    """

    name = "cli-catalog"
    PLAIN = ("su2", "sl2r", "u2", "gl2r", "solvable2", "abelian(3)", "abelian(4)",
             "heisenberg(1,1)", "heisenberg(1,2)")
    YB = ("solvable3_51", "h11", "semidirect4_53")
    JACOBI = {"solvable3_51": True, "h11": False, "semidirect4_53": False}
    BUILT = ("firstkind4", "secondkind4", "thirdkind_u2")

    def __init__(self, seed: int, workdir: Path):
        _modules(self)
        self.seed = seed
        self.dir = workdir / "cli-docs"
        self.dir.mkdir(parents=True, exist_ok=True)
        cat, ser = self.catalog.catalog, self.documents.serialize
        for name in self.PLAIN:
            self._write(f"alg-{name}.json", ser(cat(name)))
        for name in self.BUILT + ("noncob4_53",):
            self._write(f"glb-{name}.json", ser(cat(name)))
        self.noncob = json.loads((self.dir / "glb-noncob4_53.json").read_text())
        ext = self.exterior
        self._write("eta-zero.json", ser(ext.Form.zero(3, 1), labels=("e^1", "e^2", "e^3")))

    def _write(self, fname: str, text: str) -> str:
        path = self.dir / fname
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _doc(self, prefix: str, name: str) -> str:
        return str(self.dir / f"{prefix}-{name}.json")

    # seeded documents

    def _nonlie(self, rng, slot):
        # [e1,e2] = e3, [e3,e4] = c e1 breaks Jacobi on (e1, e2, e4)
        v = lambda coeffs: self.exterior.Multivector.from_coeffs(coeffs)
        g = self.liealg.LieAlgebra("nonlie", 4, ("e1", "e2", "e3", "e4"),
                                   {(0, 1): v([0, 0, 1, 0]), (2, 3): v([_rational(rng), 0, 0, 0])})
        return self._write(f"op{slot}.json", self.documents.serialize(g))

    def _malformed(self, rng, slot):
        good = json.loads((self.dir / "alg-su2.json").read_text())
        variant = rng.randrange(4)
        if variant == 0:
            text = json.dumps(good)[:rng.randrange(10, 60)]
        elif variant == 1:
            text = json.dumps(dict(good, kind=rng.choice(("bogus", "algebras", ""))))
        elif variant == 2:
            del good[rng.choice(("dim", "basis", "brackets"))]
            text = json.dumps(good)
        else:
            good["brackets"][0]["value"][0]["coeff"] = rng.choice(("1/0", "x", "", 2))
            text = json.dumps(good)
        return self._write(f"op{slot}.json", text)

    def _broken_glb(self, rng, slot):
        """noncob4_53 with the [e^1,e^4]* coefficient changed from 1."""
        doc = json.loads(json.dumps(self.noncob))
        for bracket in doc["g_star"]["brackets"]:
            if (bracket["i"], bracket["j"]) == ("e^1", "e^4"):
                bracket["value"][0]["coeff"] = rng.choice(("3", "2", "-1", "1/2", "5"))
        return self._write(f"op{slot}.json", json.dumps(doc, indent=2))

    def _form(self, rng, slot, dim, grade):
        ext = self.exterior
        labels = tuple(f"e^{k + 1}" for k in range(dim))
        if grade == 1:
            form = ext.Form.from_coeffs([_rational(rng) for _ in range(dim)])
        else:
            form = ext.Form.from_terms(dim, 2, {(0, 1): _rational(rng)})
        return self._write(f"op{slot}.json", self.documents.serialize(form, labels=labels))

    def _pair_command(self, rng, command):
        """jacobi-check and char-sub fail on bundles whose (r, x0) is no Jacobi pair."""
        name = rng.choice(self.YB)
        return [command, "--name", name], 0 if self.JACOBI[name] else 1

    # slots: (self, rng, slot) -> (argv, expected exit code)

    _SLOTS = (
        lambda s, r, k: (["catalog"], 0),
        lambda s, r, k: (["catalog", "--name", r.choice(s.PLAIN)], 0),
        lambda s, r, k: (["validate", "--name", r.choice(s.PLAIN)], 0),
        lambda s, r, k: (["validate", "--algebra", s._doc("alg", r.choice(s.PLAIN))], 0),
        lambda s, r, k: (["validate", "--algebra", s._nonlie(r, k)], 1),
        lambda s, r, k: (["validate", "--algebra", s._malformed(r, k)], 1),
        lambda s, r, k: s._pair_command(r, "jacobi-check"),
        lambda s, r, k: (["rank", "--name", r.choice(s.YB)], 0),
        lambda s, r, k: s._pair_command(r, "char-sub"),
        lambda s, r, k: (["contact", "--algebra", s._doc("alg", "su2"),
                          "--eta", s._form(r, k, 3, 1)], 0),
        lambda s, r, k: (["contact", "--name", "su2", "--eta", str(s.dir / "eta-zero.json")], 1),
        lambda s, r, k: (["lcs", "--algebra", s._doc("alg", "solvable2"),
                          "--omega", s._form(r, k, 2, 2)], 0),
        lambda s, r, k: (["yb-check", "--name", r.choice(s.YB)], 0),
        lambda s, r, k: (["yb-build", "--name", "solvable3_51"], 0),
        lambda s, r, k: (["glb-check", "--name", "noncob4_53"], 0),
        lambda s, r, k: (["glb-check", "--glb", s._doc("glb", r.choice(s.BUILT))], 0),
        lambda s, r, k: (["glb-check", "--glb", s._broken_glb(r, k)], 1),
        lambda s, r, k: (["glb-extract", "--name", "secondkind4"], 0),
        lambda s, r, k: (["glb-classify", "--glb", s._doc("glb", "thirdkind_u2")], 0),
        lambda s, r, k: (["coboundary-solve", "--name", "noncob4_53"], 0),
        lambda s, r, k: (["coboundary-solve", "--glb", s._broken_glb(r, k)], 1),
        lambda s, r, k: (["glb-check", "--glb", s._malformed(r, k)], 2),
        lambda s, r, k: (["rank", "--name", r.choice(("nosuch", "su3", "abelian(x)"))], 2),
        lambda s, r, k: (r.choice((["yb-build"], ["rank", "--bogus"], ["contact"])), 2),
        lambda s, r, k: (["glb-check", "--name", "firstkind4"], 0),
    )
    cycle = len(_SLOTS)

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        slot = i % self.cycle
        argv, expected = self._SLOTS[slot](self, rng, slot)
        return argv + ["--format", "machine"], expected

    def run(self, inp):
        argv, _ = inp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, out) -> bool:
        _, expected = inp
        code, stdout, stderr = out
        if code != expected or "Traceback" in stderr:
            return False
        if code == 2:
            return not stdout and bool(stderr)
        payload = json.loads(stdout)
        report = payload.get("report", {})
        return "passed" not in report or report["passed"] == (code == 0)

    @staticmethod
    def output_bytes(out) -> int:
        return len(out[1].encode("utf-8"))


WORKLOADS = {w.name: w for w in (CompactClassify, CoboundarySolve, ContactSweep, CliCatalog)}
