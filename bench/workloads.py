"""The three workloads of the focklab verification benchmark.

A workload turns a seed into inputs (`inputs`), builds what the program needs
from them (`setup`), and lists its units as groups of calls into focklab's
public API (`groups`).  A unit is one recorded verdict: a suite check record,
one curvature-theorem item, or one lifted identity on one probe vector.

This module never imports focklab itself: the package is passed in as `fl`
and every call goes through its attributes, so that a tracer installed on
the package sees the calls.  Nothing here depends on the wall clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# What a unit may raise.  AssertionError covers geometry.IdentityFailed and
# hodge.IdentityFailed; ValueError covers PrecisionExhausted, NotScalar and
# NoIsotropicLift.
FAILURES = (AssertionError, ValueError, ArithmeticError)

# Two of the four (k, l) pairs of the basis-change identity, one with a
# central term and one without, each with its full index range, window and
# probe set: with all four a pass took 48 s on a 2-CPU 2.1 GHz x86-64 machine.
LIFT_PAIRS = ((2, -2), (2, -1))
LIFT_INDICES = (-12, 12)
LIFT_WINDOW = 60
LIFT_PROBE_GRADE = 3
# Seeded values are drawn from sets whose members cost the same to within
# run-to-run noise, so the seed changes the inputs but not the work.
LAMBDAS = (1, -1, 2, -2)
COUPLINGS = (1, -1, 2, -2)
CURVE_GENERA = (1, 2, 3, 4)
THEOREM31_ITEMS = (
    "flatness", "dagger1", "dagger2", "fock_curvature_scalar",
    "scalar_equals_half_det_curvature", "scalar_equals_minus_half_trace",
    "trace_anticommutation", "det_curvature_is_minus_trace",
    "endomorphism_lemma", "covariant_s_lemma", "skew_hermitian_at_sample",
)
# Known defect at the seed: both curves raise NoIsotropicLift.  Run outside
# the timed passes so that its fix is not charged as a slowdown.
DEFECT_CURVES = (
    ("y^2=x^3+x+1", [1, 1, 0, 1], 1),
    ("y^2=x^5-x+1", [1, -1, 0, 0, 0, 1], 2),
)


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def odd_curve(g):
    """Coefficients of x^(2g+1) - x, lowest degree first, and its window."""
    return [0, -1] + [0] * (2 * g - 1) + [1], 44 + 8 * g


# -- canonical exact values ---------------------------------------------------------


def canonical_scalar(c) -> str:
    """Representation-independent text of a Q(i) scalar."""
    if hasattr(c, "re"):
        return f"{Fraction(c.re)}|{Fraction(c.im)}"
    return f"{Fraction(c)}|0"


def canonical_osc(v) -> str:
    return ";".join(
        f"{list(key)}:{canonical_scalar(c)}" for key, c in sorted(v.terms.items())
    )


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads ----------------------------------------------------------------------


class FiniteFock:
    name = "finite-fock"

    def inputs(self, rng):
        return {"suite_seed": rng.randrange(1, 10**9)}

    def setup(self, fl, inputs):
        return dict(inputs)

    def groups(self, fl, state):
        seed = state["suite_seed"]
        return [
            ("fock-basics", 8, lambda: fl.run_suite("fock-basics", {"g": 3, "seed": seed})),
            ("adjoint", 3, lambda: fl.run_suite("adjoint", {"g": 3, "grade": 4, "seed": seed})),
        ]

    def account(self, fl, state, gid, value):
        return suite_units(fl, gid, value)

    def check(self, fl, state, values, refs):
        return []


class LoopOscillator:
    name = "loop-oscillator"

    def inputs(self, rng):
        return {"lambda": rng.choice(LAMBDAS)}

    def setup(self, fl, inputs):
        lam = Fraction(inputs["lambda"])
        base = fl.LaurentSeries.from_terms({1: 1, 2: lam}, LIFT_WINDOW)
        inv = base.inv()
        basis = {}
        for i in range(LIFT_INDICES[0], LIFT_INDICES[1] + 1):
            v = fl.LaurentSeries.one()
            for _ in range(abs(i)):
                v = v * (base if i > 0 else inv)
            basis[i] = v  # e_i = (t + lambda t^2)^i
        return {"lambda": lam, "basis": basis}

    def groups(self, fl, state):
        out = [
            (f"virasoro[grade={g}]", 4, lambda g=g: fl.run_suite("virasoro", {"grade": g, "kmax": 6}))
            for g in (8, 11)
        ]
        for k, l in LIFT_PAIRS:
            out.append((f"lift[{k},{l}]", len(fl.osc_basis(LIFT_PROBE_GRADE)),
                        lambda k=k, l=l: self.lifted_identity(fl, state["basis"], k, l)))
        return out

    @staticmethod
    def lifted_identity(fl, basis, k, l):
        """[T(D_k), T(D_l)] = (l-k) T(D_{k+l}) + (k^3-k)/12 delta_{k+l,0} on
        each probe; returns (probe, lhs, rhs) triples."""
        D = fl.Derivation.D
        lift_k = fl.lift_derivation(D(k), basis)
        lift_l = fl.lift_derivation(D(l), basis)
        lift_kl = fl.lift_derivation(D(k + l), basis)
        central = Fraction(k**3 - k, 12) if k + l == 0 else Fraction(0)
        out = []
        for key in fl.osc_basis(LIFT_PROBE_GRADE):
            v = fl.OscFockVector.basis(key)
            lhs = lift_k.apply(lift_l.apply(v)) - lift_l.apply(lift_k.apply(v))
            rhs = lift_kl.apply(v).scale(l - k) + v.scale(central)
            out.append((key, lhs, rhs))
        return out

    def account(self, fl, state, gid, value):
        if gid.startswith("virasoro"):
            return suite_units(fl, gid, value)
        units = [(f"{gid}@{list(key)}", "pass" if lhs == rhs else "fail",
                  None if lhs == rhs else f"lhs={lhs} rhs={rhs}") for key, lhs, rhs in value]
        return units, len(units), canonical_lift(value)

    def check(self, fl, state, values, refs):
        problems = []
        for k in range(1, 7):
            _, central = fl.virasoro_bracket(k, -k, probe_grade=LIFT_PROBE_GRADE)
            if central != Fraction(k**3 - k, 12):
                problems.append(f"central term at ({k},{-k}) is {central}, expected {Fraction(k**3 - k, 12)}")
        want = refs["lifted_identity_sha256"][str(state["lambda"])]
        for gid, value in values.items():
            if gid.startswith("lift") and value is not None:
                for side in (1, 2):
                    got = sha(canonical_lift(value, side))
                    if got != want[gid]:
                        problems.append(f"{gid} side {side} digest {got[:12]} != reference {want[gid][:12]}")
        return problems


class CurvesAndFamilies:
    name = "curves-and-families"

    def inputs(self, rng):
        return {"coupling": rng.choice(COUPLINGS), "wzw_seed": rng.randrange(1, 10**9)}

    def setup(self, fl, inputs):
        c = inputs["coupling"]
        return {
            "wzw_seed": inputs["wzw_seed"],
            "families": {
                "modular": fl.modular_family(),
                "siegel(0)": fl.siegel_family(0),
                f"siegel({c})": fl.siegel_family(c),
            },
        }

    def groups(self, fl, state):
        out = [("fock-type", 4, lambda: fl.run_suite("fock-type", {}))]
        for g in CURVE_GENERA:
            f, n = odd_curve(g)
            out.append((f"hyperelliptic[g={g}]", 6,
                        lambda f=f, g=g, n=n: fl.run_suite("hyperelliptic", {"f": f, "g": g, "N": n})))
            out.append((f"wzw-gram[g={g}]", 3, lambda f=f, g=g, n=n: fl.run_suite(
                "wzw-gram", {"f": f, "g": g, "N": n, "seed": state["wzw_seed"]})))
        for name, fam in state["families"].items():
            out.append((f"theorem31[{name}]", len(THEOREM31_ITEMS),
                        lambda fam=fam: fl.verify_theorem31(fam, probe_grade=4)))
        return out

    def account(self, fl, state, gid, value):
        if not gid.startswith("theorem31"):
            return suite_units(fl, gid, value)
        fam = state["families"][gid[len("theorem31["):-1]]
        pairs = fam.field.nvars * (fam.field.nvars - 1) // 2
        probes = len(fl.fock_basis(fl.standard_space(fam.g), 4))
        evidence = {"fock_curvature_scalar": pairs * (probes + 1), "endomorphism_lemma": pairs * probes,
                    "covariant_s_lemma": 2 * pairs * probes}
        units = [(f"{gid}.{item}", "pass" if value.get(item) else "fail", None) for item in THEOREM31_ITEMS]
        digest = json.dumps({k: bool(v) for k, v in sorted(value.items())})
        return units, sum(evidence.get(item, 1) for item in THEOREM31_ITEMS), digest

    def check(self, fl, state, values, refs):
        problems = []
        for g in CURVE_GENERA:
            f, n = odd_curve(g)
            data = fl.curve_fock_data(fl.build_model([Fraction(c) for c in f], g, n), degree_bound=4 * g + 4)
            gram = fl.build_quotient(data.subalgebra()).gram()
            idx = list(range(-g, 0)) + list(range(1, g + 1))
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    if gram[a, b] != (i if i + j == 0 else 0):
                        problems.append(f"quotient Gram g={g} entry ({i},{j}) = {gram[a, b]}")
        for name, fam in state["families"].items():
            want = refs["curvature_scalar"]["modular" if name == "modular" else "siegel"]
            conn = fl.connection_blocks(fam)
            vacuum = fl.FockVector.vacuum(fam.probe_space())
            params = fam.field.params
            for k1 in range(len(params)):
                for k2 in range(k1 + 1, len(params)):
                    on_vac = conn.curvature_on_probe(conn.nabla_ff, k1, k2, vacuum)
                    got = on_vac.terms.get((), 0)
                    ref = fam.field.parse(want.get(f"{params[k1]}^{params[k2]}", "0"))
                    if on_vac != vacuum.scale(got) or got != ref:
                        problems.append(f"curvature of {name} on d{params[k1]}^d{params[k2]}: {got}, expected {ref}")
        return problems


WORKLOADS = {w.name: w for w in (FiniteFock(), LoopOscillator(), CurvesAndFamilies())}


def make_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload].inputs(random.Random(f"{workload}/{seed}"))


def canonical_lift(value, side=1) -> str:
    return "\n".join(f"{list(t[0])}={canonical_osc(t[side])}" for t in value)


# -- suite records and their evidence --------------------------------------------------


def suite_units(fl, gid, rep):
    """Units, evidence and a byte-stable digest of one suite report."""
    units = [(f"{gid}.{c.id}", c.status, c.witness) for c in rep.checks]
    per_check = SUITE_EVIDENCE[rep.suite](fl, rep.params)
    evidence = sum(per_check.get(c.id, 1) for c in rep.checks)
    return units, evidence, rep.to_json_bytes().decode()


def _virasoro_evidence(fl, p):
    kmax, grade = int(p["kmax"]), int(p["grade"])
    small = len(fl.osc_basis(min(grade, 5)))
    return {
        "virasoro.01-cocycle": (2 * kmax + 1) ** 2 * len(fl.osc_basis(grade)),
        "virasoro.02-spot-central": small,
        "virasoro.03-module-commutator": 9 * 8 * small,
        "virasoro.04-positive-order-vacuum": kmax,
    }


def _fock_basics_evidence(fl, p):
    out = {}
    for g in range(1, int(p["g"]) + 1):
        sp, n = fl.standard_space(g), 2 * g
        span = n * (n + 1) // 2
        for cid, count in (
            ("01-e-roundtrip", 3 * n * n),
            ("02-normal-order-projector", 3),
            ("03-heisenberg", n * n * len(fl.fock_basis(sp, 2))),
            ("04-tau-homomorphism", span * span),
            ("05-tau-hat-deviation", 3),
            ("06-vacuum-annihilation", 1),
            ("07-complement-independence", 1),
            ("08-positive-definite", len(fl.fock_basis(sp, 4))),
        ):
            key = f"fock-basics.{cid}"
            out[key] = out.get(key, 0) + count
    return out


def _adjoint_evidence(fl, p):
    grade = int(p["grade"])
    out = {"adjoint.01-mode-adjoint": 0, "adjoint.02-skew-hermitian": 0, "adjoint.03-quadratic-bracket": 0}
    for g in range(1, int(p["g"]) + 1):
        sp = fl.standard_space(g)
        keys = fl.fock_basis(sp, grade if g == 1 else min(grade, 3))
        lens = [len(k) for k in keys]
        out["adjoint.01-mode-adjoint"] += 2 * g * sum(1 for a in lens for b in lens if abs(a - b) == 1)
        out["adjoint.02-skew-hermitian"] += len(fl.fock_basis(sp, min(grade, 3))) ** 2
        out["adjoint.03-quadratic-bracket"] += 3 * min(10, len(fl.fock_basis(sp, grade)))
    return out


def _hyperelliptic_evidence(fl, p):
    g = int(p["g"])
    return {
        "hyperelliptic.03-quotient": (2 * g) ** 2,
        "hyperelliptic.04-residue-gram": (2 * g) ** 2,
        "hyperelliptic.06-covariant-scalar": 4 if g >= 2 else 3,
    }


def _wzw_evidence(fl, p):
    g = int(p["g"])
    return {"wzw-gram.01-symmetric": 3 * g * g, "wzw-gram.02-sign-identity": 3 * g * g,
            "wzw-gram.03-zero": g * g}


SUITE_EVIDENCE = {
    "virasoro": _virasoro_evidence,
    "fock-basics": _fock_basics_evidence,
    "adjoint": _adjoint_evidence,
    "fock-type": lambda fl, p: {},
    "hyperelliptic": _hyperelliptic_evidence,
    "wzw-gram": _wzw_evidence,
}


# -- one pass ------------------------------------------------------------------------


def run_pass(fl, workload, state):
    """Run every unit group once: (group id, expected units, value, error)."""
    results = []
    for gid, expected, thunk in workload.groups(fl, state):
        try:
            results.append((gid, expected, thunk(), None))
        except FAILURES as exc:
            results.append((gid, expected, None, f"{type(exc).__name__}: {exc}"))
    return results


def account_pass(fl, workload, state, results):
    """Units with verdicts, the evidence count and a digest of exact results."""
    units, evidence, digest = [], 0, hashlib.sha256()
    for gid, expected, value, error in results:
        if error is None:
            got, ev, text = workload.account(fl, state, gid, value)
            if len(got) != expected:
                error = f"{len(got)} records, expected {expected}"
        if error is not None:
            got, ev, text = [(f"{gid}.unit{i}", "raised", error) for i in range(expected)], 0, error
        units.extend(got)
        evidence += ev
        digest.update(f"{gid}\n{text}\n".encode())
    return units, evidence, digest.hexdigest()


def defect_probe(fl) -> dict:
    """Verdicts of the hyperelliptic suite on the two curves of the known
    NoIsotropicLift defect, by name."""
    out = {}
    for label, f, g in DEFECT_CURVES:
        name = f"hyperelliptic[{label},g={g},N={44 + 8 * g}]"
        try:
            rep = fl.run_suite("hyperelliptic", {"f": f, "g": g, "N": 44 + 8 * g})
        except FAILURES as exc:
            out[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        bad = [c.id for c in rep.checks if c.status != "pass"]
        out[name] = "pass" if not bad else "not pass: " + ", ".join(bad)
    return out
