"""Batch verification suites and example computations.

A suite is a generator of checks ``(id, statement, ok[, witness[, detail]])``:
``ok`` is a bool or "skipped", the witness is the first failing case.  Only
``run_suite`` resolves parameters (the ``SUITES`` table), makes records and
times the run.  Every suite is deterministic given its parameters and seed.

Exit codes: 0 all non-skipped checks pass, 1 a check fails, 2 usage error or
invalid parameters, among them a ``--param`` key that no run reads, a
``--seed`` (``--prec``) where no run reads ``seed`` (``N``), one parameter
given two values, and a genus, grade or ``kmax`` that leaves a suite nothing
to check (a suite raises ValueError before its first check).  A suite
that raises one of ``FAILURES`` (IdentityFailed, NoIsotropicLift, NotScalar,
NotSymmetric) ends with a failed ``<suite>.run`` record; one whose window
cannot determine a coefficient (PrecisionExhausted) ends with a skipped one
naming the window.
``--suite all`` goes on with the next suite.  ``--compute`` exits 0 with its
result printed, 1 with the exception of ``FAILURES`` it raised, 2 as above.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .fock import (
    E_inverse,
    E_map,
    FockVector,
    NotSymmetric,
    SpElement,
    UElement,
    adjoint_failures,
    bracket_TT_probes,
    conj_tensor,
    ebar_monomial,
    fock_basis,
    inner_product,
    normal_order_tensor,
    rho_apply,
    rho_vector,
    standard_space,
    sym2F_tensor,
    tau,
    tau_hat,
    tau_hat_wrt_complement,
)
from .geometry import (
    build_model,
    closure_falsifier,
    curve_fock_data,
    wzw_gram,
    wzw_gram_entries,
)
from .hodge import THEOREM31_STATEMENTS, modular_family, siegel_family, theorem31_checks
from .laurent import Derivation, LaurentSeries, PrecisionExhausted, format_series
from .linalg import ExactMatrix
from .oscillator import OscFockVector, module_commutator_sweep, tau_hat_Dk, virasoro_bracket, virasoro_sweep
from .reports import SuiteReport
from .scalars import GaussianRational, IdentityFailed
from .subalgebra import (
    KMinusVector,
    NoIsotropicLift,
    NotScalar,
    build_quotient,
    compute_perp,
    genus0_subalgebra,
    scalar_action,
)

DEFAULT_SEED = 20240808
CURVE = [0, -1, 0, 1]  # y^2 = x^3 - x


# -- helpers ------------------------------------------------------------------


def _seeded_sym_tensor(space, rng, size=None, f_stable=False):
    """A seeded symmetric matrix with entries in [-3, 3]; with f_stable it is
    zero on F' x F' (drawing nothing there), so its E-image maps F into F."""
    n = size if size is not None else 2 * space.g
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if f_stable and i >= space.g and j >= space.g:
                continue
            v = rng.randint(-3, 3)
            c[i][j] += v
            c[j][i] += v
    return ExactMatrix(c)


def _bracket_entries(xs, ys, n):
    """The nonzero (row * n + col, entry) of A B - B A, in row-major order,
    for n x n matrices A and B given by their nonzero (row, col, entry)."""
    acc = {}
    for left, right, sign in ((xs, ys, 1), (ys, xs, -1)):
        for r, k, a in left:
            for k2, c, b in right:
                if k == k2:
                    acc[r * n + c] = acc.get(r * n + c, 0) + sign * (a * b)
    return tuple((rc, v) for rc, v in sorted(acc.items()) if v)


def _tau_failure(sp):
    """The first ordered pair (A, B), in row-major order over the span of
    the E(e_a e_b + e_b e_a), with [tau(A), tau(B)] != tau([A, B]), or None.
    The pairs are grouped by the nonzero entries of their bracket, formed
    from the at most two nonzero entries of each operand; each group builds
    tau of that bracket once and is released when it is checked."""
    units = [(sp.basis_vector(la), sp.basis_vector(lb)) for la in sp.labels() for lb in sp.labels() if la <= lb]
    span = [E_map(sp, ExactMatrix([[a * y + b * x for x, y in zip(u, v)] for a, b in zip(u, v)])) for u, v in units]
    taus = [tau(sp, x) for x in span]
    support = [[(r, c, v) for r, row in enumerate(x.matrix.rows) for c, v in enumerate(row) if v] for x in span]
    n, groups = 2 * sp.g, {}  # the nonzero (row * n + col, entry) of [A, B] -> its pairs
    for i, xs in enumerate(support):
        for j, ys in enumerate(support):
            groups.setdefault(_bracket_entries(xs, ys, n), []).append((i, j))
    first, dom = None, span[0].matrix.domain  # every bracket's domain
    while groups:  # popping frees each group's pairs once they are checked
        entries, pairs = groups.popitem()
        z = dict(entries)
        bracket = ExactMatrix._over([[z.get(r * n + c, dom.zero) for c in range(n)] for r in range(n)], dom)
        tau_z = tau(sp, SpElement(sp, bracket, check=False))
        for i, j in pairs:
            if taus[i].bracket(taus[j]) != tau_z:
                first = min(first or (i, j), (i, j))
                break
    return first and (span[first[0]], span[first[1]])


# -- suites ---------------------------------------------------------------------


FOCK_BASICS = {
    "01-e-roundtrip": "E and E^{-1} are mutually inverse on Sym^2 H",
    "02-normal-order-projector": "normal ordering is an idempotent projector",
    "03-heisenberg": "rho(a)rho(b) - rho(b)rho(a) = (a,b) id",
    "04-tau-homomorphism": "[tau(A), tau(B)] = tau([A,B]) on a spanning set",
    "05-tau-hat-deviation": "tau^(A) - tau(A) = -1/2 trace(A^{F'})",
    "06-vacuum-annihilation": "tau^(A) v_o = 0 when A(F) in F",
    "07-complement-independence": "tau^ of an F-stabilizer does not depend on F'",
    "08-positive-definite": "inner-product Gram minors positive on grades <= 4",
}


def suite_fock_basics(g, seed):
    if g < 1:
        raise ValueError(f"g must be at least 1, got {g}")
    rng = random.Random(seed)
    fail = {}  # check -> its first failing case
    for k in range(1, g + 1):
        sp = standard_space(k)
        for _ in range(3):
            a = E_map(sp, _seeded_sym_tensor(sp, rng))
            if E_map(sp, E_inverse(sp, a)).matrix != a.matrix:
                fail.setdefault("01-e-roundtrip", f"g={k}, A={a.matrix}")
            t = _seeded_sym_tensor(sp, rng)
            no = normal_order_tensor(sp, t)
            if normal_order_tensor(sp, no) != no:
                fail.setdefault("02-normal-order-projector", f"g={k}, C={t}")
        probes = [(key, FockVector.basis(sp, key)) for key in fock_basis(sp, 2)]
        # rho(e_b) v once per (label, probe): the inner factor of every bracket
        first = {lb: [rho_vector(sp, sp.basis_vector(lb), v) for _, v in probes] for lb in sp.labels()}
        for la in sp.labels():
            for lb in sp.labels():
                a, b = sp.basis_vector(la), sp.basis_vector(lb)
                for (key, v), bv, av in zip(probes, first[lb], first[la]):
                    lhs = rho_vector(sp, a, bv) - rho_vector(sp, b, av)
                    if lhs != v.scale(sp.pairing_labels(la, lb)):
                        fail.setdefault("03-heisenberg", f"g={k}, a=e_{la}, b=e_{lb}, v={key}")
        if pair := _tau_failure(sp):
            fail.setdefault("04-tau-homomorphism", f"g={k}, A={pair[0].matrix}, B={pair[1].matrix}")
        for _ in range(3):
            a = E_map(sp, _seeded_sym_tensor(sp, rng))
            dev = tau_hat(sp, a) - tau(sp, a)
            if dev != UElement.monomial(sp, [], coeff=a.trace_on_complement() * Fraction(-1, 2)):
                fail.setdefault("05-tau-hat-deviation", f"g={k}, A={a.matrix}: tau^(A) - tau(A) = {dev}")
        a = E_map(sp, _seeded_sym_tensor(sp, rng, f_stable=True))
        if image := rho_apply(tau_hat(sp, a), FockVector.vacuum(sp)):
            fail.setdefault("06-vacuum-annihilation", f"g={k}, A={a.matrix}: tau^(A) v_o = {image}")
        s = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        for i in range(k):
            for j in range(k):
                s[i][j] = s[j][i]
        complement = []
        for i in range(1, k + 1):
            w = sp.basis_vector(-i)
            for j in range(1, k + 1):
                w[sp.pos(j)] = w[sp.pos(j)] + Fraction(i) * s[i - 1][j - 1]
            complement.append(w)
        if tau_hat_wrt_complement(sp, a, complement) != tau_hat(sp, a):
            fail.setdefault("07-complement-independence", f"g={k}, A={a.matrix}, F'={complement}")
        by_grade = {}
        for key in fock_basis(sp, 4):
            by_grade.setdefault(len(key), []).append(key)
        for grade, keys in by_grade.items():
            gram = ExactMatrix(
                [[inner_product(FockVector.basis(sp, x), FockVector.basis(sp, y)) for y in keys] for x in keys]
            )
            for minor in gram.leading_principal_minors():
                minor = GaussianRational.coerce(minor)
                if not (minor.is_real and minor.re > 0):
                    fail.setdefault("08-positive-definite", f"g={k}, grade {grade}: leading minor {minor}")
    for check, statement in FOCK_BASICS.items():
        yield f"fock-basics.{check}", statement, check not in fail, fail.get(check)


ADJOINT = {
    "01-mode-adjoint": "<rho(a)v, w> = <v, rho(sqrt(-1) conj a) w>",
    "02-skew-hermitian": "rho(s + conj s) is an infinitesimal unitary transformation",
    "03-quadratic-bracket": "[rho(conj alpha), rho(beta)] = E(conj alpha)E(beta) + 1/2 trace",
}


def suite_adjoint(g, grade, seed):
    if g < 1 or grade < 1:
        raise ValueError(f"g and grade must be at least 1, got g={g}, grade={grade}")
    rng = random.Random(seed)
    fail = {}  # check -> its first failing case
    for k in range(1, g + 1):
        sp = standard_space(k)
        keys = fock_basis(sp, grade if k == 1 else min(grade, 3))
        vectors = [FockVector.basis(sp, key) for key in keys]
        pairs = [(i, j) for i, kv in enumerate(keys) for j, kw in enumerate(keys) if abs(len(kv) - len(kw)) == 1]
        for a in sp.labels():
            for i, j in adjoint_failures(sp, sp.basis_vector(a), vectors, vectors, pairs):
                fail.setdefault("01-mode-adjoint", f"g={k}, a=e_{a}, v={keys[i]}, w={keys[j]}")
        c = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                c[i][j] = c[j][i] = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        s_t = sym2F_tensor(sp, ExactMatrix(c))
        u = UElement.from_tensor(sp, s_t) + UElement.from_tensor(sp, conj_tensor(sp, s_t))
        small = [(key, FockVector.basis(sp, key)) for key in fock_basis(sp, min(grade, 3))]
        images = [rho_apply(u, v) for _, v in small]
        for (kv, v), uv in zip(small, images):
            for (kw, w), uw in zip(small, images):
                if inner_product(uv, w) + inner_product(v, uw):
                    fail.setdefault("02-skew-hermitian", f"g={k}, s={ExactMatrix(c)}, v={kv}, w={kw}")
        bracket_keys = fock_basis(sp, grade)[:10]
        bracket_probes = [FockVector.basis(sp, key) for key in bracket_keys]
        for _ in range(3):
            c1 = _seeded_sym_tensor(sp, rng, size=k)
            c2 = _seeded_sym_tensor(sp, rng, size=k)
            certified = bracket_TT_probes(sp, c1, c2, bracket_probes)[2]
            for key, ok in zip(bracket_keys, certified):
                if not ok:
                    fail.setdefault("03-quadratic-bracket", f"g={k}, key={key}")
    for check, statement in ADJOINT.items():
        yield f"adjoint.{check}", statement, check not in fail, fail.get(check)


def suite_virasoro(kmax, grade):
    if kmax < 1 or grade < 0:
        raise ValueError(f"kmax must be at least 1 and grade at least 0, got kmax={kmax}, grade={grade}")
    failures = virasoro_sweep(kmax, grade)
    wit = None
    if failures:
        k, l, key = failures[0]
        wit = f"Virasoro identity failed for (k,l)=({k},{l}) on {key}; {len(failures)} failing (k,l,probe)"
    yield "virasoro.01-cocycle", "[T(D_k), T(D_l)] = (l-k) T(D_{k+l}) + (k^3-k)/12 delta_{k+l,0}", not failures, wit
    try:
        _, central = virasoro_bracket(2, -2, probe_grade=min(grade, 5))
        wit = str(central)
    except IdentityFailed as exc:
        central, wit = None, str(exc)
    yield "virasoro.02-spot-central", "central term at (k,l) = (2,-2) equals 1/2", central == Fraction(1, 2), wit
    ops = {k: tau_hat_Dk(k) for k in range(-4, 5)}
    comm_failures = module_commutator_sweep(ops, [m for m in range(-4, 5) if m], min(grade, 5))
    wit = None
    if comm_failures:
        k, m, key = comm_failures[0]
        wit = f"[T(D_{k}), t^{m}] != D_{k}(t^{m}) on {key}; {len(comm_failures)} failing (k,m,probe)"
    yield "virasoro.03-module-commutator", "[T(D), f] = D(f) on the Fock module", not comm_failures, wit
    vacuum = OscFockVector.vacuum()
    images = ((k, tau_hat_Dk(k).apply(vacuum)) for k in range(1, kmax + 1))
    wit = next((f"T(D_{k}) v_0 = {image}" for k, image in images if image), None)
    yield "virasoro.04-positive-order-vacuum", "T(D) v_0 = 0 for D of positive order", wit is None, wit


def _ft4_verdict(record, name):
    """(ok, witness) of the FT4 flags certify recorded for derivation name: a
    False flag fails, a None flag (nothing certified) is skipped, naming it."""
    names = ("preserves_A", "maps_perp_to_A")
    flags = [record["ft4"][name][flag] for flag in names]
    undecided = [flag for flag, value in zip(names, flags) if value is None]
    if False in flags or not undecided:
        return False not in flags, None
    return "skipped", f"FT4 for {name}: nothing certified for {' and '.join(undecided)}"


def suite_fock_type(window, bound):
    sub = genus0_subalgebra(window=window, degree_bound=bound)
    perp = compute_perp(sub, -bound, bound + 1)
    yield (
        "fock-type.01-genus0-perp",
        "for the one-point rational model, A-perp/A has rank 0",
        sub.quotient_rank() == 0 and all(sub.member(f) is True for f in perp),
    )
    record = sub.certify(derivations={"D1": Derivation.D(1)}, perp_reps=perp)
    yield (
        "fock-type.02-certificates",
        "FT2 (A cap O = R, finite corank) and FT3 (isotropy) hold exactly",
        record["ft2"]["A_cap_O_is_R"] and record["ft3"],
    )
    yield "fock-type.03-ft4", "D_1 preserves A and maps A-perp into A", *_ft4_verdict(record, "D1")
    lam = scalar_action(Derivation.D(1), build_quotient(sub), [KMinusVector.vacuum()])
    yield (
        "fock-type.04-scalar-action",
        "the induced action on the rank-0 covariant space is the scalar 0",
        lam == 0,
        str(lam),
    )


def suite_hyperelliptic(f, g, N):
    if g < 1:
        raise ValueError(f"g must be at least 1, got {g}")
    check = "hyperelliptic.01-model", "y(t)^2 = f(x(t)) and u(0) = 1 within the window"
    try:
        model = build_model(f, g, N)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
    except IdentityFailed as exc:
        yield *check, False, str(exc)
        return
    yield *check, True
    sub = data.subalgebra()
    record = sub.certify(
        derivations={"tangent": model.tangent_field()},
        perp_reps=list(data.phis.values()),
    )
    ft4, undecided = _ft4_verdict(record, "tangent")
    ok = bool(
        record["ft1_surrogate"]["products_in_A"]
        and record["ft2"]["A_cap_O_is_R"]
        and record["ft2"]["quotient_rank"] == g
        and record["ft3"]
    ) and ft4
    yield (
        "hyperelliptic.02-fock-type",
        "A_p passes the FT certificates (rank g corank, isotropy, FT4 for the tangent field)",
        ok,
        undecided if ok == "skipped" else json.dumps(record, default=str),
        record,
    )
    rg = data.residue_gram_mod_A()
    phis = sorted(data.phis)
    iso = all(
        not rg[i, j]
        for i, ki in enumerate(phis)
        for j, kj in enumerate(phis)
        if ki >= 1 and kj >= 1
    )
    yield (
        "hyperelliptic.04-residue-gram",
        "the residue Gram on B_p/A_p is nondegenerate with isotropic holomorphic part",
        bool(rg.det()) and (rg + rg.transpose()).is_zero() and iso,
    )
    witness = closure_falsifier(model, data)
    if witness is None:
        yield (
            "hyperelliptic.05-nonclosure",
            "K^- is not multiplicatively closed (bounded search)",
            "skipped",
            "no witness within the search bound",
        )
    else:
        witness2 = closure_falsifier(build_model(f, g, N + 10))
        keys = ("left", "right", "remainder_order", "remainder_leading")
        yield (
            "hyperelliptic.05-nonclosure",
            "K^- is not multiplicatively closed; the witness survives window growth N -> N+10",
            witness2 is not None and all(witness2[k] == witness[k] for k in keys),
            json.dumps(witness, default=str),
        )
    # 03 and 06 read the quotient: a failed quotient certificate ends the run after 04 and 05
    q = build_quotient(sub)
    gram = q.gram()
    idx = list(range(-g, 0)) + list(range(1, g + 1))
    yield "hyperelliptic.03-quotient", "A-perp/A is free of rank 2g with Gram i delta_{i+j,0}", q.g == g and all(
        gram.rows[a][b] == (i if i + j == 0 else 0) for a, i in enumerate(idx) for b, j in enumerate(idx)
    )
    probes = [KMinusVector.vacuum(), KMinusVector({(("q", 1),): 1}), KMinusVector({(("q", 1), ("q", 1)): 1})]
    if g >= 2:
        probes.append(KMinusVector({(("q", 2),): 1}))
    try:
        scalar_action(model.tangent_field(), q, probes)
        witness = None
    except NotScalar as exc:
        witness = str(exc)
    yield (
        "hyperelliptic.06-covariant-scalar",
        "a vertical derivation preserving A_p acts on covariants by a probe-independent scalar",
        witness is None,
        witness,
    )


def suite_connection(grade):
    if grade < 0:
        raise ValueError(f"grade must be at least 0, got {grade}")
    for name, fam, gr in (
        ("modular", modular_family(), grade),
        ("siegel-block", siegel_family(), min(grade, 4)),
    ):
        try:
            for check, holds, witness in theorem31_checks(fam, gr):
                yield f"connection.{name}.{check}", f"[{name}] {THEOREM31_STATEMENTS[check]}", holds, witness
        except IdentityFailed as exc:  # a certificate below the curvature statement failed
            yield f"connection.{name}.identity", f"[{name}] curvature identities", False, str(exc)


WZW_GRAM = {
    "01-symmetric": "M_ij = res(<D,omega_i> omega_j)/(ij) is symmetric for every vertical D tested",
    "02-sign-identity": "res(e_j d(D e_i)) = -i j res(<D,omega_i> omega_j) entrywise (de_j = j omega_j)",
    "03-zero": "the Gram of the zero derivation vanishes",
}


def suite_wzw_gram(f, g, N, seed):
    if g < 1:
        raise ValueError(f"g must be at least 1, got {g}")
    model = build_model(f, g, N)
    rng = random.Random(seed)
    derivations = {
        "tangent-field": model.tangent_field(),
        "D_2": Derivation.D(2),
        "seeded": Derivation.from_series(
            LaurentSeries.from_terms({k: rng.randint(-3, 3) for k in range(-2, 7)}, N - 6)
        ),
    }
    fail = {}  # check -> its first failing case
    for name, d in derivations.items():
        m, sign = wzw_gram_entries(model, d)
        for i, j in ((i, j) for i in range(g) for j in range(i + 1, g) if m[i, j] != m[j, i]):
            fail.setdefault("01-symmetric", f"{name}: M[{i + 1},{j + 1}] = {m[i, j]} != M[{j + 1},{i + 1}] = {m[j, i]}")
        if sign is not None:
            fail.setdefault("02-sign-identity", f"{name}: {sign}")
    m, _ = wzw_gram_entries(model, Derivation.from_series(LaurentSeries.zero(N)))
    if not m.is_zero():
        fail["03-zero"] = f"M = {m}"
    for check, statement in WZW_GRAM.items():
        yield f"wzw-gram.{check}", statement, check not in fail, fail.get(check)


# name -> (suite, {parameter: default}); a default's type is the parameter's.
SUITES = {
    "fock-basics": (suite_fock_basics, {"g": 3, "seed": DEFAULT_SEED}),
    "adjoint": (suite_adjoint, {"g": 3, "grade": 4, "seed": DEFAULT_SEED}),
    "virasoro": (suite_virasoro, {"kmax": 6, "grade": 8}),
    "fock-type": (suite_fock_type, {"window": 24, "bound": 10}),
    "hyperelliptic": (suite_hyperelliptic, {"f": CURVE, "g": 1, "N": 44}),
    "connection": (suite_connection, {"grade": 4}),
    "wzw-gram": (suite_wzw_gram, {"f": CURVE, "g": 1, "N": 44, "seed": DEFAULT_SEED}),
}

# The runs of --suite all: (suite, parameters fixed over the caller's, id
# suffix).  hyperelliptic runs on the two shipped curves, told apart by genus;
# wzw-gram also runs at g = 2, the least genus whose Gram can be asymmetric.
ALL = [(name, {}, "") for name in SUITES if name != "hyperelliptic"] + [
    ("hyperelliptic", {"f": CURVE, "g": 1, "N": 52}, ".g1"),
    ("hyperelliptic", {"f": [0, -1, 0, 0, 0, 1], "g": 2, "N": 60}, ".g2"),
    ("wzw-gram", {"f": [0, -1, 0, 0, 0, 1], "g": 2, "N": 60}, ".g2"),
]


# A suite or computation that raises one of these has found a false identity.
FAILURES = (IdentityFailed, NoIsotropicLift, NotScalar, NotSymmetric)


def _exact(c) -> Fraction:
    """A curve coefficient: an int, a Fraction or a string that Fraction reads
    exactly ("1/2"); a float or a bool is not exact and is a TypeError."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, str)):
        raise TypeError
    return Fraction(c)


def _resolve(defaults: dict, params: dict) -> dict:
    """The table's parameters, each the caller's value or its default.  A
    value must have its default's type (a bool is not an int, nor is a float);
    a list (the curve f) becomes a list of Fractions, one per exact
    coefficient.  Any other value is a ValueError."""
    out = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        try:
            if isinstance(default, list) and isinstance(value, list):
                out[key] = [_exact(c) for c in value]
            elif type(value) is type(default):
                out[key] = value
            else:
                raise TypeError
        except (TypeError, ValueError):
            raise ValueError(f"parameter {key} cannot take the value {value!r}") from None
    return out


def run_suite(name: str, params: dict | None = None) -> SuiteReport:
    """Run one suite of SUITES (KeyError for a name not there), or every run
    of ALL for "all", and turn its checks into the records of one report."""
    params = dict(params or {})
    runs = [
        (sub, _resolve(SUITES[sub][1], {**params, **fixed}), suffix)
        for sub, fixed, suffix in (ALL if name == "all" else [(name, {}, "")])
    ]
    rep = SuiteReport(name, {"seed": params.get("seed", DEFAULT_SEED)} if name == "all" else runs[0][1])
    start = time.monotonic()
    for sub, kwargs, suffix in runs:
        try:
            for check, statement, *verdict in SUITES[sub][0](**kwargs):
                rep.add(check + suffix, statement, *verdict)
        except (PrecisionExhausted, *FAILURES) as exc:
            # an undecided window is skipped; a false identity fails
            status = "skipped" if isinstance(exc, PrecisionExhausted) else False
            statement = "every identity certified while the suite runs holds within its window"
            rep.add(f"{sub}.run{suffix}", statement, status, f"{type(exc).__name__}: {exc}")
    rep.wall_time = time.monotonic() - start
    return rep


# -- compute commands ------------------------------------------------------------


def _parse_ebar_monomial(space, text: str):
    if space.g < 1:
        raise ValueError(f"g must be at least 1, got {space.g}")
    indices = []
    for tok in text.replace(",", " ").split():
        for prefix in ("ē", "ebar", "eb"):
            if tok.startswith(prefix):
                indices.append(int(tok[len(prefix):]))
                break
        else:
            raise ValueError(f"cannot parse generator {tok!r}; use ē1 / ebar1 / eb1")
        if not 1 <= indices[-1] <= space.g:
            raise ValueError(f"generator {tok!r} is not one of ē1 .. ē{space.g}")
    return ebar_monomial(space, indices)


def compute_inner_product(g, v, w):
    sp = standard_space(g)
    return str(inner_product(_parse_ebar_monomial(sp, v), _parse_ebar_monomial(sp, w)))


def compute_tau_hat(k, grade):
    lines = [f"  ({c}) * :e_{{{a}}} e_{{{b}}}:" for a, b, c in tau_hat_Dk(k).monomials_for_grade(k, grade)]
    return "\n".join([f"tau_hat(D_{k}) monomials acting on grades <= {grade}:"] + lines)


def compute_wzw_gram(f, g, N):
    model = build_model(f, g, N)
    return f"prefactor: pi*sqrt(-1)\nGram (tangent field): {wzw_gram(model, model.tangent_field())}"


def compute_phi_basis(f, g, N):
    model = build_model(f, g, N)
    return "\n".join(f"phi_{2 * i - 1} = {format_series(model.phi(i))}" for i in range(1 - g, g + 1))


def compute_quotient_basis(f, g, N):
    data = curve_fock_data(build_model(f, g, N), degree_bound=4 * g + 4)
    q = build_quotient(data.subalgebra())
    lines = [f"e_{-i} = {format_series(e)}" for i, e in enumerate(q.neg_lifts, start=1)]
    lines += [f"e_{i} = {format_series(e)}" for i, e in enumerate(q.pos_lifts, start=1)]
    return "\n".join(lines)


# name -> (computation, {parameter: default}), resolved as SUITES are.
COMPUTATIONS = {
    "inner-product": (compute_inner_product, {"g": 1, "v": "eb1", "w": "eb1"}),
    "tau-hat": (compute_tau_hat, {"k": 2, "grade": 3}),
    "wzw-gram": (compute_wzw_gram, {"f": CURVE, "g": 1, "N": 44}),
    "phi-basis": (compute_phi_basis, {"f": CURVE, "g": 1, "N": 44}),
    "quotient-basis": (compute_quotient_basis, {"f": CURVE, "g": 1, "N": 44}),
}


def compute(name: str, params: dict | None = None) -> str:
    fn, defaults = COMPUTATIONS[name]
    return fn(**_resolve(defaults, params or {}))


# -- entry point -------------------------------------------------------------------


def _parse_params(pairs, seed, prec):
    """The run parameters of --param, --seed (seed) and --prec (N); a
    parameter given a value by two of them is a ValueError naming both."""
    params, source = {}, {}

    def put(key, value, flag):
        if key in source:
            raise ValueError(f"parameter {key} is given twice: {source[key]} and {flag}")
        params[key], source[key] = value, flag

    for pair in pairs or ():
        key, _, value = pair.partition("=")
        if not _ or not key:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        put(key, value, f"--param {pair}")
    if seed is not None:
        put("seed", seed, f"--seed {seed}")
    if prec is not None:
        put("N", prec, f"--prec {prec}")
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="exact verification suites for Fock representations, "
        "oscillator algebras and the projectively flat Fock connection",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=[*SUITES, "all"])
    group.add_argument("--compute", choices=list(COMPUTATIONS))
    parser.add_argument("--param", action="append", metavar="KEY=VALUE")
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--prec", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        params = _parse_params(args.param, args.seed, args.prec)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    name = args.compute or args.suite
    table = COMPUTATIONS if args.compute else SUITES
    runs = ALL if name == "all" else [(name, {}, "")]
    read = {key for sub, fixed, _ in runs for key in table[sub][1] if key not in fixed}
    given = {pair.partition("=")[0] for pair in args.param or ()}
    unread = [f"--param {key}" for key in sorted(given - read)]
    unread += [flag for flag, key, value in (("--seed", "seed", args.seed), ("--prec", "N", args.prec))
               if value is not None and key not in read]
    if unread:
        print(f"invalid parameters: no run of {name} reads {', '.join(unread)} "
              f"(it reads {', '.join(sorted(read))})", file=sys.stderr)
        return 2
    try:
        if args.compute:
            print(compute(args.compute, params))
            return 0
        report = run_suite(args.suite, params)
    except FAILURES as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2

    print(report.render_text())
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(report.to_json_bytes())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
