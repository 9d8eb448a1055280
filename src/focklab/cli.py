"""Batch verification suites and example computations.

A suite is a generator of ``CheckRecord``s.  A record passes until
``fail(witness)`` or ``skip(witness)``: a failure outranks a skip, and the
record keeps the first witness of its final status.  The connection suite
yields the records of ``hodge.theorem31_checks`` with the family prefixed
to each id and statement.  Only ``run_suite``
resolves parameters (the ``SUITES`` table), suffixes the ids of ``ALL``,
writes the report and times the run.  Every suite is deterministic given
its parameters and seed.

Exit codes, one rule: 0 every check that is not skipped passes, 1 a check
fails, 2 bad input: a usage error, or InvalidParameters, raised only where
the caller's input is read (an unread ``--param`` key, ``--seed`` or
``--prec``, a parameter given twice or of the wrong type, a range that leaves
a suite nothing to check, a curve with no model).  Any other ValueError,
ArithmeticError or AssertionError a run raises ends it with one
``<suite>.run`` record, witness ``Type: message``: skipped if the window
cannot determine a coefficient (PrecisionExhausted), else failed; ``--suite
all`` goes on with the next run.  ``--compute`` exits 0 with its result, 2
on bad input or a window too short, and 1 with ``Type: message`` otherwise.
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
from .hodge import modular_family, siegel_family, theorem31_checks
from .laurent import Derivation, LaurentSeries, PrecisionExhausted, format_series
from .linalg import ExactMatrix
from .oscillator import OscFockVector, module_commutator_sweep, tau_hat_Dk, virasoro_bracket, virasoro_sweep
from .reports import CheckRecord, SuiteReport
from .scalars import GaussianRational, IdentityFailed, InvalidParameters
from .subalgebra import (
    KMinusVector,
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
        raise InvalidParameters(f"g must be at least 1, got {g}")
    rng = random.Random(seed)
    checks = {name: CheckRecord(f"fock-basics.{name}", statement) for name, statement in FOCK_BASICS.items()}
    for k in range(1, g + 1):
        sp = standard_space(k)
        for _ in range(3):
            a = E_map(sp, _seeded_sym_tensor(sp, rng))
            if E_map(sp, E_inverse(sp, a)).matrix != a.matrix:
                checks["01-e-roundtrip"].fail(f"g={k}, A={a.matrix}")
            t = _seeded_sym_tensor(sp, rng)
            no = normal_order_tensor(sp, t)
            if normal_order_tensor(sp, no) != no:
                checks["02-normal-order-projector"].fail(f"g={k}, C={t}")
        probes = [(key, FockVector.basis(sp, key)) for key in fock_basis(sp, 2)]
        # rho(e_b) v once per (label, probe): the inner factor of every bracket
        first = {lb: [rho_vector(sp, sp.basis_vector(lb), v) for _, v in probes] for lb in sp.labels()}
        for la in sp.labels():
            for lb in sp.labels():
                a, b = sp.basis_vector(la), sp.basis_vector(lb)
                for (key, v), bv, av in zip(probes, first[lb], first[la]):
                    lhs = rho_vector(sp, a, bv) - rho_vector(sp, b, av)
                    if lhs != v.scale(sp.pairing_labels(la, lb)):
                        checks["03-heisenberg"].fail(f"g={k}, a=e_{la}, b=e_{lb}, v={key}")
        if pair := _tau_failure(sp):
            checks["04-tau-homomorphism"].fail(f"g={k}, A={pair[0].matrix}, B={pair[1].matrix}")
        for _ in range(3):
            a = E_map(sp, _seeded_sym_tensor(sp, rng))
            dev = tau_hat(sp, a) - tau(sp, a)
            if dev != UElement.monomial(sp, [], coeff=a.trace_on_complement() * Fraction(-1, 2)):
                checks["05-tau-hat-deviation"].fail(f"g={k}, A={a.matrix}: tau^(A) - tau(A) = {dev}")
        a = E_map(sp, _seeded_sym_tensor(sp, rng, f_stable=True))
        if image := rho_apply(tau_hat(sp, a), FockVector.vacuum(sp)):
            checks["06-vacuum-annihilation"].fail(f"g={k}, A={a.matrix}: tau^(A) v_o = {image}")
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
            checks["07-complement-independence"].fail(f"g={k}, A={a.matrix}, F'={complement}")
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
                    checks["08-positive-definite"].fail(f"g={k}, grade {grade}: leading minor {minor}")
    yield from checks.values()


ADJOINT = {
    "01-mode-adjoint": "<rho(a)v, w> = <v, rho(sqrt(-1) conj a) w>",
    "02-skew-hermitian": "rho(s + conj s) is an infinitesimal unitary transformation",
    "03-quadratic-bracket": "[rho(conj alpha), rho(beta)] = E(conj alpha)E(beta) + 1/2 trace",
}


def suite_adjoint(g, grade, seed):
    if g < 1 or grade < 1:
        raise InvalidParameters(f"g and grade must be at least 1, got g={g}, grade={grade}")
    rng = random.Random(seed)
    checks = {name: CheckRecord(f"adjoint.{name}", statement) for name, statement in ADJOINT.items()}
    for k in range(1, g + 1):
        sp = standard_space(k)
        keys = fock_basis(sp, grade if k == 1 else min(grade, 3))
        vectors = [FockVector.basis(sp, key) for key in keys]
        pairs = [(i, j) for i, kv in enumerate(keys) for j, kw in enumerate(keys) if abs(len(kv) - len(kw)) == 1]
        for a in sp.labels():
            for i, j in adjoint_failures(sp, sp.basis_vector(a), vectors, vectors, pairs):
                checks["01-mode-adjoint"].fail(f"g={k}, a=e_{a}, v={keys[i]}, w={keys[j]}")
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
                    checks["02-skew-hermitian"].fail(f"g={k}, s={ExactMatrix(c)}, v={kv}, w={kw}")
        bracket_keys = fock_basis(sp, grade)[:10]
        bracket_probes = [FockVector.basis(sp, key) for key in bracket_keys]
        for _ in range(3):
            c1 = _seeded_sym_tensor(sp, rng, size=k)
            c2 = _seeded_sym_tensor(sp, rng, size=k)
            certified = bracket_TT_probes(sp, c1, c2, bracket_probes)[2]
            for key, ok in zip(bracket_keys, certified):
                if not ok:
                    checks["03-quadratic-bracket"].fail(f"g={k}, key={key}")
    yield from checks.values()


def suite_virasoro(kmax, grade):
    if kmax < 1 or grade < 0:
        raise InvalidParameters(f"kmax must be at least 1 and grade at least 0, got kmax={kmax}, grade={grade}")
    rec = CheckRecord("virasoro.01-cocycle", "[T(D_k), T(D_l)] = (l-k) T(D_{k+l}) + (k^3-k)/12 delta_{k+l,0}")
    if failures := virasoro_sweep(kmax, grade):
        k, l, key = failures[0]
        rec.fail(f"Virasoro identity failed for (k,l)=({k},{l}) on {key}; {len(failures)} failing (k,l,probe)")
    yield rec
    rec = CheckRecord("virasoro.02-spot-central", "central term at (k,l) = (2,-2) equals 1/2")
    try:
        _, central = virasoro_bracket(2, -2, probe_grade=min(grade, 5))
    except IdentityFailed as exc:
        central = str(exc)
    yield rec if central == Fraction(1, 2) else rec.fail(str(central))
    rec = CheckRecord("virasoro.03-module-commutator", "[T(D), f] = D(f) on the Fock module")
    ops = {k: tau_hat_Dk(k) for k in range(-4, 5)}
    if failures := module_commutator_sweep(ops, [m for m in range(-4, 5) if m], min(grade, 5)):
        k, m, key = failures[0]
        rec.fail(f"[T(D_{k}), t^{m}] != D_{k}(t^{m}) on {key}; {len(failures)} failing (k,m,probe)")
    yield rec
    rec = CheckRecord("virasoro.04-positive-order-vacuum", "T(D) v_0 = 0 for D of positive order")
    vacuum = OscFockVector.vacuum()
    for k in range(1, kmax + 1):
        if image := tau_hat_Dk(k).apply(vacuum):
            rec.fail(f"T(D_{k}) v_0 = {image}")
    yield rec


def _ft4(rec, record, name):
    """rec, failed on the FT4 flags of derivation name that certify found
    False and skipped on those it left None (nothing certified), naming them."""
    flags = record["ft4"][name]
    for value, verdict, why in ((False, rec.fail, "certified false"), (None, rec.skip, "nothing certified")):
        if named := [flag for flag in ("preserves_A", "maps_perp_to_A") if flags[flag] is value]:
            verdict(f"FT4 for {name}: {why} for {' and '.join(named)}")
    return rec


def suite_fock_type(bound):
    if bound < 0:
        raise InvalidParameters(f"bound must be at least 0, got {bound}")
    sub = genus0_subalgebra(window=bound + 1, degree_bound=bound)
    perp = compute_perp(sub, -bound, bound + 1)
    rec = CheckRecord("fock-type.01-genus0-perp", "for the one-point rational model, A-perp/A has rank 0")
    if rank := sub.quotient_rank():
        rec.fail(f"A-perp/A has rank {rank}")
    elif (f := next((f for f in perp if sub.member(f) is not True), None)) is not None:
        rec.fail(f"perp representative {format_series(f)} is not certified in A")
    yield rec
    record = sub.certify(derivations={"D1": Derivation.D(1)}, perp_reps=perp)
    rec = CheckRecord("fock-type.02-certificates", "FT2 (A cap O = R, finite corank) and FT3 (isotropy) hold exactly")
    ok = record["ft2"]["A_cap_O_is_R"] and record["ft3"]
    yield rec if ok else rec.fail(json.dumps({"ft2": record["ft2"], "ft3": record["ft3"]}))
    yield _ft4(CheckRecord("fock-type.03-ft4", "D_1 preserves A and maps A-perp into A"), record, "D1")
    lam = scalar_action(Derivation.D(1), build_quotient(sub), [KMinusVector.vacuum()])
    rec = CheckRecord("fock-type.04-scalar-action", "the induced action on the rank-0 covariant space is the scalar 0")
    yield rec if lam == 0 else rec.fail(str(lam))


def suite_hyperelliptic(f, g, N):
    if g < 1:
        raise InvalidParameters(f"g must be at least 1, got {g}")
    rec = CheckRecord("hyperelliptic.01-model", "y(t)^2 = f(x(t)) and u(0) = 1 within the window")
    try:
        model = build_model(f, g, N)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
    except IdentityFailed as exc:
        yield rec.fail(str(exc))
        return
    yield rec
    sub = data.subalgebra()
    record = sub.certify(
        derivations={"tangent": model.tangent_field()},
        perp_reps=list(data.phis.values()),
    )
    rec = CheckRecord(
        "hyperelliptic.02-fock-type",
        "A_p passes the FT certificates (rank g corank, isotropy, FT4 for the tangent field)",
        record,
    )
    if not (
        record["ft1_surrogate"]["products_in_A"]
        and record["ft2"]["A_cap_O_is_R"]
        and record["ft2"]["quotient_rank"] == g
        and record["ft3"]
        and False not in (record["ft4"]["tangent"][flag] for flag in ("preserves_A", "maps_perp_to_A"))
    ):
        rec.fail(json.dumps(record, default=str))
    yield _ft4(rec, record, "tangent")
    rg = data.residue_gram_mod_A()
    phis = sorted(data.phis)
    rec = CheckRecord(
        "hyperelliptic.04-residue-gram",
        "the residue Gram on B_p/A_p is nondegenerate with isotropic holomorphic part",
    )
    if not rg.det():
        rec.fail(f"det = 0 for the Gram {rg}")
    for i, ki in enumerate(phis):
        for j, kj in enumerate(phis):
            if rg[i, j] + rg[j, i]:
                rec.fail(f"not antisymmetric at (phi_{ki}, phi_{kj}): {rg[i, j]} and {rg[j, i]}")
            elif ki >= 1 and kj >= 1 and rg[i, j]:
                rec.fail(f"holomorphic part not isotropic at (phi_{ki}, phi_{kj}): {rg[i, j]}")
    yield rec
    rec = CheckRecord("hyperelliptic.05-nonclosure", "K^- is not multiplicatively closed (bounded search)")
    if (witness := closure_falsifier(model, data)) is None:
        yield rec.skip("no witness within the search bound")
    else:
        rec.statement = "K^- is not multiplicatively closed; the witness survives window growth N -> N+10"
        witness2 = closure_falsifier(build_model(f, g, N + 10))
        keys = ("left", "right", "remainder_order", "remainder_leading")
        survives = witness2 is not None and all(witness2[k] == witness[k] for k in keys)
        yield rec if survives else rec.fail(json.dumps(witness, default=str))
    # 03 and 06 read the quotient: a failed quotient certificate ends the run after 04 and 05
    q = build_quotient(sub)
    gram = q.gram()
    idx = list(range(-g, 0)) + list(range(1, g + 1))
    rec = CheckRecord("hyperelliptic.03-quotient", "A-perp/A is free of rank 2g with Gram i delta_{i+j,0}")
    if q.g != g:
        rec.fail(f"A-perp/A has rank {2 * q.g}")
    for a, i in enumerate(idx if q.g == g else ()):
        for b, j in enumerate(idx):
            if gram.rows[a][b] != (i if i + j == 0 else 0):
                rec.fail(f"Gram entry ({i},{j}) is {gram.rows[a][b]}")
    yield rec
    probes = [KMinusVector.vacuum(), KMinusVector({(("q", 1),): 1}), KMinusVector({(("q", 1), ("q", 1)): 1})]
    if g >= 2:
        probes.append(KMinusVector({(("q", 2),): 1}))
    rec = CheckRecord(
        "hyperelliptic.06-covariant-scalar",
        "a vertical derivation preserving A_p acts on covariants by a probe-independent scalar",
    )
    try:
        scalar_action(model.tangent_field(), q, probes)
    except NotScalar as exc:
        rec.fail(str(exc))
    yield rec


def suite_connection(grade):
    if grade < 0:
        raise InvalidParameters(f"grade must be at least 0, got {grade}")
    for name, fam, gr in (
        ("modular", modular_family(), grade),
        ("siegel-block", siegel_family(), min(grade, 4)),
    ):
        try:
            for rec in theorem31_checks(fam, gr):
                rec.id, rec.statement = f"connection.{name}.{rec.id}", f"[{name}] {rec.statement}"
                yield rec
        except IdentityFailed as exc:  # a certificate below the curvature statement failed
            yield CheckRecord(f"connection.{name}.identity", f"[{name}] curvature identities").fail(str(exc))


WZW_GRAM = {
    "01-symmetric": "M_ij = res(<D,omega_i> omega_j)/(ij) is symmetric for every vertical D tested",
    "02-sign-identity": "res(e_j d(D e_i)) = -i j res(<D,omega_i> omega_j) entrywise (de_j = j omega_j)",
    "03-zero": "the Gram of the zero derivation vanishes",
}


def suite_wzw_gram(f, g, N, seed):
    if g < 1:
        raise InvalidParameters(f"g must be at least 1, got {g}")
    model = build_model(f, g, N)
    rng = random.Random(seed)
    derivations = {
        "tangent-field": model.tangent_field(),
        "D_2": Derivation.D(2),
        "seeded": Derivation.from_series(
            LaurentSeries.from_terms({k: rng.randint(-3, 3) for k in range(-2, 7)}, N - 6)
        ),
    }
    checks = {name: CheckRecord(f"wzw-gram.{name}", statement) for name, statement in WZW_GRAM.items()}
    for name, d in derivations.items():
        m, sign = wzw_gram_entries(model, d)
        for i, j in ((i, j) for i in range(g) for j in range(i + 1, g) if m[i, j] != m[j, i]):
            checks["01-symmetric"].fail(f"{name}: M[{i + 1},{j + 1}] = {m[i, j]} != M[{j + 1},{i + 1}] = {m[j, i]}")
        if sign is not None:
            checks["02-sign-identity"].fail(f"{name}: {sign}")
    m, _ = wzw_gram_entries(model, Derivation.from_series(LaurentSeries.zero(N)))
    if not m.is_zero():
        checks["03-zero"].fail(f"M = {m}")
    yield from checks.values()


# name -> (suite, {parameter: default}); a default's type is the parameter's.
SUITES = {
    "fock-basics": (suite_fock_basics, {"g": 3, "seed": DEFAULT_SEED}),
    "adjoint": (suite_adjoint, {"g": 3, "grade": 4, "seed": DEFAULT_SEED}),
    "virasoro": (suite_virasoro, {"kmax": 6, "grade": 8}),
    "fock-type": (suite_fock_type, {"bound": 10}),
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
    coefficient.  Any other value is InvalidParameters."""
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
        except (TypeError, ValueError, ArithmeticError):  # "1/0" is a ZeroDivisionError
            raise InvalidParameters(f"parameter {key} cannot take the value {value!r}") from None
    return out


def run_suite(name: str, params: dict | None = None) -> SuiteReport:
    """Run one suite of SUITES (KeyError for a name not there), or every run
    of ALL for "all", into one report; InvalidParameters propagates, and any
    other exception of the module's rule ends its run with one record."""
    params = dict(params or {})
    runs = [
        (sub, _resolve(SUITES[sub][1], {**params, **fixed}), suffix)
        for sub, fixed, suffix in (ALL if name == "all" else [(name, {}, "")])
    ]
    rep = SuiteReport(name, {"seed": params.get("seed", DEFAULT_SEED)} if name == "all" else runs[0][1])
    start = time.monotonic()
    for sub, kwargs, suffix in runs:
        try:
            for rec in SUITES[sub][0](**kwargs):
                rec.id += suffix
                rep.checks.append(rec)
        except InvalidParameters:
            raise
        except (ValueError, ArithmeticError, AssertionError) as exc:
            # an undecided window is skipped; any other certificate that raises fails
            statement = "every identity certified while the suite runs holds within its window"
            rec = CheckRecord(f"{sub}.run{suffix}", statement)
            verdict = rec.skip if isinstance(exc, PrecisionExhausted) else rec.fail
            rep.checks.append(verdict(f"{type(exc).__name__}: {exc}"))
    rep.wall_time = time.monotonic() - start
    return rep


# -- compute commands ------------------------------------------------------------


def _parse_ebar_monomial(space, text: str):
    indices = []
    for tok in text.replace(",", " ").split():
        prefix = next((p for p in ("ē", "ebar", "eb") if tok.startswith(p)), tok)  # none: int("") refuses
        try:
            indices.append(int(tok[len(prefix):]))
        except ValueError:
            raise InvalidParameters(f"cannot parse generator {tok!r}; use ē1 / ebar1 / eb1") from None
        if not 1 <= indices[-1] <= space.g:
            raise InvalidParameters(f"generator {tok!r} is not one of ē1 .. ē{space.g}")
    return ebar_monomial(space, indices)


def compute_inner_product(g, v, w):
    if g < 1:
        raise InvalidParameters(f"g must be at least 1, got {g}")
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
    parameter given a value by two of them is InvalidParameters naming both."""
    params, source = {}, {}

    def put(key, value, flag):
        if key in source:
            raise InvalidParameters(f"parameter {key} is given twice: {source[key]} and {flag}")
        params[key], source[key] = value, flag

    for pair in pairs or ():
        key, _, value = pair.partition("=")
        if not _ or not key:
            raise InvalidParameters(f"--param expects key=value, got {pair!r}")
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
    except InvalidParameters as exc:
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
    except (InvalidParameters, PrecisionExhausted) as exc:  # only --compute lets a window escape
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, AssertionError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(report.render_text())
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(report.to_json_bytes())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
