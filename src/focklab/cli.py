"""Batch verification suites and example computations.

Every suite is deterministic given its parameters and seed; randomized probes
draw from random.Random(seed) and the seed is echoed in the report.  Exit
codes: 0 all non-skipped checks pass, 1 at least one failure, 2 usage error.
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
    UElement,
    adjoint_check,
    bracket_TT,
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
from .laurent import Derivation, LaurentSeries, format_series
from .linalg import ExactMatrix, IdentityFailed
from .oscillator import (
    OscFockVector,
    osc_basis,
    series_multiply,
    tau_hat_Dk,
    virasoro_bracket,
    virasoro_sweep,
)
from .reports import SuiteReport
from .scalars import GaussianRational
from .subalgebra import (
    KMinusVector,
    NotScalar,
    build_quotient,
    compute_perp,
    genus0_subalgebra,
    in_span,
    scalar_action,
)

DEFAULT_SEED = 20240808


# -- helpers ------------------------------------------------------------------


def _seeded_sym_tensor(space, rng, size=None):
    n = size if size is not None else 2 * space.g
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-3, 3)
            c[i][j] += v
            c[j][i] += v
    return ExactMatrix(c)


def _f_stable_sp(space, rng):
    g = space.g
    n = 2 * g
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i >= g and j >= g:
                continue
            v = rng.randint(-3, 3)
            c[i][j] += v
            c[j][i] += v
    return E_map(space, ExactMatrix(c))


# -- suites ---------------------------------------------------------------------


def suite_fock_basics(params) -> SuiteReport:
    gmax = int(params.get("g", 3))
    seed = int(params.get("seed", DEFAULT_SEED))
    rep = SuiteReport("fock-basics", {"g": gmax, "seed": seed})
    rng = random.Random(seed)

    ok_round, ok_no, ok_heis, ok_hom, ok_dev, ok_kill, ok_comp, ok_pos = (
        True, True, True, True, True, True, True, True,
    )
    witness = {}
    for g in range(1, gmax + 1):
        sp = standard_space(g)
        for _ in range(3):
            a = E_map(sp, _seeded_sym_tensor(sp, rng))
            if E_map(sp, E_inverse(sp, a)).matrix != a.matrix:
                ok_round = False
            t = _seeded_sym_tensor(sp, rng)
            no = normal_order_tensor(sp, t)
            if normal_order_tensor(sp, no) != no:
                ok_no = False
        for la in sp.labels():
            for lb in sp.labels():
                for key in fock_basis(sp, 2):
                    v = FockVector.basis(sp, key)
                    lhs = rho_vector(sp, sp.basis_vector(la), rho_vector(sp, sp.basis_vector(lb), v)) - rho_vector(
                        sp, sp.basis_vector(lb), rho_vector(sp, sp.basis_vector(la), v)
                    )
                    if lhs != v.scale(sp.pairing_labels(la, lb)):
                        ok_heis = False
        span = []
        for la in sp.labels():
            for lb in sp.labels():
                if (la, lb) <= (lb, la):
                    n = 2 * g
                    c = [[0] * n for _ in range(n)]
                    c[sp.pos(la)][sp.pos(lb)] += 1
                    c[sp.pos(lb)][sp.pos(la)] += 1
                    span.append(E_map(sp, ExactMatrix(c)))
        for x in span:
            for y in span:
                if tau(sp, x).bracket(tau(sp, y)) != tau(sp, x.bracket(y)):
                    ok_hom = False
                    witness["hom"] = f"g={g}"
        for _ in range(3):
            a = E_map(sp, _seeded_sym_tensor(sp, rng))
            dev = tau_hat(sp, a) - tau(sp, a)
            want = UElement.monomial(sp, [], coeff=a.trace_on_complement() * Fraction(-1, 2))
            if dev != want:
                ok_dev = False
        a = _f_stable_sp(sp, rng)
        if rho_apply(tau_hat(sp, a), FockVector.vacuum(sp)):
            ok_kill = False
        s = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
        for i in range(g):
            for j in range(g):
                s[i][j] = s[j][i]
        complement = []
        for i in range(1, g + 1):
            w = sp.basis_vector(-i)
            for j in range(1, g + 1):
                w[sp.pos(j)] = w[sp.pos(j)] + Fraction(i) * s[i - 1][j - 1]
            complement.append(w)
        if tau_hat_wrt_complement(sp, a, complement) != tau_hat(sp, a):
            ok_comp = False
        by_grade = {}
        for key in fock_basis(sp, 4):
            by_grade.setdefault(len(key), []).append(key)
        for keys in by_grade.values():
            gram = ExactMatrix(
                [[inner_product(FockVector.basis(sp, x), FockVector.basis(sp, y)) for y in keys] for x in keys]
            )
            for minor in gram.leading_principal_minors():
                minor = GaussianRational.coerce(minor)
                if not (minor.is_real and minor.re > 0):
                    ok_pos = False

    rep.add("fock-basics.01-e-roundtrip", "E and E^{-1} are mutually inverse on Sym^2 H", ok_round)
    rep.add("fock-basics.02-normal-order-projector", "normal ordering is an idempotent projector", ok_no)
    rep.add("fock-basics.03-heisenberg", "rho(a)rho(b) - rho(b)rho(a) = (a,b) id", ok_heis)
    rep.add("fock-basics.04-tau-homomorphism", "[tau(A), tau(B)] = tau([A,B]) on a spanning set", ok_hom, witness.get("hom"))
    rep.add("fock-basics.05-tau-hat-deviation", "tau^(A) - tau(A) = -1/2 trace(A^{F'})", ok_dev)
    rep.add("fock-basics.06-vacuum-annihilation", "tau^(A) v_o = 0 when A(F) in F", ok_kill)
    rep.add("fock-basics.07-complement-independence", "tau^ of an F-stabilizer does not depend on F'", ok_comp)
    rep.add("fock-basics.08-positive-definite", "inner-product Gram minors positive on grades <= 4", ok_pos)
    return rep


def suite_adjoint(params) -> SuiteReport:
    gmax = int(params.get("g", 3))
    grade = int(params.get("grade", 4))
    seed = int(params.get("seed", DEFAULT_SEED))
    rep = SuiteReport("adjoint", {"g": gmax, "grade": grade, "seed": seed})
    rng = random.Random(seed)

    ok_adj, ok_skew, ok_tt = True, True, True
    wit = {}
    for g in range(1, gmax + 1):
        sp = standard_space(g)
        keys = fock_basis(sp, grade if g == 1 else min(grade, 3))
        for a in sp.labels():
            coords = sp.basis_vector(a)
            for kv in keys:
                for kw in keys:
                    if abs(len(kv) - len(kw)) != 1:
                        continue
                    if not adjoint_check(sp, coords, FockVector.basis(sp, kv), FockVector.basis(sp, kw)):
                        ok_adj = False
                        wit["adj"] = f"g={g}, a=e_{a}, v={kv}, w={kw}"
        c = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                v = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                c[i][j] = c[i][j] + v
                if i != j:
                    c[j][i] = c[j][i] + v
        s_t = sym2F_tensor(sp, ExactMatrix(c))
        u = UElement.from_tensor(sp, s_t) + UElement.from_tensor(sp, conj_tensor(sp, s_t))
        small = fock_basis(sp, min(grade, 3))
        for kv in small:
            for kw in small:
                v, w = FockVector.basis(sp, kv), FockVector.basis(sp, kw)
                if inner_product(rho_apply(u, v), w) + inner_product(v, rho_apply(u, w)):
                    ok_skew = False
        for _ in range(3):
            c1 = _seeded_sym_tensor(sp, rng, size=g)
            c2 = _seeded_sym_tensor(sp, rng, size=g)
            for key in fock_basis(sp, grade)[:10]:
                _e, _s, certified = bracket_TT(sp, c1, c2, FockVector.basis(sp, key))
                if not certified:
                    ok_tt = False
                    wit["tt"] = f"g={g}, key={key}"
    rep.add("adjoint.01-mode-adjoint", "<rho(a)v, w> = <v, rho(sqrt(-1) conj a) w>", ok_adj, wit.get("adj"))
    rep.add("adjoint.02-skew-hermitian", "rho(s + conj s) is an infinitesimal unitary transformation", ok_skew)
    rep.add("adjoint.03-quadratic-bracket", "[rho(conj alpha), rho(beta)] = E(conj alpha)E(beta) + 1/2 trace", ok_tt, wit.get("tt"))
    return rep


def suite_virasoro(params) -> SuiteReport:
    kmax = int(params.get("kmax", 6))
    grade = int(params.get("grade", 8))
    rep = SuiteReport("virasoro", {"kmax": kmax, "grade": grade})
    failures = virasoro_sweep(kmax, grade)
    wit = None
    if failures:
        k, l, key = failures[0]
        wit = f"Virasoro identity failed for (k,l)=({k},{l}) on {key}; {len(failures)} failing (k,l,probe)"
    rep.add(
        "virasoro.01-cocycle",
        "[T(D_k), T(D_l)] = (l-k) T(D_{k+l}) + (k^3-k)/12 delta_{k+l,0}",
        not failures,
        wit,
    )
    try:
        _, central = virasoro_bracket(2, -2, probe_grade=min(grade, 5))
        wit = str(central)
    except AssertionError as exc:
        central, wit = None, str(exc)
    rep.add(
        "virasoro.02-spot-central",
        "central term at (k,l) = (2,-2) equals 1/2",
        central == Fraction(1, 2),
        wit,
    )
    comm_failures = []
    probes = [(key, OscFockVector.basis(key)) for key in osc_basis(min(grade, 5))]
    for k in range(-4, 5):
        op = tau_hat_Dk(k)
        op_probes = [op.apply(v) for _, v in probes]  # T(D_k) v serves every m
        for m in range(-4, 5):
            if m == 0:
                continue
            f = LaurentSeries.t_power(m)
            df = Derivation.D(k).apply(f)
            for (key, v), op_v in zip(probes, op_probes):
                # [T(D_k), f] v = T(D_k)(f v) - f (T(D_k) v)
                if op.apply(series_multiply(f, v)) - series_multiply(f, op_v) != series_multiply(df, v):
                    comm_failures.append((k, m, key))
    wit = None
    if comm_failures:
        k, m, key = comm_failures[0]
        wit = f"[T(D_{k}), t^{m}] != D_{k}(t^{m}) on {key}; {len(comm_failures)} failing (k,m,probe)"
    rep.add("virasoro.03-module-commutator", "[T(D), f] = D(f) on the Fock module", not comm_failures, wit)
    vacuum = OscFockVector.vacuum()
    wit = None
    for k in range(1, kmax + 1):
        image = tau_hat_Dk(k).apply(vacuum)
        if image:
            wit = f"T(D_{k}) v_0 = {image}"
            break
    rep.add("virasoro.04-positive-order-vacuum", "T(D) v_0 = 0 for D of positive order", wit is None, wit)
    return rep


def suite_fock_type(params) -> SuiteReport:
    window = int(params.get("window", 24))
    bound = int(params.get("bound", 10))
    rep = SuiteReport("fock-type", {"window": window, "bound": bound})
    sub = genus0_subalgebra(window=window, degree_bound=bound)
    perp = compute_perp(sub, -bound, bound + 1)
    rep.add(
        "fock-type.01-genus0-perp",
        "for the one-point rational model, A-perp/A has rank 0",
        sub.quotient_rank() == 0 and all(in_span(f, sub.by_ord) for f in perp),
    )
    record = sub.certify(derivations={"D1": Derivation.D(1)})
    rep.add(
        "fock-type.02-certificates",
        "FT2 (A cap O = R, finite corank) and FT3 (isotropy) hold exactly",
        record["ft2"]["A_cap_O_is_R"] and record["ft3"],
    )
    rep.add(
        "fock-type.03-ft4",
        "D_1 preserves A and maps A-perp into A",
        record["ft4"]["D1"]["preserves_A"] and record["ft4"]["D1"]["maps_perp_to_A"],
    )
    q = build_quotient(sub)
    lam = scalar_action(Derivation.D(1), q, [KMinusVector.vacuum()])
    rep.add(
        "fock-type.04-scalar-action",
        "the induced action on the rank-0 covariant space is the scalar 0",
        lam == 0,
        str(lam),
    )
    return rep


def _parse_curve(params):
    f = params.get("f", [0, -1, 0, 1])
    if isinstance(f, str):
        f = json.loads(f)
    g = int(params.get("g", 1))
    n = int(params.get("N", params.get("prec", 44)))
    return [Fraction(c) for c in f], g, n


def suite_hyperelliptic(params) -> SuiteReport:
    f, g, n = _parse_curve(params)
    rep = SuiteReport("hyperelliptic", {"f": f, "g": g, "N": n})
    model = build_model(f, g, n)
    data = curve_fock_data(model, degree_bound=4 * g + 4)
    rep.add(
        "hyperelliptic.01-model",
        "y(t)^2 = f(x(t)) and u(0) = 1 within the window",
        True,  # construction certifies or raises
    )
    sub = data.subalgebra()
    record = sub.certify(
        derivations={"tangent": model.tangent_field()},
        perp_reps=list(data.phis.values()),
    )
    ok_ft = (
        record["ft1_surrogate"]["products_in_A"]
        and record["ft2"]["A_cap_O_is_R"]
        and record["ft2"]["quotient_rank"] == g
        and record["ft3"]
        and record["ft4"]["tangent"]["preserves_A"]
        and record["ft4"]["tangent"]["maps_perp_to_A"]
    )
    rep.add(
        "hyperelliptic.02-fock-type",
        "A_p passes the FT certificates (rank g corank, isotropy, FT4 for the tangent field)",
        ok_ft,
        json.dumps(record, default=str),
        detail=record,
    )
    q = build_quotient(sub)
    gram = q.gram()
    idx = list(range(-g, 0)) + list(range(1, g + 1))
    ok_gram = all(
        gram.rows[a][b] == (i if i + j == 0 else 0)
        for a, i in enumerate(idx)
        for b, j in enumerate(idx)
    )
    rep.add(
        "hyperelliptic.03-quotient",
        "A-perp/A is free of rank 2g with Gram i delta_{i+j,0}",
        q.g == g and ok_gram,
    )
    rg = data.residue_gram_mod_A()
    phis = sorted(data.phis)
    iso = all(
        not rg[i, j]
        for i, ki in enumerate(phis)
        for j, kj in enumerate(phis)
        if ki >= 1 and kj >= 1
    )
    rep.add(
        "hyperelliptic.04-residue-gram",
        "the residue Gram on B_p/A_p is nondegenerate with isotropic holomorphic part",
        bool(rg.det()) and (rg + rg.transpose()).is_zero() and iso,
    )
    witness = closure_falsifier(model, data)
    if witness is None:
        rep.add(
            "hyperelliptic.05-nonclosure",
            "K^- is not multiplicatively closed (bounded search)",
            "skipped",
            "no witness within the search bound",
        )
    else:
        model2 = build_model(f, g, n + 10)
        witness2 = closure_falsifier(model2)
        stable = (
            witness2 is not None
            and witness2["left"] == witness["left"]
            and witness2["right"] == witness["right"]
            and witness2["remainder_order"] == witness["remainder_order"]
            and witness2["remainder_leading"] == witness["remainder_leading"]
        )
        rep.add(
            "hyperelliptic.05-nonclosure",
            "K^- is not multiplicatively closed; the witness survives window growth N -> N+10",
            stable,
            json.dumps(witness, default=str),
        )
    probes = [KMinusVector.vacuum(), KMinusVector({(("q", 1),): 1})]
    if g >= 1:
        probes.append(KMinusVector({(("q", 1), ("q", 1)): 1}))
    if g >= 2:
        probes.append(KMinusVector({(("q", 2),): 1}))
    try:
        scalar_action(model.tangent_field(), q, probes)
    except NotScalar as exc:
        ok, witness = False, str(exc)
    else:
        ok, witness = True, None
    rep.add(
        "hyperelliptic.06-covariant-scalar",
        "a vertical derivation preserving A_p acts on covariants by a probe-independent scalar",
        ok,
        witness,
    )
    return rep


def suite_connection(params) -> SuiteReport:
    from .hodge import modular_family, siegel_family, verify_theorem31

    grade = int(params.get("grade", 4))
    rep = SuiteReport("connection", {"grade": grade})
    for name, fam, gr in (
        ("modular", modular_family(), grade),
        ("siegel-block", siegel_family(), min(grade, 4)),
    ):
        try:
            result = verify_theorem31(fam, probe_grade=gr)
            items = {
                "flatness": "the flat connection matrix has dA + A^A = 0 in the moving frame",
                "dagger1": "d conj(A^F) + conj(A^F)^conj(A^F) + sigma^conj(sigma) = 0",
                "dagger2": "d conj(sigma) + A^F^conj(sigma) + conj(sigma)^conj(A^F) = 0",
                "fock_curvature_scalar": "Omega(nabla^FF) acts as the predicted scalar on probes",
                "scalar_equals_half_det_curvature": "Omega(nabla^FF) = 1/2 Omega(det nabla^F)",
                "scalar_equals_minus_half_trace": "the scalar equals -1/2 trace(conj(sigma)^sigma)",
                "trace_anticommutation": "trace(sigma^conj sigma) = -trace(conj sigma^sigma)",
                "det_curvature_is_minus_trace": "Omega(det nabla^F) = -trace(conj sigma^sigma)",
                "endomorphism_lemma": "-sigma^conj sigma + s^conj s + conj s^s = -1/2 trace(conj sigma^sigma)",
                "covariant_s_lemma": "the covariant derivative of rho(s) vanishes (both halves)",
                "skew_hermitian_at_sample": "rho(s + conj s) is skew-Hermitian at the sample point",
            }
            for key, statement in items.items():
                rep.add(f"connection.{name}.{key}", f"[{name}] {statement}", bool(result.get(key)))
        except IdentityFailed as exc:
            rep.add(f"connection.{name}.identity", f"[{name}] curvature identities", False, str(exc))
    return rep


def suite_wzw_gram(params) -> SuiteReport:
    f, g, n = _parse_curve(params)
    seed = int(params.get("seed", DEFAULT_SEED))
    rep = SuiteReport("wzw-gram", {"f": f, "g": g, "N": n, "seed": seed})
    model = build_model(f, g, n)
    rng = random.Random(seed)
    derivations = {
        "tangent-field": model.tangent_field(),
        "D_2": Derivation.D(2),
        "seeded": Derivation.from_series(
            LaurentSeries.from_terms({k: rng.randint(-3, 3) for k in range(-2, 7)}, n - 6)
        ),
    }
    sym_wit = sign_wit = None
    for name, d in derivations.items():
        m, sign = wzw_gram_entries(model, d)
        asym = next(((i, j) for i in range(g) for j in range(i + 1, g) if m[i, j] != m[j, i]), None)
        if sym_wit is None and asym is not None:
            i, j = asym
            sym_wit = f"{name}: M[{i + 1},{j + 1}] = {m[i, j]} != M[{j + 1},{i + 1}] = {m[j, i]}"
        if sign_wit is None and sign is not None:
            sign_wit = f"{name}: {sign}"
    rep.add(
        "wzw-gram.01-symmetric",
        "M_ij = res(<D,omega_i> omega_j)/(ij) is symmetric for every vertical D tested",
        sym_wit is None,
        sym_wit,
    )
    rep.add(
        "wzw-gram.02-sign-identity",
        "res(e_j d(D e_i)) = -i j res(<D,omega_i> omega_j) entrywise (de_j = j omega_j)",
        sign_wit is None,
        sign_wit,
    )
    zero = Derivation.from_series(LaurentSeries.zero(n))
    rep.add(
        "wzw-gram.03-zero",
        "the Gram of the zero derivation vanishes",
        wzw_gram_entries(model, zero)[0].is_zero(),
    )
    return rep


SUITES = {
    "fock-basics": suite_fock_basics,
    "adjoint": suite_adjoint,
    "virasoro": suite_virasoro,
    "fock-type": suite_fock_type,
    "hyperelliptic": suite_hyperelliptic,
    "connection": suite_connection,
    "wzw-gram": suite_wzw_gram,
}


def run_suite(name: str, params: dict | None = None) -> SuiteReport:
    params = dict(params or {})
    if name == "all":
        rep = SuiteReport("all", {"seed": params.get("seed", DEFAULT_SEED)})
        start = time.monotonic()
        for sub in SUITES:
            sub_params = dict(params)
            if sub == "hyperelliptic" and "f" not in sub_params:
                # run both shipped curves
                for f, g in ([0, -1, 0, 1], 1), ([0, -1, 0, 0, 0, 1], 2):
                    r = suite_hyperelliptic({**sub_params, "f": f, "g": g, "N": 44 + 8 * g})
                    for c in r.checks:
                        c.id = f"{c.id}.g{g}"
                    rep.merge(r)
                continue
            rep.merge(SUITES[sub](sub_params))
        rep.wall_time = time.monotonic() - start
        return rep
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    start = time.monotonic()
    rep = SUITES[name](params)
    rep.wall_time = time.monotonic() - start
    return rep


# -- compute commands ------------------------------------------------------------


def _parse_ebar_monomial(space, text: str):
    indices = []
    for tok in text.replace(",", " ").split():
        tok = tok.strip()
        for prefix in ("ē", "ebar", "eb"):
            if tok.startswith(prefix):
                indices.append(int(tok[len(prefix):]))
                break
        else:
            raise ValueError(f"cannot parse generator {tok!r}; use ē1 / ebar1 / eb1")
    return ebar_monomial(space, indices)


def compute(name: str, params: dict | None = None) -> str:
    params = dict(params or {})
    if name == "inner-product":
        g = int(params.get("g", 1))
        sp = standard_space(g)
        v = _parse_ebar_monomial(sp, str(params.get("v", "eb1")))
        w = _parse_ebar_monomial(sp, str(params.get("w", "eb1")))
        return str(inner_product(v, w))
    if name == "tau-hat":
        k = int(params.get("k", 2))
        grade = int(params.get("grade", 3))
        op = tau_hat_Dk(k)
        lines = [f"tau_hat(D_{k}) monomials acting on grades <= {grade}:"]
        for a, b, c in op.monomials_for_grade(k, grade):
            lines.append(f"  ({c}) * :e_{{{a}}} e_{{{b}}}:")
        return "\n".join(lines)
    if name == "wzw-gram":
        f, g, n = _parse_curve(params)
        model = build_model(f, g, n)
        m = wzw_gram(model, model.tangent_field())
        return f"prefactor: pi*sqrt(-1)\nGram (tangent field): {m}"
    if name == "phi-basis":
        f, g, n = _parse_curve(params)
        model = build_model(f, g, n)
        lines = []
        for i in range(1 - g, g + 1):
            lines.append(f"phi_{2 * i - 1} = {format_series(model.phi(i))}")
        return "\n".join(lines)
    if name == "quotient-basis":
        f, g, n = _parse_curve(params)
        model = build_model(f, g, n)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        q = build_quotient(data.subalgebra())
        lines = []
        for i, e in enumerate(q.neg_lifts, start=1):
            lines.append(f"e_{-i} = {format_series(e)}")
        for i, e in enumerate(q.pos_lifts, start=1):
            lines.append(f"e_{i} = {format_series(e)}")
        return "\n".join(lines)
    raise KeyError(f"unknown computation {name!r}")


# -- entry point -------------------------------------------------------------------


def _parse_params(pairs, seed, prec):
    params = {}
    for pair in pairs or ():
        key, _, value = pair.partition("=")
        if not _ or not key:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    if seed is not None:
        params["seed"] = seed
    if prec is not None:
        params.setdefault("N", prec)
        params.setdefault("prec", prec)
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="exact verification suites for Fock representations, "
        "oscillator algebras and the projectively flat Fock connection",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=sorted(SUITES) + ["all"])
    group.add_argument(
        "--compute",
        choices=["inner-product", "tau-hat", "wzw-gram", "phi-basis", "quotient-basis"],
    )
    parser.add_argument("--param", action="append", metavar="KEY=VALUE")
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--prec", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        params = _parse_params(args.param, args.seed, args.prec)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    try:
        if args.compute:
            print(compute(args.compute, params))
            return 0
        report = run_suite(args.suite, params)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
