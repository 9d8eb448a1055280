import json
import subprocess
import sys
from fractions import Fraction

import pytest

from focklab.cli import compute, main, run_suite
from focklab.reports import SCHEMA


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_suite_report_shape():
    rep = run_suite("virasoro", {"kmax": 2, "grade": 3})
    data = rep.to_json()
    assert data["schema"] == SCHEMA
    assert data["suite"] == "virasoro"
    assert all(c["status"] == "pass" for c in data["checks"])
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)
    # every check carries the statement it verified
    assert all(c["statement"] for c in data["checks"])


def test_json_deterministic_same_seed():
    a = run_suite("adjoint", {"g": 1, "grade": 2, "seed": 7}).to_json_bytes()
    b = run_suite("adjoint", {"g": 1, "grade": 2, "seed": 7}).to_json_bytes()
    assert a == b


def test_compute_inner_product():
    assert compute("inner-product", {"g": 1, "v": "eb1 eb1", "w": "eb1 eb1"}) == "2"
    assert compute("inner-product", {"g": 1, "v": "ē1", "w": "ē1"}) == "1"
    assert compute("inner-product", {"g": 2, "v": "eb2", "w": "eb2"}) == "2"


def test_compute_tau_hat():
    out = compute("tau-hat", {"k": 2, "grade": 3})
    assert ":e_{-1} e_{3}:" in out
    assert "(-1/2) * :e_{1} e_{1}:" in out


def test_compute_phi_basis():
    out = compute("phi-basis", {"f": [0, -1, 0, 1], "g": 1, "N": 30})
    assert "phi_-1" in out and "phi_1" in out
    assert "-t^-1" in out  # leading term of phi_{-1}


def test_compute_wzw_gram_prints_the_matrix():
    assert compute("wzw-gram", {}) == "prefactor: pi*sqrt(-1)\nGram (tangent field): [0]"
    out = compute("wzw-gram", {"f": [1, 0, 0, 0, 0, 1], "g": 2, "N": 30})
    assert out == "prefactor: pi*sqrt(-1)\nGram (tangent field): [0, 0; 0, 0]"


def test_compute_quotient_basis():
    out = compute("quotient-basis", {"f": [0, -1, 0, 1], "g": 1, "N": 30})
    assert "e_-1" in out and "e_1" in out


def test_main_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--suite", "virasoro", "--param", "kmax=2", "--param", "grade=3",
                 "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == SCHEMA
    # invalid parameters (repeated roots) exit with the usage code
    code = main(["--suite", "hyperelliptic", "--param", "f=[0,0,0,1]", "--param", "g=1"])
    assert code == 2


def test_main_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "definitely-not-a-suite"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "focklab", "--suite", "fock-type", "--json", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fock-type" in proc.stdout
    assert json.loads(out.read_text())["suite"] == "fock-type"


def test_hyperelliptic_covariant_scalar_failure_is_a_fail_record(monkeypatch, capsys):
    """A NotScalar from the covariant action is a failed identity: record
    hyperelliptic.06 as FAIL with the exception text and exit 1, not the
    "invalid parameters" exit 2 of bad input."""
    from focklab import cli
    from focklab.subalgebra import NotScalar

    def not_scalar(D, q, probes):
        raise NotScalar("probe A gives 1 but probe B gives 2")

    monkeypatch.setattr(cli, "scalar_action", not_scalar)
    rep = cli.run_suite("hyperelliptic", {})
    record = {c["id"]: c for c in rep.to_json()["checks"]}["hyperelliptic.06-covariant-scalar"]
    assert record["status"] == "fail"
    assert record["witness"] == "probe A gives 1 but probe B gives 2"
    assert main(["--suite", "hyperelliptic"]) == 1
    assert "invalid parameters" not in capsys.readouterr().err


def test_a_failed_symmetry_certificate_is_a_fail_record(monkeypatch, capsys):
    """No parameter reaches NotSymmetric, so an E^{-1} image that is not
    symmetric is a false identity: a failed fock-basics.run record naming
    it and exit 1, not the "invalid parameters" exit 2 of bad input."""
    from focklab import cli, fock

    monkeypatch.setattr(cli, "E_inverse", lambda sp, a: fock.normal_order_tensor(sp, fock.E_inverse(sp, a)))
    rep = cli.run_suite("fock-basics", {"g": 1})
    assert [(c.id, c.status, c.witness) for c in rep.checks] == [
        ("fock-basics.run", "fail", "NotSymmetric: coefficient matrix is not symmetric")
    ]
    assert main(["--suite", "fock-basics", "--param", "g=1"]) == 1
    assert "invalid parameters" not in capsys.readouterr().err


# One deliberate defect per fock-basics and adjoint check, in a name the cli
# module imports (or a method of one), keyed by the one record it must break:
# (name, attribute or None, wrapper of the real callable).
WITNESS_BREAKS = {
    "fock-basics.01-e-roundtrip": ("E_inverse", None, lambda real: lambda sp, a: real(sp, a) * 2),
    "fock-basics.02-normal-order-projector": ("normal_order_tensor", None, lambda real: lambda sp, t: real(sp, t) * 2),
    "fock-basics.03-heisenberg": ("rho_vector", None, lambda real: lambda sp, c, v: real(sp, c, v).scale(2)),
    # [tau(A), tau(B)] computed as [tau(B), tau(A)]
    "fock-basics.04-tau-homomorphism": ("UElement", "bracket", lambda real: lambda x, y: real(y, x)),
    # the predicted deviation -1/2 trace(A^{F'}) off by one
    "fock-basics.05-tau-hat-deviation": ("UElement", "monomial", lambda real: staticmethod(
        lambda sp, modes, hpow=0, coeff=1: real(sp, modes, hpow, coeff + 1))),
    "fock-basics.06-vacuum-annihilation": ("rho_apply", None, lambda real: lambda u, v: real(u, v) + v),
    "fock-basics.07-complement-independence": (
        "tau_hat_wrt_complement", None, lambda real: lambda sp, a, w: real(sp, a, w).scale(2)),
    "fock-basics.08-positive-definite": ("inner_product", None, lambda real: lambda v, w: -real(v, w)),
    # every pair of every mode reported as failing
    "adjoint.01-mode-adjoint": ("adjoint_failures", None, lambda real: lambda sp, c, vs, ws, pairs: iter(pairs)),
    # rho(s + s) in place of rho(s + conj s)
    "adjoint.02-skew-hermitian": ("conj_tensor", None, lambda real: lambda sp, t: t),
    "adjoint.03-quadratic-bracket": (
        "bracket_TT_probes", None, lambda real: lambda sp, a, b, probes: (None, None, [False] * len(probes))),
}


@pytest.mark.parametrize("check", sorted(WITNESS_BREAKS))
def test_a_broken_check_fails_alone_with_its_witness(monkeypatch, check):
    from focklab import cli

    name, attr, make = WITNESS_BREAKS[check]
    owner, attr = (getattr(cli, name), attr) if attr else (cli, name)
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    suite = check.split(".")[0]
    rep = cli.run_suite(suite, {"g": 2, "grade": 3})
    assert len(rep.checks) == {"fock-basics": 8, "adjoint": 3}[suite]
    assert [c.id for c in rep.failed] == [check]
    assert rep.failed[0].witness


def _tau_span(sp):
    """Check 04's spanning set: E(e_a (x) e_b + e_b (x) e_a), one per unordered
    label pair."""
    from focklab.fock import E_map
    from focklab.linalg import ExactMatrix

    n, span = 2 * sp.g, []
    for la in sp.labels():
        for lb in sp.labels():
            if (la, lb) <= (lb, la):
                c = [[0] * n for _ in range(n)]
                c[sp.pos(la)][sp.pos(lb)] += 1
                c[sp.pos(lb)][sp.pos(la)] += 1
                span.append(E_map(sp, ExactMatrix(c)))
    return span


def _tau_witness_by_pairs(g):
    """The reference for check 04: every ordered pair, in row-major order,
    building tau of its own bracket; the first failing pair's witness."""
    from focklab import cli

    for k in range(1, g + 1):
        sp = cli.standard_space(k)
        span = _tau_span(sp)
        for x in span:
            for y in span:
                if cli.tau(sp, x).bracket(cli.tau(sp, y)) != cli.tau(sp, x.bracket(y)):
                    return f"g={k}, A={x.matrix}, B={y.matrix}"
    return None


def test_tau_groups_from_nonzero_entries_are_the_matrix_brackets():
    """Check 04's groups, keyed by _bracket_entries on each spanning
    matrix's nonzero entries, are the groups keyed by the nonzero entries of
    SpElement.bracket: the same keys with the same pair lists, in the same
    order (155 groups of 441 pairs at g = 3)."""
    from focklab import cli

    for g in (1, 2, 3):
        sp, n = cli.standard_space(g), 2 * g
        span = _tau_span(sp)
        support = [[(r, c, v) for r, row in enumerate(x.matrix.rows) for c, v in enumerate(row) if v] for x in span]
        by_entries, by_matrix = {}, {}
        for i, x in enumerate(span):
            for j, y in enumerate(span):
                by_entries.setdefault(cli._bracket_entries(support[i], support[j], n), []).append((i, j))
                rows = x.bracket(y).matrix.rows
                key = tuple((r * n + c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v)
                by_matrix.setdefault(key, []).append((i, j))
        assert list(by_entries.items()) == list(by_matrix.items())
    assert len(by_entries) == 155


def _only_tau_check_fails_with(want):
    rep = run_suite("fock-basics", {"g": 3})
    assert [(c.id, c.witness) for c in rep.failed] == [("fock-basics.04-tau-homomorphism", want)]
    assert main(["--suite", "fock-basics", "--param", "g=3"]) == 1


def test_grouped_tau_check_reports_the_first_failing_pair(monkeypatch):
    """With tau wrong on one nonzero bracket of g = 3 that three pairs
    share, only fock-basics.04 fails, its witness is the first failing pair
    of the per-pair loop, and main exits 1.  The chosen bracket is not the
    first nonzero one, so the witness is not the first pair with a nonzero
    bracket either."""
    from focklab import cli

    sp = cli.standard_space(3)
    span = _tau_span(sp)
    pairs_of = {}  # bracket matrix (as text) -> its ordered pairs, row-major
    for x in span:
        for y in span:
            z = x.bracket(y).matrix
            if not z.is_zero():
                pairs_of.setdefault(str(z), (z, []))[1].append((x, y))
    wrong_on = [z for z, pairs in pairs_of.values() if len(pairs) > 2][1]
    real = cli.tau
    monkeypatch.setattr(cli, "tau", lambda space, a: real(space, a) * (
        2 if space.g == 3 and a.matrix == wrong_on else 1))
    want = _tau_witness_by_pairs(3)
    first_nonzero = next(iter(pairs_of.values()))[1][0]
    assert want.startswith("g=3, ")
    assert want != f"g=3, A={first_nonzero[0].matrix}, B={first_nonzero[1].matrix}"
    _only_tau_check_fails_with(want)


@pytest.mark.parametrize("wrong", ["bracket-reversed", 1, 4])
def test_grouped_tau_check_witness_is_the_per_pair_loops(monkeypatch, wrong):
    """With the U(H^) bracket reversed, every group with a nonzero bracket
    fails, the first one at g = 1.  With tau doubled on one spanning element
    of g = 3, only the pairs containing it fail, so a group can fail on a
    later pair than its first: on element 4 the first failing pair is not
    the first of its group, and on element 1 a group inserted later holds an
    earlier failing pair.  Either way the witness is the per-pair loop's
    first failing pair."""
    from focklab import cli

    if wrong == "bracket-reversed":
        real_bracket = cli.UElement.bracket
        monkeypatch.setattr(cli.UElement, "bracket", lambda x, y: real_bracket(y, x))
    else:
        wrong_on = _tau_span(cli.standard_space(3))[wrong].matrix
        real_tau = cli.tau
        monkeypatch.setattr(cli, "tau", lambda space, a: real_tau(space, a) * (
            2 if space.g == 3 and a.matrix == wrong_on else 1))
    want = _tau_witness_by_pairs(3)
    assert want.startswith("g=1, " if wrong == "bracket-reversed" else "g=3, ")
    _only_tau_check_fails_with(want)


def test_finite_fock_suites_build_each_image_once(monkeypatch):
    """A counting guard (calls, not time) at g = 3, seed 64: adjoint made 2296
    rho_vector calls and 156 from_tensor builds when each pair and probe
    rebuilt its images, and fock-basics 1872 rho_vector calls; one image per
    (label, probe) and one operator pair per (c1, c2) need 340, 24 and 1026.
    Fock-basics built tau 593 times (E_inverse 620) when each of the 550
    ordered pairs of check 04 built tau of its own bracket, and formed each
    bracket from two products (1,100 UElement.__mul__ calls); one tau per
    distinct bracket (207 over g = 1..3) brings that to 250 (E_inverse 277),
    and the one-pass bracket needs no product.  Check 04 keys its groups by
    brackets formed from the spanning matrices' nonzero entries, with no
    SpElement.bracket call (550 when each pair formed a matrix commutator).
    Adjoint's inner products meet 181 distinct key pairs, 35 of them with a
    nonzero pairing: it computed a nonzero permanent 324 times when no space
    kept its pairings, and 1,281 permanents when a space kept only nonzero
    ones.  Fock-basics computes 431 permanents."""
    from focklab import cli, fock

    calls = dict.fromkeys(
        ["rho_vector", "from_tensor", "E_inverse", "permanent", "nonzero_permanent", "tau", "mul", "sp_bracket"], 0)

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    permanent = fock._grouped_permanent

    def counted_permanent(*args):
        value = permanent(*args)
        calls["permanent"] += 1
        calls["nonzero_permanent"] += bool(value)
        return value

    for owner in (fock, cli):
        for name in ("rho_vector", "E_inverse"):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    monkeypatch.setattr(fock.UElement, "from_tensor",
                        staticmethod(counted("from_tensor", fock.UElement.from_tensor)))
    monkeypatch.setattr(fock, "_grouped_permanent", counted_permanent)
    monkeypatch.setattr(cli, "tau", counted("tau", cli.tau))
    monkeypatch.setattr(fock.UElement, "__mul__", counted("mul", fock.UElement.__mul__))
    monkeypatch.setattr(fock.SpElement, "bracket", counted("sp_bracket", fock.SpElement.bracket))
    rep = run_suite("adjoint", {"g": 3, "grade": 4, "seed": 64})
    assert not rep.failed and len(rep.checks) == 3
    assert calls["rho_vector"] <= 340 and calls["from_tensor"] <= 24, calls
    assert calls["permanent"] <= 181 and calls["nonzero_permanent"] <= 35, calls
    calls.update(dict.fromkeys(calls, 0))
    rep = run_suite("fock-basics", {"g": 3, "seed": 64})
    assert not rep.failed and len(rep.checks) == 8
    assert calls["rho_vector"] <= 1026 and calls["tau"] <= 250 and calls["E_inverse"] <= 277, calls
    assert calls["mul"] == 0 and calls["sp_bracket"] == 0 and calls["permanent"] <= 431, calls


@pytest.mark.parametrize("family", ["modular_family", "constant_family"])
def test_connection_statements_are_the_identities_verified(family):
    """The certificate yields one record per statement, in the order of the
    statements, and no statement lacks its record."""
    from focklab import hodge
    from oracles import constant_family

    make = {"modular_family": hodge.modular_family, "constant_family": constant_family}[family]
    checks = hodge.theorem31_checks(make(), probe_grade=2)
    assert [name for name, _, _ in checks] == list(hodge.THEOREM31_STATEMENTS)


def test_an_exhausted_window_is_a_skipped_record(capsys):
    """N = 14 leaves a residue undetermined; N = 0 leaves the square root
    of the model no coefficient."""
    for n, why in ((14, "not determined (prec="), (0, "not determined in a window of 0")):
        rep = run_suite("hyperelliptic", {"N": n})
        assert [(c.id, c.status) for c in rep.checks] == [("hyperelliptic.run", "skipped")]
        assert why in rep.checks[0].witness
        assert main(["--suite", "hyperelliptic", "--param", f"N={n}"]) == 0
        assert "invalid parameters" not in capsys.readouterr().err


def test_a_model_that_fails_its_identity_is_a_fail_record(monkeypatch, capsys):
    from focklab import geometry
    from focklab.linalg import IdentityFailed

    def broken(model):
        raise IdentityFailed("y(t)^2 != f(x(t)) within the window")

    monkeypatch.setattr(geometry.HyperellipticModel, "_validate", broken)
    rep = run_suite("hyperelliptic", {})
    assert [(c.id, c.status, c.witness) for c in rep.checks] == [
        ("hyperelliptic.01-model", "fail", "y(t)^2 != f(x(t)) within the window")
    ]
    assert main(["--suite", "hyperelliptic"]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["hyperelliptic", "connection"])
def test_a_failed_linear_algebra_certificate_is_a_fail_record(monkeypatch, capsys, suite):
    """A back substitution that leaves x as it was fails the kernel, inverse
    and solve certificates: IdentityFailed, a FAIL record and exit 1, neither
    a traceback nor the exit 2 of bad input."""
    from focklab import linalg

    monkeypatch.setattr(linalg, "_back_substitute", lambda m, pivots, b, x: x)
    failed = [c for c in run_suite(suite, {}).checks if c.status == "fail"]
    assert failed and all("certification failed" in c.witness for c in failed)
    assert main(["--suite", suite]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_a_failed_quotient_certificate_keeps_the_checks_before_it(monkeypatch, capsys):
    """hyperelliptic builds the quotient after checks 04 and 05, which do not
    read it: a failed solve certificate there ends the run with 01, 02, 04
    and 05 recorded."""
    from focklab import linalg

    monkeypatch.setattr(linalg, "_back_substitute", lambda m, pivots, b, x: x)
    rep = run_suite("hyperelliptic", {})
    assert [(c.id, c.status) for c in rep.checks] == [
        ("hyperelliptic.01-model", "pass"),
        ("hyperelliptic.02-fock-type", "pass"),
        ("hyperelliptic.04-residue-gram", "pass"),
        ("hyperelliptic.05-nonclosure", "pass"),
        ("hyperelliptic.run", "fail"),
    ]
    assert "certification failed" in rep.checks[-1].witness
    assert main(["--suite", "hyperelliptic"]) == 1


# The first rows of the mutation table for the connection suite: a mutation
# (one monkeypatch) and the identities it must turn to fail in both families.
CONNECTION_MUTATIONS = {
    "rho_sbar dropped": [
        "endomorphism_lemma", "fock_curvature_scalar", "scalar_equals_half_det_curvature",
        "scalar_equals_minus_half_trace", "skew_hermitian_at_sample",
    ],
    "rho_s doubled": [
        "endomorphism_lemma", "fock_curvature_scalar", "nabla_h_insertion",
        "scalar_equals_half_det_curvature", "scalar_equals_minus_half_trace", "skew_hermitian_at_sample",
    ],
    "curvature is the identity": [
        "det_curvature_is_minus_trace", "flatness", "scalar_equals_half_det_curvature",
    ],
    "A^F-bar dropped from nabla_fbar": ["covariant_s_lemma", "fock_curvature_scalar", "nabla_h_insertion"],
    "d negated": [
        "dagger1", "dagger2", "det_curvature_is_minus_trace", "flatness", "scalar_equals_half_det_curvature",
    ],
}


@pytest.mark.parametrize("mutation", list(CONNECTION_MUTATIONS))
def test_each_connection_mutation_fails_exactly_its_identities(monkeypatch, capsys, mutation):
    """Under each mutation the connection suite at grade 2 keeps all 24
    records, fails exactly the listed ones in both families, and exits 1."""
    from focklab import hodge
    from focklab.fock import UElement
    from focklab.forms import Form
    from focklab.hodge import ConnectionData
    from oracles import d_param

    rho_s = ConnectionData.rho_s
    if mutation == "rho_sbar dropped":
        monkeypatch.setattr(ConnectionData, "rho_sbar", lambda self, k: UElement.zero(self._space))
    elif mutation == "rho_s doubled":
        monkeypatch.setattr(ConnectionData, "rho_s", lambda self, k: rho_s(self, k).scale(2))
    elif mutation == "curvature is the identity":
        monkeypatch.setattr(hodge, "curvature", lambda omega: omega)
    elif mutation == "A^F-bar dropped from nabla_fbar":
        monkeypatch.setattr(ConnectionData, "nabla_fbar", d_param)
    else:
        d = Form.exterior_derivative
        monkeypatch.setattr(Form, "exterior_derivative", lambda self: -d(self))
    rep = run_suite("connection", {"grade": 2})
    assert len(rep.checks) == 24
    assert sorted(c.id for c in rep.failed) == [
        f"connection.{family}.{check}"
        for family in ("modular", "siegel-block")
        for check in CONNECTION_MUTATIONS[mutation]
    ]
    if mutation == "rho_sbar dropped":
        witness = {c.id: c.witness for c in rep.failed}
        assert witness["connection.modular.fock_curvature_scalar"] == "('x', 'y', (-1,))"
    assert main(["--suite", "connection", "--param", "grade=2"]) == 1


def test_a_raised_identity_ends_only_its_own_suite(monkeypatch):
    """NoIsotropicLift out of fock-type is that suite's failed run record;
    --suite all records it and runs every other suite."""
    from focklab import cli
    from focklab.subalgebra import NoIsotropicLift

    def no_lift(sub):
        raise NoIsotropicLift("found 2 negative classes, expected quotient rank 0")

    monkeypatch.setattr(cli, "build_quotient", no_lift)
    rep = run_suite("fock-type", {})
    assert [c.id for c in rep.checks][-1] == "fock-type.run"
    assert rep.failed[0].witness == "NoIsotropicLift: found 2 negative classes, expected quotient rank 0"
    every = run_suite("all", {})
    assert [c.id for c in every.failed] == ["fock-type.run", "hyperelliptic.run.g1", "hyperelliptic.run.g2"]
    # fock-type loses its check 04 and each hyperelliptic run its checks 03 and 06; each gains a .run record
    assert len(every.checks) == 61 - 1 - 2 * 2 + 3
    assert main(["--suite", "fock-type"]) == 1


def test_a_param_that_no_run_reads_is_invalid(capsys):
    """A mistyped --param key exits 2 and names the key instead of certifying
    the defaults; so do --seed and --prec given to runs that read neither."""
    assert main(["--suite", "virasoro", "--param", "grde=3"]) == 2
    assert "--param grde" in capsys.readouterr().err
    assert main(["--suite", "all", "--param", "kmx=2"]) == 2
    assert main(["--compute", "tau-hat", "--param", "N=30"]) == 2
    assert main(["--suite", "virasoro", "--param", "kmax=2", "--param", "grade=3",
                 "--seed", "5", "--prec", "30"]) == 2


def test_seed_and_prec_that_no_run_reads_are_invalid(capsys):
    """--seed counts as read when a run reads seed and --prec when a run reads
    N; otherwise each is named as an unread --param key is."""
    virasoro = ["--suite", "virasoro", "--param", "kmax=2", "--param", "grade=3"]
    assert main([*virasoro, "--seed", "5"]) == 2
    assert "no run of virasoro reads --seed (it reads grade, kmax)" in capsys.readouterr().err
    assert main([*virasoro, "--prec", "30"]) == 2
    assert "no run of virasoro reads --prec (it reads grade, kmax)" in capsys.readouterr().err
    assert main(["--suite", "wzw-gram", "--param", "g=1", "--seed", "5", "--prec", "30"]) == 0
    assert main(["--suite", "hyperelliptic", "--seed", "5"]) == 2
    assert main(["--compute", "tau-hat", "--prec", "30"]) == 2
    # --suite all takes both: fock-basics reads seed and wzw-gram reads N
    assert main(["--suite", "all", "--param", "grade=2", "--seed", "5", "--prec", "30"]) != 2


def test_json_params_read_back_through_param(tmp_path):
    """A single-suite report writes each parameter as --param reads it, so
    feeding the JSON params back reproduces the same bytes."""
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--suite", "wzw-gram", "--param", 'f=[0,"-1/2",0,1]', "--json", str(first)]) == 0
    params = json.loads(first.read_text())["params"]
    assert params["f"] == '[0,"-1/2",0,1]'
    args = [arg for key, value in params.items() for arg in ("--param", f"{key}={value}")]
    assert main(["--suite", "wzw-gram", *args, "--json", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_a_param_of_the_wrong_shape_is_invalid(capsys):
    assert main(["--suite", "hyperelliptic", "--param", "f=5"]) == 2
    assert main(["--suite", "virasoro", "--param", "grade=[3]"]) == 2
    err = capsys.readouterr().err
    assert "parameter f cannot take the value 5" in err
    assert "Traceback" not in err


def test_a_param_that_is_not_exact_is_invalid(capsys):
    """An integer parameter takes an int only and a curve coefficient an int,
    a Fraction or a string Fraction reads exactly: neither a float nor a bool
    is truncated into a certified run."""
    assert main(["--suite", "virasoro", "--param", "grade=8.9"]) == 2
    assert main(["--suite", "hyperelliptic", "--param", "f=[0.1,-1,0,1]"]) == 2
    assert main(["--suite", "fock-basics", "--param", "g=true"]) == 2
    err = capsys.readouterr().err
    assert "parameter grade cannot take the value 8.9" in err
    assert "parameter f cannot take the value [0.1, -1, 0, 1]" in err
    assert "parameter g cannot take the value True" in err
    exact = run_suite("hyperelliptic", {"f": ["0", "-2/2", Fraction(0), 1]})
    assert exact.to_json_bytes() == run_suite("hyperelliptic", {}).to_json_bytes()


def test_a_computation_that_fails_its_identity_exits_1(monkeypatch, capsys):
    """A false identity out of --compute is its exception on stderr and exit
    1, neither a traceback nor the exit 2 of bad input."""
    from focklab import cli, geometry
    from focklab.linalg import IdentityFailed
    from focklab.subalgebra import NoIsotropicLift

    def broken(model):
        raise IdentityFailed("y(t)^2 != f(x(t)) within the window")

    def no_lift(sub):
        raise NoIsotropicLift("found 2 negative classes, expected quotient rank 1")

    monkeypatch.setattr(geometry.HyperellipticModel, "_validate", broken)
    assert main(["--compute", "phi-basis"]) == 1
    assert capsys.readouterr().err == "IdentityFailed: y(t)^2 != f(x(t)) within the window\n"
    monkeypatch.undo()
    monkeypatch.setattr(cli, "build_quotient", no_lift)
    assert main(["--compute", "quotient-basis"]) == 1
    assert capsys.readouterr().err == "NoIsotropicLift: found 2 negative classes, expected quotient rank 1\n"


def test_fock_basics_without_a_genus_is_invalid(capsys):
    """g = 0 leaves every check an empty loop: invalid input, not 8 passes."""
    assert main(["--suite", "fock-basics", "--param", "g=0"]) == 2
    assert "invalid parameters: g must be at least 1, got 0" in capsys.readouterr().err


def test_adjoint_without_a_genus_or_a_pair_is_invalid(capsys):
    """g = 0 checks nothing and grade = 0 leaves adjoint.01 no pair of grades."""
    assert main(["--suite", "adjoint", "--param", "g=0"]) == 2
    assert main(["--suite", "adjoint", "--param", "g=1", "--param", "grade=0"]) == 2
    assert "g and grade must be at least 1, got g=1, grade=0" in capsys.readouterr().err


def test_virasoro_over_an_empty_range_is_invalid(capsys):
    """kmax < 1 leaves the cocycle no pair (k, l) and virasoro.04 no order
    1..kmax; grade < 0 leaves no probe."""
    for args in (["kmax=-1", "grade=3"], ["kmax=0"], ["grade=-1"]):
        assert main(["--suite", "virasoro", *(a for arg in args for a in ("--param", arg))]) == 2
    assert "kmax must be at least 1 and grade at least 0, got kmax=6, grade=-1" in capsys.readouterr().err


def test_connection_below_grade_0_is_invalid(capsys):
    """grade < 0 leaves the curvature checks no probe, the vacuum included."""
    assert main(["--suite", "connection", "--param", "grade=-1"]) == 2
    assert "invalid parameters: grade must be at least 0, got -1" in capsys.readouterr().err


def test_wzw_gram_without_a_genus_is_invalid(capsys):
    """g = 0 leaves every wzw-gram check a 0 x 0 Gram: invalid input, not 3 passes."""
    assert main(["--suite", "wzw-gram", "--param", "g=0", "--param", "f=[0,1]"]) == 2
    assert "invalid parameters: g must be at least 1, got 0" in capsys.readouterr().err


def test_hyperelliptic_without_a_genus_is_invalid(monkeypatch, capsys):
    """g = 0 is refused before the model is built, not after records 01, 02
    and 04 of a curve that has no genus."""
    from focklab import cli

    calls = []
    monkeypatch.setattr(cli, "build_model", lambda *args: calls.append(args))
    assert main(["--suite", "hyperelliptic", "--param", "f=[1,1]", "--param", "g=0"]) == 2
    assert "invalid parameters: g must be at least 1, got 0" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("params", [["v=eb3"], ["g=0"], ["v=eb0"], ["v=eb-1"]])
def test_inner_product_refuses_a_generator_outside_the_genus(capsys, params):
    """Each index of a ē monomial lies in 1..g, and g is at least 1."""
    assert main(["--compute", "inner-product", *(a for arg in params for a in ("--param", arg))]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("invalid parameters: ") and "Traceback" not in out.err


def test_an_undetermined_ft4_check_is_skipped_with_a_witness(capsys):
    """bound = 0: D_1 of the constants is 0 and the perp is empty, so FT4
    certifies nothing; fock-type.03 is skipped, naming both flags, not failed."""
    rep = run_suite("fock-type", {"bound": 0})
    (ft4,) = [c for c in rep.checks if c.id == "fock-type.03-ft4"]
    assert (ft4.status, ft4.witness) == ("skipped", "FT4 for D1: nothing certified for preserves_A and maps_perp_to_A")
    assert not rep.failed
    assert main(["--suite", "fock-type", "--param", "bound=0"]) == 0


@pytest.mark.parametrize("flags, other, status", [
    ({"preserves_A": None}, {}, "skipped"),
    ({"maps_perp_to_A": None}, {}, "skipped"),
    ({"preserves_A": None, "maps_perp_to_A": False}, {}, "fail"),
    ({"preserves_A": False}, {}, "fail"),
    ({"preserves_A": None}, {"ft3": False}, "fail"),
])
def test_hyperelliptic_fock_type_reads_an_undetermined_ft4_flag_as_skipped(monkeypatch, capsys, flags, other, status):
    """A None FT4 flag of the tangent field skips hyperelliptic.02 with a
    witness naming it; a False flag still fails it, and so does a failed
    FT3 beside a None flag, with the certificate record as its witness."""
    from focklab import subalgebra

    real = subalgebra.FockSubalgebra.certify

    def certify(self, *args, **kwargs):
        record = real(self, *args, **kwargs)
        record["ft4"]["tangent"].update(flags)
        record.update(other)
        return record

    monkeypatch.setattr(subalgebra.FockSubalgebra, "certify", certify)
    rep = run_suite("hyperelliptic", {})
    (check,) = [c for c in rep.checks if c.id == "hyperelliptic.02-fock-type"]
    assert check.status == status
    assert [c.id for c in rep.failed] == (["hyperelliptic.02-fock-type"] if status == "fail" else [])
    if status == "skipped":
        assert check.witness == f"FT4 for tangent: nothing certified for {next(iter(flags))}"
    else:
        witness = json.loads(check.witness)
        assert witness["ft4"]["tangent"] == check.detail["ft4"]["tangent"]
        assert {key: witness[key] for key in other} == other
    assert main(["--suite", "hyperelliptic"]) == (1 if status == "fail" else 0)


def test_prec_and_param_N_together_are_invalid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "wzw-gram", "--param", "N=44", "--prec", "30"])
    assert exc.value.code == 2
    assert "parameter N is given twice: --param N=44 and --prec 30" in capsys.readouterr().err


def test_seed_and_param_seed_together_are_invalid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "fock-basics", "--param", "seed=5", "--seed", "7"])
    assert exc.value.code == 2
    assert "parameter seed is given twice: --param seed=5 and --seed 7" in capsys.readouterr().err


def test_suite_all_body_matches_the_committed_report():
    """The `--suite all` JSON at the default seed is byte-identical to
    tests/data/suite_all_20240808.json; a change that alters the body on
    purpose regenerates that file."""
    from pathlib import Path

    want = (Path(__file__).parent / "data" / "suite_all_20240808.json").read_bytes()
    assert run_suite("all", {"seed": 20240808}).to_json_bytes() == want


def test_ft4_with_every_membership_undecided_fails(monkeypatch, capsys):
    """An image whose membership the window cannot decide is never a pass:
    with the one-puncture membership returning None, no perp class is
    certified in A and D_1 certifies nothing, so fock-type.01 and
    fock-type.03 are FAILs with exit 1."""
    from focklab import subalgebra

    monkeypatch.setattr(subalgebra, "span_membership", lambda f, by_ord: None)
    rep = run_suite("fock-type", {})
    assert [c.id for c in rep.failed] == ["fock-type.01-genus0-perp", "fock-type.03-ft4"]
    assert main(["--suite", "fock-type"]) == 1


# Mutations of a kernel under the name the subalgebra module calls it by,
# each with exactly the fock-type ids it must fail: (name, wrapper of the
# real callable, ids).
FOCK_TYPE_MUTATIONS = {
    # FT3 sees a nonzero pairing of two sources of C[t^-1]
    "residue_form plus 1": (
        "residue_form", lambda real: lambda f, g: real(f, g) + 1, ["fock-type.02-certificates"]),
}


@pytest.mark.parametrize("mutation", list(FOCK_TYPE_MUTATIONS))
def test_each_fock_type_mutation_fails_exactly_its_ids(monkeypatch, capsys, mutation):
    from focklab import subalgebra

    name, make, ids = FOCK_TYPE_MUTATIONS[mutation]
    monkeypatch.setattr(subalgebra, name, make(getattr(subalgebra, name)))
    rep = run_suite("fock-type", {})
    assert len(rep.checks) == 4
    assert [c.id for c in rep.failed] == ids
    assert main(["--suite", "fock-type"]) == 1
