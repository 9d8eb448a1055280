import json
import subprocess
import sys

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
