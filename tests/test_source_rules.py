"""Source rules, checked on the syntax tree of every module in focklab:

* no `except Exception` and no bare `except:` -- a broad handler would turn
  a defect (say a TypeError from a wrongly typed zero) into a verdict;
* no `assert` statement -- `python -O` strips it, so it cannot certify;
* no module-level import that the module never names -- except in
  `__init__.py`, whose imports are the package's re-exports;
* no `<dict>.pop(<key>, None)` call -- the accumulate-and-drop-zero idiom --
  outside `sparse.py`: a sparse sum goes through `sparse.add_term`, or into a
  kernel's private integer accumulator whose reader drops the zeros, so no
  hand-written loop can store a zero in a vector again;
* in cli.py, no `SuiteReport(...)` and no `.add(...)` call outside
  `run_suite` -- a suite yields records; only the runner writes the report;
* no `<name>.setdefault(<string literal>, ...)` call -- the hand-kept
  first-witness idiom: a `CheckRecord` keeps its own first witness;
* no import of `re` outside `scalars.py` -- `scalars.parse_expression` is
  the one tokenizer and grammar of exact values, so no second one can grow;
* no import inside a function body -- a module's dependencies are the
  imports at its top, where the unused-import rule sees them;
* no `raise IdentityFailed` in a function that contains `yield` -- a
  certificate that yields records reports a false identity as a False
  record, so one failure cannot erase the records after it;
* no import of `dataclasses` -- it loads `inspect`, `ast`, `dis` and
  `tokenize` into every `import focklab`, about 10 ms and 1 MB of resident
  memory, for records that plain classes serve as well;
* in cli.py, no `raise ValueError` -- the cli's bad input is
  `InvalidParameters`, so any other ValueError a run raises is a failed
  check, never "invalid parameters";
* no class attribute `staticmethod(<imported name>)` -- it binds the
  imported function when the class is made, so a test that patches the
  module's name (a mutation row) never reaches the code that calls it; a
  method that names the function looks it up at each call;
* a class that stores a `terms` dictionary -- in its `__slots__` or as
  `self.terms = ...` -- derives from `SparseVector`, so the linear structure,
  the printer and the module rule of a sparse vector exist once; `Form` is
  exempt because its values are matrices, not scalars;
* the modules together hold at most SOURCE_LINE_GATE lines -- a change that
  adds source lines pays for them with deletions;
* the package's public names, modules aside, are exactly PUBLIC_SURFACE -- an
  export is added or removed only by an edit of that list.
"""

import ast
import os
import subprocess
import sys
import types

import focklab

PACKAGE = os.path.dirname(os.path.abspath(focklab.__file__))
SOURCE_LINE_GATE = 5602
PUBLIC_SURFACE = """
    BasisNotQuasiSymplectic ConnectionData CurveFockData DegenerateFrame DegreeOverflow
    Derivation DifferentialField E_inverse E_map ExactMatrix FockSubalgebra FockVector Form
    GaussianRational HodgeFamily HyperellipticModel I InvalidParameters KMinusVector LaurentSeries
    NoIsotropicLift NonzeroResidue NotASquare NotInvertible NotReduced NotScalar
    NotSymplecticFrame OscFockVector Polynomial PrecisionExhausted QuadraticOperator
    QuotientSymplectic RationalFunction RepeatedRoots SpElement SymplecticSpace UElement
    WindowTooNarrow WrongDegree build_model build_quotient check_quasi_symplectic
    closure_falsifier compute compute_perp conj connection_blocks covariants
    covariants_of_modes curvature curve_fock_data ebar_monomial exterior_derivative fock_basis
    format_series genus0_subalgebra inner_product integrate lift_derivation mode_reduce
    modular_family normal_order_tensor osc_basis parse_gaussian parse_series permanent residue
    residue_form rho_apply rho_vector run_suite scalar_action series_multiply siegel_family
    span_membership standard_space tau tau_hat tau_hat_D tau_hat_Dk tau_hat_wrt_complement
    u_section verify_theorem31 virasoro_bracket wzw_gram
""".split()


def violations(tree):
    """(line, rule) for every breach in a module's syntax tree, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                found.append((node.lineno, "bare except"))
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for exc in caught:
                if isinstance(exc, ast.Name) and exc.id in ("Exception", "BaseException"):
                    found.append((node.lineno, f"except {exc.id}"))
    return sorted(found)


def unused_imports(tree):
    """(line, rule) for every module-level import whose name is never used."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, f"unused import {name}") for line, name in bound if name not in used]


def drop_zero_pops(tree):
    """(line, rule) for every `<dict>.pop(<key>, None)` call."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value is None
        ):
            found.append((node.lineno, "drop-zero pop outside sparse.add_term"))
    return sorted(found)


def module_imports(tree, module):
    """(line, rule) for every import of the top-level module `module`; a
    relative import of a package module of that name is not one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == module for a in node.names) or (
            isinstance(node, ast.ImportFrom) and node.module == module and not node.level
        ):
            found.append((node.lineno, f"{module} imported"))
    return found


def local_imports(tree):
    """(line, rule) for every import inside a function body, nested or not."""
    lines = {
        sub.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    }
    return [(line, "import inside a function") for line in sorted(lines)]


def generator_raises(tree):
    """(line, rule) for every `raise IdentityFailed` in the body of a function
    that itself contains `yield`; a function nested in it is judged alone."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(func.body)
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
        if not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own):
            continue
        for node in own:
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name) and exc.id == "IdentityFailed" or (
                isinstance(exc, ast.Attribute) and exc.attr == "IdentityFailed"
            ):
                found.append((node.lineno, "IdentityFailed raised in a generator"))
    return sorted(found)


def bare_value_errors(tree):
    """(line, rule) for every `raise ValueError`, called or not."""
    found = []
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(exc, ast.Name) and exc.id == "ValueError":
            found.append((node.lineno, "bare ValueError raised"))
    return sorted(found)


def imported_staticmethods(tree):
    """(line, rule) for every class attribute `staticmethod(x)` where x, or
    the root of a dotted x, is a name a module-level import binds."""
    imported = {
        a.asname or a.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "staticmethod" and len(value.args) == 1):
                continue
            root = value.args[0]
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append((node.lineno, "staticmethod of an imported name"))
    return found


def stores_terms(node) -> bool:
    """Whether node is an assignment `__slots__ = (..., "terms", ...)` or
    `self.terms = ...`, annotated or not."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return False
    for target in targets:
        if isinstance(target, ast.Name) and target.id == "__slots__":
            if any(isinstance(c, ast.Constant) and c.value == "terms" for c in ast.walk(node.value)):
                return True
        elif isinstance(target, ast.Attribute) and target.attr == "terms":
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                return True
    return False


def sparse_vector_copies(tree, exempt=()):
    """(line, rule) for every class that stores a `terms` attribute and
    neither is SparseVector nor derives from it, through a base named
    SparseVector or a class of this module that does; a class named in
    exempt is not judged."""
    derived = {"SparseVector"}
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
        if cls.name in derived or bases & derived:
            derived.add(cls.name)
        elif cls.name not in exempt and any(stores_terms(node) for node in ast.walk(cls)):
            found.append((cls.lineno, "terms stored outside SparseVector"))
    return found


def test_the_rules_catch_each_pattern():
    bad = "try:\n    pass\nexcept:\n    pass\ntry:\n    pass\nexcept (ValueError, Exception):\n    pass\nassert 1\n"
    assert [why for _, why in violations(ast.parse(bad))] == [
        "bare except", "except Exception", "assert statement"
    ]
    imports = "from __future__ import annotations\nimport os.path\nimport re as regex\nfrom a import b, c\nos.sep\nc()\n"
    assert [why for _, why in unused_imports(ast.parse(imports))] == [
        "unused import regex", "unused import b"
    ]
    pops = "s = d.get(k, 0) + c\nif s:\n    d[k] = s\nelse:\n    d.pop(k, None)\nd.pop(k)\nd.pop(k, 0)\nq.pop()\n"
    assert drop_zero_pops(ast.parse(pops)) == [(5, "drop-zero pop outside sparse.add_term")]
    regexes = "import os, re as regex\nfrom re import compile\ndef f():\n    import re\nimport reprlib\n"
    assert [line for line, _ in module_imports(ast.parse(regexes), "re")] == [1, 2, 4]
    records = (
        "import os, dataclasses as dc\nfrom dataclasses import dataclass\ndef f():\n    import dataclasses\n"
        "import dataclasses_json\nfrom .dataclasses import x\n"
    )
    assert [line for line, _ in module_imports(ast.parse(records), "dataclasses")] == [1, 2, 4]
    local = (
        "import os\ndef f():\n    from .a import b\n    def g():\n        import c\n"
        "class K:\n    import d\n    def m(self):\n        import e\n"
    )
    assert [line for line, _ in local_imports(ast.parse(local))] == [3, 5, 9]
    raises = (
        "def checks():\n    yield 'a', True\n    raise IdentityFailed('b')\n"
        "def gen():\n    if x:\n        raise scalars.IdentityFailed\n    yield from y\n"
        "def plain():\n    raise IdentityFailed('c')\n"
        "def outer():\n    def inner():\n        yield 1\n    raise IdentityFailed('d')\n"
        "def caught():\n    try:\n        yield 1\n    except IdentityFailed as exc:\n        yield str(exc)\n"
        "def other():\n    yield 1\n    raise ValueError('e')\n"
    )
    assert generator_raises(ast.parse(raises)) == [
        (3, "IdentityFailed raised in a generator"), (6, "IdentityFailed raised in a generator")
    ]
    values = (
        "raise ValueError('a')\nraise ValueError\nraise InvalidParameters('b')\n"
        "try:\n    pass\nexcept ValueError:\n    raise\nx = ValueError('c')\nraise WrongDegree('d') from None\n"
    )
    assert [line for line, _ in bare_value_errors(ast.parse(values))] == [1, 2]
    bindings = (
        "import laurent\nfrom .laurent import residue_form as rf\ndef local(f, g):\n    pass\n"
        "class A:\n    _pairing = staticmethod(rf)\n    _form = staticmethod(laurent.residue_form)\n"
        "    _local = staticmethod(local)\n    _fn = staticmethod(lambda f: f)\n"
        "    def _method(self, f, g):\n        return rf(f, g)\n"
        "class B:\n    kernel: object = staticmethod(rf)\n"
    )
    assert [line for line, _ in imported_staticmethods(ast.parse(bindings))] == [6, 7, 13]
    vectors = (
        "class SparseVector:\n    __slots__ = ('terms',)\n"
        "class Poly:\n    __slots__ = ('field', 'terms')\n"
        "class Vec(sparse.SparseVector):\n    def __init__(self):\n        self.terms = {}\n"
        "class Sub(Vec):\n    def grow(self):\n        self.terms = dict(self.terms)\n"
        "class Copy:\n    def __init__(self, terms):\n        self.terms: dict = terms\n"
        "class Form:\n    __slots__ = ('shape', 'terms')\n"
        "class Other:\n    __slots__ = ('coeffs',)\n    def f(self, v):\n        v.terms = {}\n"
        "class Bare:\n    terms: dict\n"
    )
    assert sparse_vector_copies(ast.parse(vectors), exempt={"Form"}) == [
        (3, "terms stored outside SparseVector"), (11, "terms stored outside SparseVector")
    ]


def test_package_sources_keep_the_rules():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{name}:{line}: {why}" for line, why in violations(tree)]
        found += [f"{name}:{line}: {why}" for line, why in local_imports(tree)]
        found += [f"{name}:{line}: {why}" for line, why in generator_raises(tree)]
        found += [f"{name}:{line}: {why}" for line, why in module_imports(tree, "dataclasses")]
        found += [f"{name}:{line}: {why}" for line, why in imported_staticmethods(tree)]
        found += [f"{name}:{line}: {why}" for line, why in sparse_vector_copies(tree, exempt={"Form"})]
        found += [f"{name}:{line}: {why}" for line, why in first_witness_setdefaults(tree)]
        if name != "__init__.py":
            found += [f"{name}:{line}: {why}" for line, why in unused_imports(tree)]
        if name != "sparse.py":
            found += [f"{name}:{line}: {why}" for line, why in drop_zero_pops(tree)]
        if name != "scalars.py":
            found += [f"{name}:{line}: {why} outside scalars.py" for line, why in module_imports(tree, "re")]
    assert found == []


def test_package_sources_stay_within_the_line_gate():
    total = 0
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    assert total <= SOURCE_LINE_GATE, total


def test_the_package_exports_exactly_the_public_surface():
    public = [
        name for name in dir(focklab)
        if not name.startswith("_") and not isinstance(getattr(focklab, name), types.ModuleType)
    ]
    assert public == sorted(PUBLIC_SURFACE)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = "import sys, focklab; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def report_writers(tree):
    """(line, rule) for every `SuiteReport(...)` or `.add(...)` call outside a
    top-level function named run_suite."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "run_suite":
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == "SuiteReport") or (
                isinstance(func, ast.Attribute) and func.attr == "add"
            ):
                found.append((call.lineno, "report written outside run_suite"))
    return sorted(found)


def test_the_report_rule_catches_each_pattern():
    src = (
        "def run_suite(name):\n    rep = SuiteReport(name, {})\n    rep.add('a', 's', True)\n"
        "def suite_x(params):\n    rep = SuiteReport('x', params)\n    rep.add('b', 's', True)\n"
        "    yield 'c', 's', True\n"
    )
    assert report_writers(ast.parse(src)) == [
        (5, "report written outside run_suite"), (6, "report written outside run_suite")
    ]


def first_witness_setdefaults(tree):
    """(line, rule) for every `<name>.setdefault(<key>, ...)` call whose key
    is a string literal, plain or formatted."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and isinstance(node.func.value, ast.Name)
            and node.args
            and (isinstance(node.args[0], ast.JoinedStr) or (
                isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)))
        ):
            found.append((node.lineno, "first witness kept by hand"))
    return sorted(found)


def test_the_witness_rule_catches_each_pattern():
    src = (
        "fail = {}\nfail.setdefault('01-a', 'w')\nfail.setdefault(f'{c}', w)\n"
        "groups.setdefault(key, []).append(1)\nby_grade.setdefault(len(k), [])\n"
        "self.fail.setdefault('02-b', w)\nfail.setdefault(3, w)\nrec['01-a'].fail('w')\n"
    )
    assert first_witness_setdefaults(ast.parse(src)) == [
        (2, "first witness kept by hand"), (3, "first witness kept by hand")
    ]


def test_no_suite_keeps_its_first_witness_by_hand_in_cli():
    path = os.path.join(PACKAGE, "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert first_witness_setdefaults(tree) == []


def test_only_the_runner_writes_reports_in_cli():
    path = os.path.join(PACKAGE, "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert report_writers(tree) == []


def test_cli_raises_no_bare_value_error():
    path = os.path.join(PACKAGE, "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert bare_value_errors(tree) == []
