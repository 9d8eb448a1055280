"""Source rules, checked on the syntax tree of every module in focklab:

* no `except Exception` and no bare `except:` -- a broad handler would turn
  a defect (say a TypeError from a wrongly typed zero) into a verdict;
* no `assert` statement -- `python -O` strips it, so it cannot certify.
"""

import ast
import os

import focklab

PACKAGE = os.path.dirname(os.path.abspath(focklab.__file__))


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


def test_the_rules_catch_each_pattern():
    bad = "try:\n    pass\nexcept:\n    pass\ntry:\n    pass\nexcept (ValueError, Exception):\n    pass\nassert 1\n"
    assert [why for _, why in violations(ast.parse(bad))] == [
        "bare except", "except Exception", "assert statement"
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
    assert found == []
