"""The error hierarchy: every error class has a raise site, and the package exports exactly them."""

import ast
from pathlib import Path

import pfasst_lfa
from pfasst_lfa import errors
from pfasst_lfa.errors import PfasstLfaError

SOURCE = Path(pfasst_lfa.__file__).parent


def _error_classes() -> set[str]:
    """The names of the classes that errors.py defines."""
    return {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, PfasstLfaError)}


def _raised_names() -> set[str]:
    """The names X of every ``raise X`` or ``raise X(...)`` in the package source."""
    names = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_has_a_raise_site():
    subclasses = _error_classes() - {"PfasstLfaError"}
    assert subclasses, "errors.py defines no error class"
    assert subclasses - _raised_names() == set()


def test_package_exports_exactly_the_error_classes():
    assert sorted(pfasst_lfa.__all__) == sorted({"__version__", *_error_classes()})
    for name in pfasst_lfa.__all__:
        assert hasattr(pfasst_lfa, name)
