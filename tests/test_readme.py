"""README's module-qualified names against the package."""

import importlib
import re
from pathlib import Path

import pfasst_lfa

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(path.stem for path in Path(pfasst_lfa.__file__).parent.glob("*.py"))


def _qualified_names():
    """Every backticked ``module.name`` (a call's arguments dropped) whose module is one of the package's."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        match = re.match(r"([a-z_]+)\.([A-Za-z_][\w.]*)", span)
        if match and match.group(1) in MODULES and match.group(2) != "py":  # errors.py is a file name
            names.add((match.group(1), match.group(2).rstrip(".")))
    return sorted(names)


def test_readme_module_qualified_names_resolve():
    names = _qualified_names()
    assert ("analysis", "build_context") in names  # the pattern still finds README's names
    missing = []
    for module, path in names:
        obj = importlib.import_module(f"pfasst_lfa.{module}")
        for attr in path.split("."):
            if not hasattr(obj, attr):
                missing.append(f"{module}.{path}")
                break
            obj = getattr(obj, attr)
    assert not missing, f"README names what the package does not define: {missing}"
