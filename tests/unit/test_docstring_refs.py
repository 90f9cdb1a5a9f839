"""A docstring cross-reference names something that exists.

Every ``:mod:`` / ``:class:`` / ``:meth:`` / ``:func:`` / ``:attr:`` target
under ``src/repro`` must resolve.  A dotted ``repro.*`` target resolves by
import plus ``getattr`` (so does another dotted one that starts with an
importable module, ``asyncio.StreamReader``); a bare one against its
module: its definitions (classes' members included), its imports and, in a
package ``__init__``, its export table -- all of which the imported module
object answers.  An instance attribute (``self.x = ...``, a dataclass
field, a ``__slots__`` entry) counts as a member of its class.
"""

import ast
import importlib
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
ROLE = re.compile(r":(?:mod|class|meth|func|attr):`([^`]+)`")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _targets() -> Iterator[Tuple[str, int, str]]:
    for path in sorted((SRC / "repro").rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for target in ROLE.findall(line):
                yield _module_name(path), number, target


def _instance_attributes() -> Dict[str, Set[str]]:
    """Class name -> the attributes its instances carry but the class
    object may not (assigned on ``self``, annotated fields, slots)."""
    found: Dict[str, Set[str]] = {}
    for path in (SRC / "repro").rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = found.setdefault(cls.name, set())
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and isinstance(node.ctx, ast.Store)):
                    names.add(node.attr)
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name):
                    names.add(item.target.id)
                if (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in item.targets)):
                    names.update(node.value for node in ast.walk(item.value)
                                 if isinstance(node, ast.Constant))
    return found


INSTANCE_ATTRIBUTES = _instance_attributes()


def _walk(obj: object, parts: List[str]) -> bool:
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, type) and any(
                part in INSTANCE_ATTRIBUTES.get(cls.__name__, ())
                for cls in obj.__mro__):
            return part == parts[-1]
        else:
            return False
    return True


def _module_classes(module: object) -> List[type]:
    return [value for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == module.__name__]


def _imported(parts: List[str]) -> Optional[bool]:
    """Resolve ``parts`` by import plus ``getattr``; None when not even its
    first part is a module."""
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _walk(module, parts[cut:])
    return None


def resolves(module_name: str, target: str) -> bool:
    parts = target.lstrip("~!").removesuffix("()").split(".")
    if parts[0] == "repro" or len(parts) > 1 and _imported(parts):
        return bool(_imported(parts))
    module = importlib.import_module(module_name)
    if _walk(module, parts):
        return True
    # A bare member of one of the module's classes: ``:meth:`undrain```.
    return any(_walk(cls, parts) for cls in _module_classes(module))


TARGETS = list(_targets())


def test_the_scan_finds_the_cross_references():
    assert len(TARGETS) > 300
    assert sum(target.lstrip("~!").startswith("repro.")
               for _, _, target in TARGETS) > 150


@pytest.mark.parametrize("module_name", sorted({m for m, _, _ in TARGETS}))
def test_every_cross_reference_resolves(module_name):
    broken = [f"{module_name}:{number} {target}"
              for name, number, target in TARGETS
              if name == module_name and not resolves(name, target)]
    assert broken == []
