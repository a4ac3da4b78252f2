#!/usr/bin/env python3
"""List every defaulted parameter of the package that no call sets.

Collects the parameters with a default of each function and method under
``src/vipair`` and the defaulted fields of its dataclasses.  A parameter
counts as set when some call in ``src/``, ``tests/``, ``scripts/`` or
``bench/`` to a function (or class) of the same name passes it by keyword or
by position; a ``*args`` splat sets every position from its own on, and a
``**kwargs`` splat sets every parameter.  A dataclass field also counts as
set when some statement assigns ``<anything>.<field> = ...`` or calls a
method on it, as an accumulator's ``history.records.append(...)`` does.

Calls are matched by the called name alone, so a same-named function
elsewhere can hide a dead parameter; a call through an alias or a variable
is not seen.  Each printed line is ``path:line  Owner.param``.  A second
section lists the defaulted parameters that only calls under ``tests/`` set.

A third section lists the top-level names (functions, classes and
module-level assignments, dunders aside) of the package that no code under
``src/`` loads by name or reads as an attribute: API that only tests or
scripts use.  It too matches by name alone, so a same-named attribute
anywhere under ``src/`` counts as a use.

Run from the repository root:  python scripts/unused_params.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vipair"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "scripts", ROOT / "bench"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _decorator_names(node) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        names.add(dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", ""))
    return names


def _function_def(fn, owner: str | None):
    """(call name, label, positional names, defaulted names) of one def."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if owner and "staticmethod" not in _decorator_names(fn):
        positional = positional[1:]          # self / cls
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    name = owner if fn.name == "__init__" else fn.name
    label = f"{owner}.{fn.name}" if owner and fn.name != "__init__" else (owner or fn.name)
    return name, label, positional, defaulted


def _dataclass_def(cls):
    fields = [s for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
              and "ClassVar" not in ast.unparse(s.annotation)]
    positional = [s.target.id for s in fields]
    defaulted = [s.target.id for s in fields if s.value is not None]
    return cls.name, cls.name, positional, defaulted


def _collect(nodes, owner: str | None, rel: str, out: list):
    for node in nodes:
        if isinstance(node, ast.FunctionDef):
            out.append((*_function_def(node, owner), False, f"{rel}:{node.lineno}"))
            _collect(node.body, None, rel, out)       # nested helpers
        elif isinstance(node, ast.ClassDef):
            if "dataclass" in _decorator_names(node):
                out.append((*_dataclass_def(node), True, f"{rel}:{node.lineno}"))
            _collect(node.body, node.name, rel, out)


def definitions():
    """[(call name, label, positional names, defaulted names, is dataclass, where)]."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        _collect(_parse(path).body, None, path.relative_to(ROOT).as_posix(), out)
    return out


def calls_and_stores(callers):
    """Every call's (name, positional count, starred-from index, keywords, has **)
    under the caller directories, and the attribute names assigned or mutated there."""
    calls, stores = [], set()
    for base in callers:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    stores.add(node.attr)
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                    stores.add(func.value.attr)      # x.field.append(...) fills a field
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name is None:
                    continue
                starred = next((i for i, a in enumerate(node.args)
                                if isinstance(a, ast.Starred)), None)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                splat = any(k.arg is None for k in node.keywords)
                calls.append((name, len(node.args), starred, keywords, splat))
    return calls, stores


def _unset(callers) -> list[str]:
    calls, stores = calls_and_stores(callers)
    lines = []
    for name, label, positional, defaulted, is_dataclass, where in definitions():
        for param in defaulted:
            if is_dataclass and param in stores:
                continue
            index = positional.index(param) if param in positional else None
            for cname, n_pos, starred, keywords, splat in calls:
                if cname != name:
                    continue
                if splat or param in keywords or (
                        index is not None and (starred is not None or index < n_pos)):
                    break
            else:
                lines.append(f"{where}  {label}.{param}")
    return lines


def unused() -> list[str]:
    """Defaulted parameters that no call sets."""
    return _unset(CALLERS)


def set_only_by_tests() -> list[str]:
    """Defaulted parameters that only calls under ``tests/`` set."""
    never = set(unused())
    return [line for line in _unset([c for c in CALLERS if c.name != "tests"])
            if line not in never]


def _top_level_names(module: ast.Module) -> list[tuple[int, str]]:
    out = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def unreferenced() -> list[str]:
    """Top-level names of the package that nothing under ``src/`` uses."""
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{path.relative_to(ROOT).as_posix()}:{line}  {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line, name in _top_level_names(_parse(path)) if name not in used]


def main() -> None:
    lines = unused()
    print("\n".join(lines) if lines else "no unused defaulted parameters")
    lines = set_only_by_tests()
    print("\nset only by tests:")
    print("\n".join(lines) if lines else "none")
    lines = unreferenced()
    print("\ntop-level names nothing under src/ uses:")
    print("\n".join(lines) if lines else "none")


if __name__ == "__main__":
    main()
