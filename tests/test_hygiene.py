"""Source hygiene that no installed linter checks.

Every import is used, the package ``__init__`` exports exactly the names
it imports, every module-level private function in ``src/modmaj`` is
referenced from somewhere in ``src`` besides its own body, every public
one, function or class, is exported or so referenced, every name a
docstring or comment there quotes in double backticks is bound in that
code, every private name the README quotes in single backticks is bound
at the top level of a module, every ``modmaj`` command line in a README
code block parses, ``modmaj.cli`` writes reports and usage errors only
from ``main``, and no function in ``src/modmaj`` writes module-level state.
"""

import ast
import builtins
import io
import re
import shlex
import tokenize
from collections import defaultdict
from operator import attrgetter
from pathlib import Path

import pytest

from modmaj import cli

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"  # a package __init__ imports to re-export
)


def unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import statement and never referenced in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\nprint(w, a.b)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]


def export_faults(tree: ast.Module) -> list[str]:
    """Names a package ``__init__`` imports but leaves out of ``__all__``, or lists there but never imports.

    A name listed twice in ``__all__`` is a fault too.
    """
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
    )
    faults = [f"not exported: {name}" for name in sorted(set(imported) - set(exported))]
    faults += [f"not imported: {name}" for name in sorted(set(exported) - set(imported))]
    faults += [f"exported twice: {name}" for name in sorted(set(exported)) if exported.count(name) > 1]
    return faults


def test_package_exports_what_it_imports():
    tree = ast.parse((ROOT / "src" / "modmaj" / "__init__.py").read_text(encoding="utf-8"))
    assert export_faults(tree) == []


def test_export_fault_is_found():
    tree = ast.parse("from .a import x, y\nfrom .b import z\n__all__ = ['x', 'w', 'x', 'z']\n")
    assert export_faults(tree) == ["not exported: y", "not imported: w", "exported twice: x"]


def references(modules: dict[str, ast.Module]) -> defaultdict[str, set[tuple[str, int]]]:
    """For each name, the (path, index) of every top-level statement that references it.

    A reference is a name, an attribute or an imported name anywhere in the
    statement.
    """
    referenced = defaultdict(set)
    for path, tree in modules.items():
        for index, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    referenced[node.id].add((path, index))
                elif isinstance(node, ast.Attribute):
                    referenced[node.attr].add((path, index))
                elif isinstance(node, ast.alias):
                    referenced[node.name].add((path, index))
    return referenced


def dead_private_functions(modules: dict[str, ast.Module]) -> list[str]:
    """Module-level private functions that no other top-level statement references.

    A reference lies anywhere in the given modules, outside the function's
    own definition (so recursion does not count).
    """
    referenced = references(modules)
    return [
        f"{path}:{stmt.lineno}: {stmt.name}"
        for path, tree in modules.items()
        for index, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_")
        and not stmt.name.endswith("__")
        and not referenced[stmt.name] - {(path, index)}
    ]


def test_no_dead_private_functions():
    modules = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert dead_private_functions(modules) == []


def test_dead_private_function_is_found():
    a = ast.parse("def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n")
    b = ast.parse("from a import _used\n_used()\n")
    assert dead_private_functions({"a.py": a, "b.py": b}) == ["a.py:4: _dead"]


# Public names that nothing in src uses and the package does not export:
# bench/test_bench.py calls parallel_map, which ROADMAP direction 4 removes.
UNEXPORTED_PUBLIC_NAMES = {"parallel_map"}


def dead_public_names(modules: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """Module-level public functions and classes neither exported nor referenced by another top-level statement."""
    referenced = references(modules)
    return [
        f"{path}:{stmt.lineno}: {stmt.name}"
        for path, tree in modules.items()
        for index, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in exported
        and not referenced[stmt.name] - {(path, index)}
    ]


def test_no_dead_public_names():
    package = ROOT / "src" / "modmaj"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = next(
        set(ast.literal_eval(node.value))
        for node in init.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
    )
    modules = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the exports
    }
    assert [fault.rpartition(" ")[2] for fault in dead_public_names(modules, exported)] == sorted(
        UNEXPORTED_PUBLIC_NAMES
    )


def test_dead_public_name_is_found():
    a = ast.parse(
        "class Used:\n    pass\n\ndef exported():\n    pass\n\n"
        "def dead(n):\n    return dead(n - 1)\n\nclass Dead:\n    pass\n\ndef _private():\n    pass\n"
    )
    b = ast.parse("from a import Used\nUsed()\n")
    assert dead_public_names({"a.py": a, "b.py": b}, {"exported"}) == ["a.py:7: dead", "a.py:10: Dead"]


def report_path_faults(tree: ast.Module) -> list[str]:
    """Breaks of the CLI's one report path in a module's top-level functions.

    Only ``main`` may call ``emit`` or ``_check_out``, and no ``cmd_*``
    function may call ``print`` or name ``stderr``: a command returns its
    report and raises ValueError on a usage error.
    """
    faults = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        command = stmt.name.startswith("cmd_")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("emit", "_check_out") and stmt.name != "main":
                    faults.append(f"{stmt.name} calls {name}")
                elif name == "print" and command:
                    faults.append(f"{stmt.name} calls print")
            elif command and isinstance(node, ast.Attribute) and node.attr == "stderr":
                faults.append(f"{stmt.name} writes to sys.stderr")
    return faults


def test_cli_has_one_report_path():
    tree = ast.parse((ROOT / "src" / "modmaj" / "cli.py").read_text(encoding="utf-8"))
    assert report_path_faults(tree) == []


def test_report_path_fault_is_found():
    tree = ast.parse(
        "def cmd_a(args):\n    print('x', file=sys.stderr)\n    report.emit(1)\n\n"
        "def helper():\n    _check_out(None)\n\ndef main():\n    emit(1)\n    print(2)\n"
    )
    assert sorted(report_path_faults(tree)) == [
        "cmd_a calls emit",
        "cmd_a calls print",
        "cmd_a writes to sys.stderr",
        "helper calls _check_out",
    ]


# Double-backticked words in src/modmaj docstrings and comments that are not
# names in its code: the command names, a paper quantity, a report key, a
# folder and a json.dumps keyword.
NON_CODE_WORDS = {"bounds", "verify", "a_r", "small_dimension", "src", "indent"}

QUOTED_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def bound_names(tree: ast.AST) -> set[str]:
    """Names the module binds: definitions, parameters, assignment targets and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).partition(".")[0])
    return names


def quoted_names(source: str) -> set[str]:
    """The double-backticked identifiers, dotted or not, in the module's docstrings and comments."""
    tree = ast.parse(source)
    texts = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    texts += [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    return {name for text in texts for name in QUOTED_NAME.findall(text)}


def unbound_quoted_names(sources: dict[str, str], package: str) -> list[str]:
    """Quoted names with a part that no module binds and that is no module, builtin or listed word.

    ``sources`` maps each module's name to its text.
    """
    known = set(sources) | {package} | set(dir(builtins)) | NON_CODE_WORDS
    for source in sources.values():
        known |= bound_names(ast.parse(source))
    return sorted(
        f"{module}: {name}"
        for module, source in sources.items()
        for name in quoted_names(source)
        if not set(name.split(".")) <= known
    )


def test_docstrings_name_bound_code():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "modmaj").glob("*.py"))
    }
    assert unbound_quoted_names(sources, "modmaj") == []


def test_unbound_quoted_name_is_found():
    a = (
        '"""Uses ``b.helper``, ``pkg.a``, ``len`` and ``verify``, not ``_gone``."""\n'
        "def f(x):\n"
        '    """Returns ``x``; see ``b._also_gone``."""\n'
        "    return x  # ``c.f`` and ``b.helper(x)`` unchecked\n"
    )
    b = "def helper():\n    pass\n"
    assert unbound_quoted_names({"a": a, "b": b}, "pkg") == ["a: _gone", "a: b._also_gone", "a: c.f"]


README_PRIVATE_NAME = re.compile(r"(?<!`)`(_[A-Za-z]\w*)`(?!`)")


def module_level_names(tree: ast.Module) -> set[str]:
    """Names a module's top-level statements bind: definitions, assignment targets and imports."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                names.update(node.id for node in ast.walk(target) if isinstance(node, ast.Name))
    return names


def unbound_readme_names(readme: str, modules: list[ast.Module]) -> list[str]:
    """The single-backticked private names ``_name`` in the README that no module binds at its top level."""
    bound = set().union(*map(module_level_names, modules))
    return sorted(set(README_PRIVATE_NAME.findall(readme)) - bound)


def test_readme_names_bound_code():
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "modmaj").glob("*.py")]
    assert unbound_readme_names((ROOT / "README.md").read_text(encoding="utf-8"), modules) == []


def test_unbound_readme_name_is_found():
    module = ast.parse("import a as _alias\n_TABLE: dict = {}\n_x, _y = 1, 2\n\ndef _here():\n    _local = 1\n")
    readme = "`_here`, `_alias`, `_TABLE`, `_y`, ``_quoted``, `_local` and `_gone` (`_gone`)\n"
    assert unbound_readme_names(readme, [module]) == ["_gone", "_local"]


def refused_readme_commands(readme: str) -> list[str]:
    """The lines of the README's code blocks that start with ``modmaj `` and that the parser refuses.

    Each line is split as a shell would, its comment dropped, and only
    parsed: nothing is run.
    """
    lines = [line for block in readme.split("```")[1::2] for line in block.splitlines() if line.startswith("modmaj ")]
    assert lines, "no modmaj command line in a code block"
    parser = cli.build_parser()
    refused = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            refused.append(line)
    return refused


def test_readme_commands_parse():
    assert refused_readme_commands((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_refused_readme_command_is_found(capsys):
    readme = "run\n```sh\nmodmaj classify --n-max 6  # fine\nmodmaj verify --n-max 6 --suite nosuch\n```\nmodmaj verify --bad\n"
    assert refused_readme_commands(readme) == ["modmaj verify --n-max 6 --suite nosuch"]
    assert "nosuch" in capsys.readouterr().err


# Methods that change the list, dict or set they are called on.
MUTATORS = {
    "append", "extend", "insert", "update", "setdefault", "pop", "popitem",
    "clear", "add", "discard", "remove", "sort", "reverse",
}


def outermost_functions(stmts: list[ast.stmt]):
    """The functions defined by these statements, the methods of their classes, nested classes included."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from outermost_functions(stmt.body)


def root_name(node: ast.expr) -> str | None:
    """The name at the base of a chain of attributes and subscripts, or None when the base is no name."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_writes(tree: ast.Module) -> list[str]:
    """The lines where a function or method of the module writes module-level state.

    A write is a ``global`` statement, a store into or a delete of a
    subscript or attribute based on a module-level name, or a call of one of
    the ``MUTATORS`` on such a name.  A name the function binds itself (a
    parameter, an assignment target, an import or a definition, in it or in
    a function nested in it) is its own, not the module's.
    """
    module = module_level_names(tree)
    faults = []
    for func in outermost_functions(tree.body):
        nodes = list(ast.walk(func))
        own = bound_names(func) - {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
        shared = module - own
        for node in sorted((node for node in nodes if hasattr(node, "lineno")), key=attrgetter("lineno")):
            if isinstance(node, ast.Global):
                written = f"global {', '.join(node.names)}"
            elif (
                isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and root_name(node) in shared
            ):
                written = ast.unparse(node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and root_name(node.func.value) in shared
            ):
                written = ast.unparse(node.func)
            else:
                continue
            faults.append(f"line {node.lineno} in {func.name}: {written}")
    return faults


def test_no_function_writes_module_state():
    faults = {
        path.name: module_state_writes(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "modmaj").glob("*.py"))
    }
    assert {name: found for name, found in faults.items() if found} == {}


def test_module_state_write_is_found():
    tree = ast.parse(
        "import os\n"
        "_CYCLOTOMIC_VALUES = {}\n"
        "_TABLE = {}\n"
        "_SEEN = []\n"
        "_COUNT = 0\n"
        "\n"
        "def _cyclotomic_values(w, exps):\n"  # qpoly's hand-built cache before lru_cache
        "    values = _CYCLOTOMIC_VALUES.get(w)\n"
        "    if values is None:\n"
        "        values = _CYCLOTOMIC_VALUES[w] = []\n"
        "    values += [0] * len(exps)\n"
        "    return values\n"
        "\n"
        "def bump():\n"
        "    global _COUNT\n"
        "    _COUNT += 1\n"
        "\n"
        "def note(x):\n"
        "    _SEEN.append(x)\n"
        "    _TABLE[x].sort()\n"
        "    del _TABLE[x]\n"
        "    os.environ.update(X='1')\n"
        "\n"
        "class Table:\n"
        "    def fill(self, _SEEN):\n"
        "        _SEEN.append(1)\n"  # a parameter, not the module's list
        "        self.rows = _TABLE.get(1)\n"
        "        found = []\n"
        "        found.append(len(_SEEN))\n"
        "\n"
        "        def inner():\n"
        "            found.clear()\n"
        "            _TABLE.clear()\n"
        "        return inner\n"
    )
    assert module_state_writes(tree) == [
        "line 10 in _cyclotomic_values: _CYCLOTOMIC_VALUES[w]",
        "line 15 in bump: global _COUNT",
        "line 19 in note: _SEEN.append",
        "line 20 in note: _TABLE[x].sort",
        "line 21 in note: _TABLE[x]",
        "line 22 in note: os.environ.update",
        "line 33 in fill: _TABLE.clear",
    ]
