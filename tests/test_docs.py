"""README checks: the quickstart states true values, the package root exports
exactly the documented Library API, the CLI section names every subcommand,
the digest paragraph names every test corpus, the traced bench run can
still find every function it wraps, every private name the docs mention
exists, only perm.is_permutation tests permutation validity, and each
module imports only from the layers below it (Package layout)."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import hamcompress
from corpora import CORPORA
from hamcompress import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else len(README)]


def test_quickstart_runs_and_its_comments_state_the_values():
    block = re.search(r"```python\n(.*?)```", _section("Library quickstart"), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((value, lines[stmt.lineno - 1].split("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    # kappa(Petersen), Sem(Petersen), Ham(complement), certificate shift of x_mnr(3,7,2)
    assert [value for value, _ in shown] == [0, (1, 5), (1, 5), 7]
    for value, comment in shown:
        assert comment.startswith(repr(value)), (value, comment)
    assert namespace["res"].kappa == 3
    assert "kappa = 3" in next(line for line in lines if line.startswith("res ="))


def test_exports_are_the_documented_library_api():
    public = {
        name
        for name, obj in vars(hamcompress).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    documented = set(re.findall(r"`(\w+)`", _section("Library API")))
    assert public == documented


def test_cli_section_names_every_subcommand():
    parser = cli.build_parser()
    (sub,) = (action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction))
    documented = set(re.findall(r"^hamcompress ([\w-]+)", _section("CLI"), re.M))
    assert set(sub.choices) == documented


def test_digest_paragraph_names_every_corpus():
    """The Install and test paragraph on the answer digests names, in
    backticks, each corpus that tests/corpora.py registers."""
    start = README.index("`tests/test_answer_digests.py`")
    paragraph = README[start:README.index("\n\n", start)]
    assert set(CORPORA) <= set(re.findall(r"`([\w-]+)`", paragraph))


def test_traced_bench_run_finds_every_wrapped_function():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "hcbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attribute)
        for module, attribute, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(f"hamcompress.{module}"), attribute)
    ]
    assert missing == []


def test_every_src_name_is_used_outside_the_tests():
    """A top-level function, class or constant of src/hamcompress that no
    src/ module nor hcbench/ names (as a name, attribute or import) lives
    only for the tests; the package exports are the exception."""
    used: set[str] = set()
    defined = []
    for path in sorted([*(ROOT / "src" / "hamcompress").glob("*.py"),
                        *(ROOT / "hcbench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        if path.parent.name != "hamcompress":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.extend((path.name, t.id) for t in targets if isinstance(t, ast.Name))
    exports = set(vars(hamcompress))
    assert [(module, name) for module, name in defined
            if name not in used and name not in exports] == []


def test_every_dataclass_field_is_read_outside_the_tests():
    """Every annotated field of a src/hamcompress dataclass is read as an
    attribute somewhere in src/ or hcbench/; a field only the tests read
    holds a fact the program never uses."""
    read: set[str] = set()
    fields = []
    for path in sorted([*(ROOT / "src" / "hamcompress").glob("*.py"),
                        *(ROOT / "hcbench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        if path.parent.name != "hamcompress":
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                    for d in cls.decorator_list):
                fields += [(path.name, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert fields and [f for f in fields if f[2] not in read] == []


def test_every_dataclass_default_is_used_outside_the_tests():
    """Every default of a src/hamcompress dataclass field is taken by some
    construction in src/ or hcbench/: a call that passes the field neither
    by position nor by keyword. A default every construction overrides is
    a second, unused statement of the field."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted([*(ROOT / "src" / "hamcompress").glob("*.py"),
                                 *(ROOT / "hcbench").glob("*.py")])}
    defaults = {}  # class name -> (field names in order, indices of defaulted fields)
    for path, tree in trees.items():
        if path.parent.name != "hamcompress":
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                    for d in cls.decorator_list):
                body = [stmt for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
                defaults[cls.name] = ([s.target.id for s in body],
                                      [i for i, s in enumerate(body) if s.value is not None])
    used = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in defaults:
                continue
            names, defaulted = defaults[name]
            passed = {kw.arg for kw in call.keywords}
            assert None not in passed and not any(isinstance(a, ast.Starred) for a in call.args)
            used.update((name, names[i]) for i in defaulted
                        if i >= len(call.args) and names[i] not in passed)
    declared = {(name, names[i]) for name, (names, defaulted) in defaults.items()
                for i in defaulted}
    assert ("Budget", "time_budget") in declared and declared - used == set()


def test_no_src_module_imports_a_name_it_never_reads():
    """Every name a src/hamcompress module imports is read in that module
    (as a name or the root of an attribute chain); the package root, whose
    imports are the Library API, and `from __future__` are the exceptions."""
    unread = []
    for path in sorted((ROOT / "src" / "hamcompress").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, name) for name in imported if name not in read]
    assert unread == []


def test_no_src_function_ignores_a_parameter():
    """Every parameter of a src/hamcompress function or lambda is read in
    its body. cli.py's report_* functions, (g, args), and the lambdas of
    its FAMILIES table, (args), are the exceptions: each group shares one
    calling convention, whether or not a member reads every argument."""
    unread = []
    for path in sorted((ROOT / "src" / "hamcompress").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "cli.py":
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("report_"):
                    exempt.add(stmt)
                elif isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "FAMILIES" for t in stmt.targets):
                    exempt.update(n for n in ast.walk(stmt) if isinstance(n, ast.Lambda))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if node in exempt:
                continue
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", f"lambda at line {node.lineno}")
            unread += [(path.name, name, p.arg) for p in params if p.arg not in read]
    assert unread == []


def test_every_private_name_the_docs_mention_is_defined():
    """Every underscore-prefixed name that README.md, a src/hamcompress
    docstring or a src/ comment mentions is defined (as a function, class or
    assigned name) in src/hamcompress: a renamed or deleted helper leaves
    no stale mention. ROADMAP.md and CHANGES.md are history and stay out."""
    private = re.compile(r"(?<![\w.])_[A-Za-z]\w*")
    mentioned = {(name, "README.md") for name in private.findall(README)}
    defined = set()
    for path in sorted((ROOT / "src" / "hamcompress").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.COMMENT]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                texts.append(ast.get_docstring(node) or "")
        mentioned.update((name, path.name) for text in texts for name in private.findall(text))
    assert len(mentioned) > 10 and sorted(m for m in mentioned if m[0] not in defined) == []


def test_every_private_src_def_is_referenced_in_src():
    """Every private function or class of src/hamcompress, at any depth, is
    referenced (as a name, attribute or import) by src/ code outside its own
    body. A helper that only the tests, hcbench/ or itself reach is dead
    code in the package."""
    def references(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else
                       n.attr if isinstance(n, ast.Attribute) else n.name
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "hamcompress").glob("*.py"))}
    total = sum(map(references, trees.values()), Counter())
    private = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(private) > 20 and [(module, node.name) for module, node in private
                                  if total[node.name] <= references(node)[node.name]] == []


def test_only_is_permutation_compares_sorted_images_with_a_range():
    """perm.is_permutation is the one permutation-validity test: no other
    code of src/hamcompress compares sorted(...) with list(range(...)) by
    == or !=; each such check calls it instead."""
    def call_of(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    found = []
    for path in sorted((ROOT / "src" / "hamcompress").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)):
                continue
            sides = [node.left, *node.comparators]
            if (any(call_of(side, "sorted") for side in sides)
                    and any(call_of(side, "list") and side.args and call_of(side.args[0], "range")
                            for side in sides)):
                found.append((path.name, owner.get(id(node)), node.lineno))
    assert [(module, fn) for module, fn, _ in found] == [("perm.py", "is_permutation")], found


# Each module of src/hamcompress imports only from the layers below its own.
LAYERS = (("perm", "numth"), ("graph",), ("autgroup", "hamlift", "families"),
          ("compression",), ("verify",), ("cli",))


def test_modules_import_only_from_lower_layers():
    """perm and numth import nothing of the package, graph only them, and
    autgroup, hamlift and families none of each other: the automorphism
    test is the graph layer's, and the group search sits beside the
    Hamilton search and the families, not under them."""
    layer = {module: i for i, modules in enumerate(LAYERS) for module in modules}
    modules = {path.stem for path in (ROOT / "src" / "hamcompress").glob("*.py")}
    assert modules - {"__init__"} == layer.keys()
    upward = []
    for module, i in layer.items():
        tree = ast.parse((ROOT / "src" / "hamcompress" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:  # the package imports itself relatively
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(module, t) for t in targets if layer[t] >= i]
    assert upward == []
