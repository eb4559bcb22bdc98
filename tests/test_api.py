"""Every optional parameter of the package is set by some caller, every parameter is read, and every name is used.

An option that no call in ``src/``, ``tests/`` or ``bench/`` ever sets to
another value than its default runs with one value only, so it is a constant.
Calls are matched to definitions by name (``f(...)`` and ``obj.f(...)`` match
every ``def f``; ``C(...)`` matches ``C.__init__``, whose options include a
dataclass's fields with a default).  A parameter counts as set
when a call passes it by keyword, reaches its position, or passes ``*args`` /
``**kwargs``, unless the value passed is a literal equal to the default (a
literal is a constant expression, or a name that the file assigns one at
module level).  A call that only forwards the caller's own option
(``g(x, tol=tol)``) sets it when that option is set somewhere.  An option
that only tests set is declared in ``TEST_SET_OPTIONS`` with the reason it stays.

A parameter that its function's body never reads is dead weight in every call;
a method's ``self`` and the runners' ``(cfg, out)`` interface are exempt.

A module-level function, class or constant of the package is used when some
file in ``src/``, ``tests/`` or ``bench/`` names it outside its definition:
as a name, an attribute, an imported name, or a string (``bench/spans.py``
names its targets by string).  A method, property or dataclass field of a
package class is read when some file reads an attribute of its name, or names
it as a string, outside its own definition.  Both scans match by name only.
"""

import ast
from pathlib import Path
from typing import NamedTuple

from causalfermion import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "causalfermion"


class _Literal(NamedTuple):
    """A call argument that is a literal, with its value."""

    value: object


_NOT_LITERAL = object()


class _Scan(ast.NodeVisitor):
    """Defaulted parameters of the definitions, and the arguments of every call."""

    def __init__(self, where: str):
        self.where = where
        self.options = []  # (where, name, parameter, position or None for keyword-only, default value)
        self.calls = []  # (name, positional count or inf, {keyword: source} or None, {position: source})
        self._classes = []
        self._defs = []  # enclosing (name, defaulted parameter names)
        self._constants = {}  # module-level names assigned a literal

    def visit_Module(self, node):
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                value = self._literal(stmt.value)
                if value is not _NOT_LITERAL:
                    self._constants[stmt.targets[0].id] = value
        self.generic_visit(node)

    def _literal(self, node):
        """The value of a constant expression or of a module-level literal name, else _NOT_LITERAL."""
        if isinstance(node, ast.Name):
            return self._constants.get(node.id, _NOT_LITERAL)
        try:
            return ast.literal_eval(node)
        except (ValueError, TypeError, SyntaxError):
            return _NOT_LITERAL

    def visit_ClassDef(self, node):
        if _is_dataclass(node):  # a field with a default is an option of the class's constructor
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            self.options += [(f"{self.where}:{f.lineno}", node.name, f.target.id, i, self._literal(f.value))
                             for i, f in enumerate(fields) if f.value is not None]
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        bound = 1 if positional and positional[0].arg in ("self", "cls") and not static else 0
        name = self._classes[-1] if node.name == "__init__" and self._classes else node.name
        first = len(positional) - len(args.defaults)
        mine = [(a.arg, i - bound, args.defaults[i - first]) for i, a in enumerate(positional) if i >= first]
        mine += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        self.options += [(f"{self.where}:{node.lineno}", name, p, pos, self._literal(d)) for p, pos, d in mine]
        self._defs.append((name, {p for p, _, _ in mine}))
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _source(self, value):
        """The enclosing definition's option that value forwards, a _Literal, or None for any other value."""
        if self._defs and isinstance(value, ast.Name) and value.id in self._defs[-1][1]:
            return (self._defs[-1][0], value.id)
        literal = self._literal(value)
        return None if literal is _NOT_LITERAL else _Literal(literal)

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is not None:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = float("inf") if starred else len(node.args)
            kws = None if any(k.arg is None for k in node.keywords) else {
                k.arg: self._source(k.value) for k in node.keywords}
            pos = {i: self._source(a) for i, a in enumerate(node.args)}
            self.calls.append((name, n_pos, kws, pos))
        self.generic_visit(node)


def _scan(*dirs):
    scans = []
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            s = _Scan(path.name)
            s.visit(ast.parse(path.read_text(), filename=str(path)))
            scans.append(s)
    return scans


def _options():
    return [o for s in _scan(PACKAGE) for o in s.options]


def _set_options(*dirs):
    """The (name, parameter) pairs some call sets, forwarded options resolved to a fixed point.

    Options of test and bench helpers take part, since a helper may forward to the package.
    """
    scans = _scan(*(dirs or (ROOT / "src", ROOT / "tests", ROOT / "bench")))
    options = [o for s in scans for o in s.options]
    calls = [c for s in scans for c in s.calls]
    done = set()
    while True:
        before = len(done)
        for _, func, param, p, default in options:
            if (func, param) in done:
                continue
            for name, n_pos, kws, pos in calls:
                if name != func:
                    continue
                src = "any" if kws is None else kws.get(param, "unset")
                if src == "unset" and p is not None and n_pos > p:
                    src = pos.get(p)  # None when the position is reached through *args
                if isinstance(src, _Literal):
                    src = "unset" if src.value == default else None  # the default passed again sets nothing
                if src is None or src == "any" or src in done:
                    done.add((func, param))
                    break
        if len(done) == before:
            return done


def test_every_optional_parameter_is_set_by_a_caller():
    done = _set_options()
    unset = [f"{where} {func}({param})" for where, func, param, _, _ in _options() if (func, param) not in done]
    assert unset == [], "options no caller sets to another value (make them constants):\n" + "\n".join(unset)


def test_scan_sees_definitions_calls_and_forwarding():
    code = (
        "def f(x, a=1, *, b=2):\n    return g(x, c=a)\n"
        "def g(x, c=0):\n    return x\n"
        "class K:\n    def __init__(self, y=0):\n        pass\n"
        "@dataclass(frozen=True)\nclass D:\n    u: int\n    v: float = 0.5\n    w = 3\n"
        "K(1)\nf(0, 5)\n"
    )
    s = _Scan("m.py")
    s.visit(ast.parse(code))
    # a dataclass field with a default is an option of the constructor, at the field's position
    assert {(func, p, pos, d) for _, func, p, pos, d in s.options} == {
        ("f", "a", 1, 1), ("f", "b", None, 2), ("g", "c", 1, 0), ("K", "y", 0, 0), ("D", "v", 1, 0.5)}
    assert ("g", 1, {"c": ("f", "a")}, {0: None}) in s.calls
    assert ("f", 2, {}, {0: _Literal(0), 1: _Literal(5)}) in s.calls
    assert ("evolve_causal", "guard") in {(func, p) for _, func, p, _, _ in _options()}


#: package options that only tests set to another value than the default, each with the reason it stays
TEST_SET_OPTIONS = {
    ("evolve_times", "guard"): "the kernel and stream oracles run on random fields that fill every momentum cell",
    ("evolve_causal", "guard"): "the kernel and stream oracles run on random fields that fill every momentum cell",
    ("evolve_newton_wigner", "eta"): "the foil oracle",
    ("evolve_newton_wigner", "guard"): "the foil oracle",
    ("make_bump", "momentum"): "criterion 1",
    ("support_edge", "tau"): "the tau-property tests",
    ("make_late_change_state", "sign"): "late-change states with negative t_eb",
    ("pol_apply", "tol"): "the direct-chain oracles",
    ("ball_probability_evolved", "center"): "criteria 4 and 5",
    ("ball_probability_evolved", "radius"): "criteria 4 and 5",
    ("slab_probability_evolved", "beta"): "criteria 4 and 5",
}


def test_test_set_options_are_declared():
    # an option that only tests set is a decision, as a test-only name is: declare why it stays, or make it
    # a constant; an option given a src/ or bench/ caller leaves the list
    done = _set_options(ROOT / "src", ROOT / "bench")
    found = {(func, param) for _, func, param, _, _ in _options() if (func, param) not in done}
    assert found == set(TEST_SET_OPTIONS), (f"undeclared test-set options: {sorted(found - set(TEST_SET_OPTIONS))}; "
                                            f"declared options that src/ or bench/ sets: "
                                            f"{sorted(set(TEST_SET_OPTIONS) - found)}")


def test_an_option_passed_only_its_default_is_unset(tmp_path):
    # e = +1 and tol = TOL restate the defaults, so only f's a and h's tol (set to 2.0 once) vary
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "TOL = 1e-12\n"
        "def f(x, a=1, e=+1):\n    return x\n"
        "def h(tol=TOL):\n    return tol\n"
        "f(0, e=+1)\nf(0, 2, 1)\nh(TOL)\nh(tol=1e-12)\nh()\n"
    )
    assert _set_options(tmp_path / "src") == {("f", "a")}
    (tmp_path / "src" / "n.py").write_text("h(2.0)\n")
    assert _set_options(tmp_path / "src") == {("f", "a"), ("h", "tol")}


def _unread_parameters(tree):
    """(line, function, parameter) of every parameter that its function's body never reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [(node.lineno, node.name, p) for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    # a method's self, and the (cfg, out) that every runner takes, are interfaces rather than inputs
    runners = {fn.__name__ for fn in cli.RUNNERS.values()}
    unread = [f"{path.name}:{line} {func}({p})" for path in sorted(PACKAGE.glob("*.py"))
              for line, func, p in _unread_parameters(ast.parse(path.read_text()))
              if p != "self" and not (func in runners and p in ("cfg", "out"))]
    assert unread == [], "parameters that no body reads (drop them):\n" + "\n".join(unread)


def test_unread_parameter_scan_reads_bodies_only():
    tree = ast.parse(
        "def f(a, b=1, *c, d, **e):\n    return a + d\n"
        "def g(x, y=lambda y: y):\n    def inner():\n        return x\n    return inner\n"
    )
    # a default, or a nested function's own parameter, is no read of the outer parameter
    assert _unread_parameters(tree) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "e"), (3, "g", "y")]


def _definitions(tree):
    """Module-level functions, classes and assigned names, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(n.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(line, name) for line, name in names if not (name.startswith("__") and name.endswith("__"))]


def _named(tree):
    """Every name the tree reads: loaded names, attributes, imported names and strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _unnamed(root):
    """(module:line, name) of every package definition that no file names."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for d in ("src", "tests", "bench") for p in sorted((root / d).rglob("*.py"))}
    named = set().union(*map(_named, trees.values()))
    package = root / "src" / "causalfermion"
    return [f"{p.name}:{line} {name}" for p, tree in trees.items() if p.parent == package
            for line, name in _definitions(tree) if name not in named]


def test_every_module_level_name_is_used():
    unused = _unnamed(ROOT)
    assert unused == [], "definitions that nothing names (delete them):\n" + "\n".join(unused)


#: package names that only tests/ names, each with the reason it stays
TEST_ONLY = {
    "influence_ball": "criterion 10's exact geometry",
    "influence_boosted_point": "criterion 10's exact geometry",
    "influence_cylinder": "criterion 10's exact geometry",
    "DiamondRegion": "criterion 10's exact geometry",
    "hits_all": "criterion 10's exact geometry",
    "ball_probability_static": "criteria 4 and 5, which ROADMAP item 10 runs as a command",
    "asymptotic_ball_probability": "criteria 4 and 5, which ROADMAP item 10 runs as a command",
    "ball_capture_split": "ROADMAP item 10's capture identity",
    "boost_e3": "ROADMAP item 7's finite-rho oracle",
    "evolve_newton_wigner": "the oracle of newton_wigner_leaks' foil",
}


def _test_only(root):
    """Package module-level names that tests/ names but neither src/ nor bench/ does.

    This file is left out: TEST_ONLY declares its names, and a declaration is no use.
    """
    named = {d: set().union(*(_named(ast.parse(p.read_text())) for p in (root / d).rglob("*.py")
                              if p.resolve() != Path(__file__).resolve()))
             for d in ("src", "tests", "bench")}
    defined = {name for p in (root / "src" / "causalfermion").glob("*.py")
               for _, name in _definitions(ast.parse(p.read_text()))}
    return {name for name in defined if name in named["tests"] and name not in named["src"] | named["bench"]}


def test_test_only_names_are_declared():
    # a name that only tests call is a decision: declare why it stays, or delete it; a name given a caller leaves the list
    found = _test_only(ROOT)
    assert found == set(TEST_ONLY), (f"undeclared test-only names: {sorted(found - set(TEST_ONLY))}; "
                                     f"declared names that src/ or bench/ names, or no test does: "
                                     f"{sorted(set(TEST_ONLY) - found)}")


def test_test_only_scan_skips_names_with_a_src_or_bench_caller(tmp_path):
    files = {
        "src/causalfermion/m.py": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\ndef k():\n    pass\n",
        "tests/t.py": "from m import f, g, h, k\n",
        "bench/b.py": "k()\n",
    }
    for name, code in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(code)
    # g has a src caller and k a bench caller; f and h are named only in tests
    assert _test_only(tmp_path) == {"f", "h"}


def test_name_scan_reads_loads_attributes_imports_and_strings():
    tree = ast.parse(
        "import m\nfrom m import a\nB = 1\nC = 2\nD, E = 3, 4\n__all__ = []\n"
        "def f():\n    return m.g(B, 'h')\nclass K:\n    pass\n"
    )
    assert [n for _, n in _definitions(tree)] == ["B", "C", "D", "E", "f", "K"]
    assert {"m", "a", "g", "B", "h"} <= _named(tree)
    assert not {"C", "D", "E", "f", "K", "__all__"} & _named(tree)


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in cls.decorator_list)


def _members(tree):
    """(line, class, name, definition) of the methods, properties and dataclass fields of module-level classes."""
    out = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((node.lineno, cls.name, node.name, node))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and _is_dataclass(cls):
                out.append((node.lineno, cls.name, node.target.id, node))
    return [m for m in out if not (m[2].startswith("__") and m[2].endswith("__"))]


def _reads(tree):
    """(name, ids of the enclosing function definitions) of every attribute load and string in the tree."""
    out = []

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, inside))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, inside))
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return out


def _unread_members(trees, package):
    """(module:line, class.name) of every package class member that no file reads outside its definition."""
    reads = {}
    for tree in trees.values():
        for name, inside in _reads(tree):
            reads.setdefault(name, []).append(inside)
    return [f"{p.name}:{line} {cls}.{name}" for p, tree in trees.items() if p.parent == package
            for line, cls, name, node in _members(tree)
            if all(id(node) in inside for inside in reads.get(name, []))]


def test_every_class_member_is_read():
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))}
    unread = _unread_members(trees, PACKAGE)
    assert unread == [], "class members that nothing reads (delete them):\n" + "\n".join(unread)


def test_member_scan_reads_attributes_and_strings_outside_the_definition():
    package = Path("pkg")
    src = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass D:\n    a: int\n    b: int\n    c: int = 0\n"
        "    def f(self):\n        return self.f()\n"
        "    def g(self):\n        return self.a\n"
        "    @property\n    def h(self):\n        return 1\n"
        "    def __repr__(self):\n        return ''\n"
        "class K:\n    x: int = 0\n    def __init__(self):\n        self.y = 1\n"
    )
    user = ast.parse("def t(d):\n    d.g()\n    D(b=2)\n    return getattr(d, 'h')\n")
    unread = _unread_members({package / "m.py": src, Path("tests") / "t.py": user}, package)
    # f reads only itself, b is only set, c is never named; K is not a dataclass, so x is no field
    assert unread == ["m.py:5 D.b", "m.py:6 D.c", "m.py:7 D.f"]


def _system_dispatch(tree):
    """(line, enclosing function, what) of every read of a ``kind`` attribute and every getattr(_, "chi", ...)."""
    funcs = [(n.lineno, n.end_lineno, n.name) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "kind" and isinstance(node.ctx, ast.Load):
            what = ".kind"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) and node.args[1].value == "chi"):
            what = 'getattr(_, "chi")'
        else:
            continue
        inner = max((f for f in funcs if f[0] <= node.lineno <= f[1]), default=(0, 0, "<module>"))
        hits.append((node.lineno, inner[2], what))
    return hits


def test_no_module_asks_which_system_it_holds():
    # Dirac and Weyl declare h(p) (coupling, momentum matrices, mass matrix); every form reads those
    found = [f"{p.name}:{line} {func}: {what}" for p in sorted(PACKAGE.glob("*.py"))
             for line, func, what in _system_dispatch(ast.parse(p.read_text(), filename=str(p)))]
    assert found == [], "system dispatch outside the system classes:\n" + "\n".join(found)


def test_dispatch_scan_reads_kind_and_getattr_chi():
    tree = ast.parse(
        "def f(s):\n    return s.kind == 'weyl'\n"
        "def g(s):\n    return getattr(s, 'chi', 1) * getattr(s, 'm')\n"
        "class K:\n    kind = 'x'\n"
    )
    assert _system_dispatch(tree) == [(2, "f", ".kind"), (4, "g", 'getattr(_, "chi")')]


def _caught(tree):
    """Names of the exception classes that the tree's except clauses catch."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            out |= {t.id if isinstance(t, ast.Name) else t.attr
                    for t in types if isinstance(t, (ast.Name, ast.Attribute))}
    return out


def test_every_error_class_is_told_apart():
    # a class earns its place when src/ catches it or the bench names it; any other check raises ValueError
    classes = [n.name for n in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(n, ast.ClassDef)]
    caught = set().union(*(_caught(ast.parse(p.read_text())) for p in (ROOT / "src").rglob("*.py")))
    named = set().union(*(_named(ast.parse(p.read_text())) for p in (ROOT / "bench").rglob("*.py")))
    loose = [c for c in classes if c not in caught | named]
    assert loose == [], "error classes that nothing catches or the bench names (raise ValueError):\n" + "\n".join(loose)


def test_caught_scan_reads_names_attributes_and_tuples():
    tree = ast.parse(
        "try:\n    pass\nexcept (A, m.B):\n    pass\nexcept C as e:\n    pass\nexcept:\n    pass\n"
    )
    assert _caught(tree) == {"A", "B", "C"}
