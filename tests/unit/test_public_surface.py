"""The system carries no code it does not run: a public-surface ratchet.

Lists every public module-level function and class, and every public
method and property, under ``src/repro`` that nothing outside ``tests/``
references (``src/``, ``perf/``, ``benchmarks/`` and ``examples/`` are the
callers).  Each listed name must sit in :data:`ALLOWED` with one reason:

* ``oracle`` -- a diagnostic the tests compare against;
* ``paper`` -- a construct of the paper: its module appears in a
  ``docs/paper_map.md`` row, and the note starts with that row's label;
* ``operator`` -- an in-process control that README.md or
  ``docs/architecture.md`` documents.

A reference is a ``Name``, an ``Attribute``, an import alias, or a string
literal that names the symbol: an identifier handed to ``getattr`` /
``hasattr`` / ``setattr`` (any symbol), or any identifier or
``"module:name"`` string (module-level symbols only: the catalog names its
factories that way).  Not a reference: the symbol's own ``def``, its own
body, ``__all__`` lists, a package ``__init__``'s export tables, docstrings
and comments.

A method resolves through its class.  ``self.m``, ``C.m``, a local or
``self.x`` bound from ``C(...)`` and a parameter annotated ``C`` count only
for ``C``, its bases and its subclasses; a receiver whose type is not known
counts for every class that defines the name, so duck-typed protocols stay
used and the scan errs toward keeping code.
"""

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
CALLERS = ("src", "perf", "benchmarks", "examples")

_MODULE_NAME = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_]\w*)$")
_DYNAMIC_LOOKUPS = {"getattr", "hasattr", "setattr"}
# Annotations that say nothing about which class a value is.
_OPAQUE_ROOTS = {"typing", "collections", "abc", "numbers"}


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else None
    return None


def _docstring_nodes(tree: ast.AST) -> Set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _is_all(target: ast.AST) -> bool:
    return isinstance(target, ast.Name) and target.id == "__all__"


def _export_nodes(tree: ast.Module, is_init: bool) -> Set[int]:
    """Nodes that only declare exports: ``__all__`` and, in a package
    ``__init__``, its lazy-export table and the imports ``__all__`` lists."""
    skip: Set[int] = set()
    exported: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(_is_all(t) for t in targets) and node.value is not None:
            for sub in ast.walk(node.value):
                skip.add(id(sub))
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    exported.add(sub.value)
        if (is_init and isinstance(node, ast.Call)
                and _dotted(node.func) == "lazy_exports"):
            for arg in node.args:
                skip.update(id(sub) for sub in ast.walk(arg))
    if is_init:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                skip.update(id(a) for a in node.names
                            if (a.asname or a.name) in exported)
    return skip


class _Module:
    def __init__(self, path: Path, rel: Path) -> None:
        self.path = path
        self.rel = rel
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.is_init = path.name == "__init__.py"
        parts = list(rel.with_suffix("").parts)
        if parts[0] == "src":
            parts = parts[1:]
        if self.is_init:
            parts = parts[:-1]
        self.name = ".".join(parts)


def _modules(root: Path) -> Iterator[_Module]:
    for top in CALLERS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            yield _Module(path, path.relative_to(root))


class _Surface:
    """Definitions under ``src/repro`` and the class graph they form."""

    def __init__(self, modules: List[_Module]) -> None:
        # (module, qualname) -> "function" | "class" | "method"
        self.symbols: Dict[Tuple[str, str], str] = {}
        self.bases: Dict[str, Set[str]] = {}
        self.protocols: Set[str] = set()
        for mod in modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef):
                    names = {(_dotted(b) or "").rsplit(".", 1)[-1]
                             for b in node.bases}
                    self.bases.setdefault(node.name, set()).update(names - {""})
                    if "Protocol" in names:
                        self.protocols.add(node.name)
            if not mod.name.startswith("repro"):
                continue
            for node in mod.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        self.symbols[(mod.name, node.name)] = "function"
                elif isinstance(node, ast.ClassDef):
                    if not node.name.startswith("_"):
                        self.symbols[(mod.name, node.name)] = "class"
                    for item in node.body:
                        if (isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                                and not item.name.startswith("_")):
                            key = (mod.name, f"{node.name}.{item.name}")
                            self.symbols[key] = "method"
        self.classes = set(self.bases)
        # A receiver typed as a Protocol says nothing about its class.
        self.concrete = self.classes - self.protocols
        self.children: Dict[str, Set[str]] = {}
        for sub, bases in self.bases.items():
            for base in bases:
                self.children.setdefault(base, set()).add(sub)

    @staticmethod
    def _closure(start: str, edges: Dict[str, Set[str]]) -> Set[str]:
        seen, todo = set(), [start]
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.add(cls)
                todo.extend(edges.get(cls, ()))
        return seen

    def ancestors(self, cls: str) -> Set[str]:
        return self._closure(cls, self.bases)

    def related(self, cls: str) -> Set[str]:
        """``cls``, its bases and its subclasses (by class name)."""
        return self.ancestors(cls) | self._closure(cls, self.children)


class _Types:
    """Which class a receiver expression is, where the source says so."""

    def __init__(self, surface: _Surface) -> None:
        self.surface = surface
        # class -> attribute -> class, from ``self.x = C(...)`` and
        # annotations; a conflict is recorded as unknown (None).
        self.fields: Dict[str, Dict[str, Optional[str]]] = {}

    def known(self, cls: str) -> Optional[str]:
        return cls if cls in self.surface.concrete else None

    def annotation(self, node: Optional[ast.AST]) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for one, other in ((node.left, node.right), (node.right, node.left)):
                if isinstance(other, ast.Constant) and other.value is None:
                    return self.annotation(one)
            return None
        if (isinstance(node, ast.Subscript)
                and _dotted(node.value) in {"Optional", "typing.Optional"}):
            return self.annotation(node.slice)
        name = _dotted(node) if node is not None else None
        if name is None:
            return None
        last = name.rsplit(".", 1)[-1]
        if "." not in name or last in self.surface.classes:
            return self.known(last)
        # ``asyncio.StreamWriter``: a known class outside ``src``.
        return None if name.split(".")[0] in _OPAQUE_ROOTS else name

    def of(self, node: ast.AST, env: List[Dict[str, Optional[str]]]
           ) -> Optional[str]:
        if isinstance(node, ast.Name):
            for scope in reversed(env):
                if node.id in scope:
                    return scope[node.id]
            return self.known(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.of(node.value, env)
            if owner is None:
                # ``module.C``: the class itself.
                return self.known(node.attr) if _dotted(node) else None
            for cls in self.surface.ancestors(owner):
                if node.attr in self.fields.get(cls, {}):
                    return self.fields[cls][node.attr]
            return None
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            return self.known(name.rsplit(".", 1)[-1]) if name else None
        return None

    def scope(self, body: List[ast.stmt], params: Optional[ast.arguments],
              env: List[Dict[str, Optional[str]]], owner: Optional[str]
              ) -> Dict[str, Optional[str]]:
        """Local name -> class for one function (or module) body."""
        found: Dict[str, Optional[str]] = {}
        chain = env + [found]

        def bind(name: str, cls: Optional[str]) -> None:
            found[name] = cls if found.get(name, cls) == cls else None

        if params is not None:
            args = params.posonlyargs + params.args
            for i, arg in enumerate(args + params.kwonlyargs):
                cls = owner if (i == 0 and owner and args) else None
                bind(arg.arg, cls or self.annotation(arg.annotation))
            for arg in (params.vararg, params.kwarg):
                if arg is not None:
                    bind(arg.arg, None)
        for node in _scope_walk(body):
            if isinstance(node, ast.Assign):
                cls = self.of(node.value, chain)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, cls)
                    else:
                        _bind_unknown(target, bind)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                bind(node.target.id, self.annotation(node.annotation))
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.NamedExpr)):
                _bind_unknown(node.target, bind)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        _bind_unknown(item.optional_vars, bind)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bind(node.name, None)
        return found

    def learn_fields(self, mod: _Module) -> None:
        env = [self.scope(mod.tree.body, None, [], None)]
        for cls in ast.walk(mod.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = self.fields.setdefault(cls.name, {})

            def bind(name: str, kind: Optional[str]) -> None:
                fields[name] = kind if fields.get(name, kind) == kind else None

            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name):
                    bind(item.target.id, self.annotation(item.annotation))
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = item.args.posonlyargs + item.args.args
                if not args or _decorated(item, "staticmethod"):
                    continue
                me = args[0].arg
                chain = env + [self.scope(item.body, item.args, env, cls.name)]
                for node in _scope_walk(item.body):
                    targets: List[ast.AST] = []
                    if isinstance(node, ast.Assign):
                        targets, kind = node.targets, self.of(node.value, chain)
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                        kind = self.annotation(node.annotation)
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == me):
                            bind(target.attr, kind)


def _bind_unknown(target: ast.AST, bind) -> None:
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            bind(sub.id, None)


def _decorated(node: ast.AST, name: str) -> bool:
    return any(_dotted(d) == name for d in node.decorator_list)


class _References(ast.NodeVisitor):
    """What one module references: ``names`` (any bare, attribute or
    string mention) and ``attrs`` (``(attribute, receiver class or None)``)."""

    def __init__(self, types: _Types, mod: _Module) -> None:
        self.types = types
        self.names: Set[str] = set()
        self.attrs: Set[Tuple[str, Optional[str]]] = set()
        self.skip = _docstring_nodes(mod.tree) | _export_nodes(
            mod.tree, mod.is_init)
        self.env = [types.scope(mod.tree.body, None, [], None)]
        # Innermost frames: a class name, or None for a function body.
        self.frames: List[Optional[str]] = []
        # The definitions being visited: (owning class or None, name).
        self.own: List[Tuple[Optional[str], str]] = []
        self.visit(mod.tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for expr in node.bases + node.keywords + node.decorator_list:
            self.visit(expr)
        self.frames.append(node.name)
        self.own.append((None, node.name))
        for stmt in node.body:
            self.visit(stmt)
        self.own.pop()
        self.frames.pop()

    def _function(self, node) -> None:
        for expr in node.decorator_list + node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None]:
            self.visit(expr)
        for arg in node.args.posonlyargs + node.args.args + \
                node.args.kwonlyargs:
            if arg.annotation is not None:
                self.visit(arg.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        owner = self.frames[-1] if self.frames else None
        typed = None if _decorated(node, "staticmethod") else owner
        self.env.append(self.types.scope(node.body, node.args, self.env, typed))
        self.frames.append(None)
        self.own.append((owner, node.name))
        for stmt in node.body:
            self.visit(stmt)
        self.own.pop()
        self.frames.pop()
        self.env.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.env.append({a.arg: None for a in node.args.args})
        self.visit(node.body)
        self.env.pop()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and (None, node.id) not in self.own:
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        receiver = self.types.of(node.value, self.env)
        if receiver is None or (receiver, node.attr) not in self.own:
            self.attrs.add((node.attr, receiver))
            self.names.add(node.attr)
        self.visit(node.value)

    def visit_alias(self, node: ast.alias) -> None:
        if id(node) not in self.skip:
            self.names.add(node.name.rsplit(".", 1)[-1])

    def visit_Call(self, node: ast.Call) -> None:
        if (_dotted(node.func) in _DYNAMIC_LOOKUPS and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            receiver = self.types.of(node.args[0], self.env)
            self.attrs.add((node.args[1].value, receiver))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if id(node) in self.skip or not isinstance(node.value, str):
            return
        match = _MODULE_NAME.match(node.value)
        if match:
            self.names.add(match.group(1))
        elif node.value.isidentifier():
            self.names.add(node.value)

    def generic_visit(self, node: ast.AST) -> None:
        if id(node) not in self.skip:
            super().generic_visit(node)


@functools.lru_cache(maxsize=None)
def unreferenced(root: Path = ROOT) -> List[str]:
    """``"module:qualname"`` of every public symbol under ``root/src/repro``
    that nothing outside ``root/tests`` references, sorted."""
    modules = list(_modules(root))
    surface = _Surface(modules)
    types = _Types(surface)
    for _ in range(2):  # fields bound from other fields settle in two rounds
        for mod in modules:
            types.learn_fields(mod)
    names: Set[str] = set()
    attrs: Dict[str, Set[Optional[str]]] = {}
    for mod in modules:
        found = _References(types, mod)
        names |= found.names
        for attr, receiver in found.attrs:
            attrs.setdefault(attr, set()).add(receiver)
    listed = []
    for (module, qualname), kind in surface.symbols.items():
        if kind == "method":
            cls, name = qualname.split(".")
            receivers = attrs.get(name, set())
            used = None in receivers or bool(receivers & surface.related(cls))
        else:
            used = qualname in names
        if not used:
            listed.append(f"{module}:{qualname}")
    return sorted(listed)


def _scope_walk(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """``ast.walk`` over a body in source order, not entering nested
    function, class or lambda bodies."""
    todo = list(reversed(body))
    while todo:
        current = todo.pop()
        yield current
        todo.extend(reversed([
            child for child in ast.iter_child_nodes(current)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef, ast.Lambda))]))


# -- the allow-list ----------------------------------------------------------------

#: Every name :func:`unreferenced` lists, with its reason and a one-line
#: note.  It may only shrink: a name that gains a caller or is deleted must
#: leave it, and :data:`ALLOWED_COUNT` pins its committed length.
ALLOWED: Dict[str, Tuple[str, str]] = {
    # oracle: a diagnostic the tests compare against
    "repro.circuits.circuit:Circuit.is_monotone": (
        "oracle", "the dual-rail tests check the transform's output with it"),
    "repro.core.factorization:Factorization.check_round_trips": (
        "oracle", "the round-trip law rho(pi1(x), pi2(x)) == x over samples"),
    "repro.graphs.scc:is_dag": (
        "oracle", "checks the DAG generators and condensations"),
    "repro.graphs.traversal:breadth_depth_search_reference": (
        "oracle", "the literal Example 2 BDS the fast search is compared to"),
    "repro.indexes.btree:BPlusTree.check_invariants": (
        "oracle", "the B+-tree's structural invariants after every change"),
    "repro.indexes.dag_lca:DagLCAIndex.all_lcas": (
        "oracle", "every LCA of a pair; the served representative is one"),
    "repro.indexes.dag_lca:DagLCAIndex.is_ancestor": (
        "oracle", "ancestry the DAG-LCA answers are checked against"),
    "repro.indexes.euler_lca:EulerTourLCA.is_ancestor": (
        "oracle", "ancestry the tree-LCA answers are checked against"),
    "repro.indexes.rmq:FischerHeunRMQ.range_min": (
        "oracle", "the minimum value, compared with naive_range_min"),
    "repro.indexes.sparse_table:SparseTable.range_min": (
        "oracle", "the minimum value, compared with naive_range_min"),
    "repro.kernelization.vertex_cover:vc_brute_force": (
        "oracle", "exhaustive vertex cover the kernel decisions are checked by"),
    "repro.service.dataset:Dataset.query_tracked": (
        "oracle", "the analytic evaluator: fast == tracked on every storage shape"),
    # paper: a construct the paper defines and docs/paper_map.md maps
    "repro.circuits.transform:dual_rail_inputs": (
        "paper", "(8) Circuit value problem CVP — the dual-rail input vector"),
    "repro.circuits.transform:to_monotone_dual_rail": (
        "paper", "(8) Circuit value problem CVP — CVP to monotone CVP"),
    "repro.compression.reachability_preserving:"
    "ReachabilityPreservingCompression.class_of": (
        "paper", "(5) Data compression strategy — R(v): a query's vertex in Gr"),
    "repro.core.alphabet:encode_pair": (
        "paper", "Σ* alphabet and encodings — the D#Q string of Section 3"),
    "repro.core.factorization:canonical_factorization": (
        "paper", "Factorizations Υ — the factorization of L_Q that recovers S_Q"),
    "repro.core.reductions:NCFactorReduction.map_instance": (
        "paper", "⊑-reductions — a whole instance through (α, β), Proposition 1"),
    "repro.indexes.rmq:FischerHeunRMQ.distinct_signatures": (
        "paper", "(3) Minimum range queries, L2 — at most Catalan(b) tables"),
    "repro.kernelization.vertex_cover:BussKernel.kernel_vertices": (
        "paper", "(9) Vertex cover, Buss kernelization — |kernel| ≤ 2k²"),
    "repro.parallel.pram:ParallelMachine.list_rank": (
        "paper", "Work–depth cost model — PRAM pointer jumping, O(log n) depth"),
    "repro.parallel.pram:ParallelMachine.pscan": (
        "paper", "Work–depth cost model — PRAM prefix scan, O(log n) depth"),
    "repro.parallel.primitives:parallel_any": (
        "paper", "Work–depth cost model — an NC reduction, O(log n) depth"),
    "repro.parallel.primitives:parallel_max": (
        "paper", "Work–depth cost model — an NC reduction, O(log n) depth"),
    "repro.parallel.primitives:parallel_sort": (
        "paper", "Work–depth cost model — NC sorting, polylog depth"),
    "repro.parallel.primitives:parallel_sum": (
        "paper", "Work–depth cost model — an NC reduction, O(log n) depth"),
    "repro.queries.bds:upsilon_prime": (
        "paper", "BDS order, Q_BDS — Figure 1's right factorization Υ'"),
    "repro.queries.sat:three_sat_to_vertex_cover": (
        "paper", "Corollary 7 — the 3SAT to vertex cover reduction"),
    "repro.views.rewrite:answer_with_views": (
        "paper", "(6) View materialization strategy — Q answered from V(D)"),
    "repro.views.rewrite:rewrite_point": (
        "paper", "(6) View materialization strategy — a point query over views"),
    # operator: an in-process control README.md or architecture.md documents
    "repro.service.frontend.supervisor:Supervisor.drain": (
        "operator", "graceful maintenance of one worker"),
    "repro.service.frontend.supervisor:Supervisor.undrain": (
        "operator", "returns a drained worker to the rotation"),
}
ALLOWED_COUNT = 32
REASONS = {"oracle", "paper", "operator"}


def _module_path(symbol: str) -> str:
    """``repro/x/y.py`` for ``repro.x.y:name``, as paper_map.md cites it."""
    path = symbol.split(":")[0].replace(".", "/")
    return f"{path}/__init__.py" if (ROOT / "src" / path).is_dir() else f"{path}.py"


def _paper_rows() -> List[Tuple[str, List[str]]]:
    """``(construct, module paths)`` of every docs/paper_map.md table row."""
    rows = []
    for line in (ROOT / "docs" / "paper_map.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        if not line.startswith("| ") or len(cells) < 3:
            continue
        paths = []
        for token in re.findall(r"`(repro/[^`\s]*)`", cells[1]):
            brace = re.match(r"(.*)\{([^}]*)\}(.*)", token)
            parts = brace.group(2).split(",") if brace else [""]
            paths += [f"{brace.group(1)}{part}{brace.group(3)}" if brace else token
                      for part in parts]
        rows.append((cells[0], paths))
    return rows


def _names_row(paths: List[str], module: str) -> bool:
    return any(path == module or (path.endswith("/") and module.startswith(path))
               for path in paths)


def test_every_unreferenced_public_name_is_reasoned():
    listed = unreferenced()
    assert sorted(set(listed) - set(ALLOWED)) == [], "unreasoned: delete them"
    assert sorted(set(ALLOWED) - set(listed)) == [], "stale: drop from ALLOWED"


def test_the_allow_list_only_shrinks():
    assert len(ALLOWED) == ALLOWED_COUNT


@pytest.mark.parametrize("symbol", sorted(ALLOWED))
def test_each_reason_holds(symbol):
    reason, note = ALLOWED[symbol]
    assert reason in REASONS and note and "\n" not in note
    name = symbol.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
    if reason == "paper":
        label = note.split(" — ")[0]
        module = _module_path(symbol)
        assert any(construct.startswith(label) and _names_row(paths, module)
                   for construct, paths in _paper_rows()), (label, module)
    elif reason == "operator":
        docs = (ROOT / "README.md").read_text() + (
            ROOT / "docs" / "architecture.md").read_text()
        assert re.search(rf"`[^`\n]*\b{name}\b[^`\n]*`", docs), name
    else:
        uses = [path for path in (ROOT / "tests").rglob("*.py")
                if path.name != Path(__file__).name
                and re.search(rf"\b{name}\b", path.read_text())]
        assert uses, f"no test compares against {name}"


def test_lists_the_drain_controls_and_keeps_duck_typed_names():
    listed = unreferenced()
    supervisor = "repro.service.frontend.supervisor:Supervisor"
    assert {f"{supervisor}.drain", f"{supervisor}.undrain"} <= set(listed)
    for kept in ("repro.indexes.sorted_run:SortedRunIndex.to_state",
                 "repro.core.errors:DeadlineExceededError.wire_details",
                 "repro.queries.strategies:compression_scheme"):
        assert kept not in listed


# -- the scan on constructed trees -----------------------------------------------


def _tree(root: Path, files: Dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_a_function_only_a_test_imports_is_listed(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": (
            '__all__ = ["used", "test_only"]\n'
            "def used():\n    return 1\n"
            "def test_only():\n    return test_only()\n"),
        "examples/run.py": "from repro.lib import used\nused()\n",
        "tests/test_lib.py": "from repro.lib import test_only\n",
    })
    assert unreferenced(root) == ["repro.lib:test_only"]


def test_a_method_sharing_a_used_name_of_another_class_is_listed(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pool.py": (
            "import asyncio\n"
            "class Versions:\n    def drain(self):\n        pass\n"
            "class Pool:\n"
            "    def __init__(self):\n        self.versions = Versions()\n"
            "    def drain(self, worker):\n        pass\n"
            "    def flush(self):\n        versions = self.versions\n"
            "        versions.drain()\n"
            "async def write(writer: asyncio.StreamWriter) -> None:\n"
            "    await writer.drain()\n"),
        "perf/run.py": (
            "from repro.pool import Pool, write\n"
            "Pool().flush()\nwrite\n"),
    })
    assert unreferenced(root) == ["repro.pool:Pool.drain"]


def test_an_untyped_receiver_keeps_every_class_that_defines_the_name(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/shapes.py": (
            "class A:\n    def to_state(self):\n        return {}\n"
            "class B:\n    def to_state(self):\n        return {}\n"
            "def dump(structure):\n    return structure.to_state()\n"),
        "src/repro/codec.py": (
            "def encode(exc):\n    return getattr(exc, 'wire_details', None)\n"
            "class E(Exception):\n    def wire_details(self):\n        return {}\n"
            "CATALOG = ('repro.shapes:dump', E, A, B)\n"),
        "examples/run.py": "from repro.codec import encode, CATALOG\n",
    })
    assert unreferenced(root) == []
