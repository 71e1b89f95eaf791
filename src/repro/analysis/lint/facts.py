"""Phase 1: parse every project file once into cross-file *facts*.

A fact is a located observation about the code — "line 48 of
``core/trainer.py`` imports ``repro.runtime.parallel`` at module
level", "line 568 of ``serve/server.py`` passes the string
``hw.weights.stale`` to a fault-site call".  Rules
(:mod:`repro.analysis.lint.rules`) are pure functions over the
collected :class:`ProjectFacts`; they never re-read source, so adding a
rule costs one pass over in-memory facts, not another parse of the
tree.

Everything here is stdlib-only and purely syntactic: the catalogs the
rules check against (``KNOWN_SITES``, the run-table columns, the
instrument table) are themselves *parsed* out of the project — from the
AST of ``repro/common/faults.py`` / ``repro/common/runtable.py`` and
the markdown tables of ``docs/observability.md`` — never imported, so
the linter runs on a tree that does not import (or before numpy
exists).

For tests, :func:`build_facts` accepts an in-memory ``sources``
mapping (repo-relative path -> text) instead of a disk root; catalog
overrides live on :class:`LintConfig`.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

__all__ = [
    "LintConfig",
    "ModuleFacts",
    "ProjectFacts",
    "Ref",
    "build_facts",
    "parse_instrument_catalog",
    "parse_string_tuple",
]

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

#: Layer of each ``repro`` subpackage.  A module-level import must target
#: a *strictly lower* layer (or its own package); an upward edge is a
#: function-level import listed in ``LAZY_UPWARD_ALLOWED``.
DEFAULT_LAYERS = {
    "common": 0,
    "obs": 1,
    "core": 2,
    "analysis": 3,
    "autograd": 3,
    "data": 3,
    "hardware": 3,
    "runtime": 4,
    "serve": 5,
    "experiments": 6,
}

#: The sanctioned lazy (function-level) upward edges, as ``(importing
#: module, target package)`` with module names relative to ``repro``.
#: Any other lazy import of a same-or-higher layer is a finding.
LAZY_UPWARD_ALLOWED = frozenset({
    ("common.benchcfg", "core"),          # the bench network it builds
    ("common.faults", "obs"),             # fault events on the tracer
    ("common.serialization", "core"),     # checkpoint -> network
    ("common.serialization", "hardware"),  # checkpoint -> mapped network
    ("core.network", "autograd"),         # run(engine="step")'s tape
    ("core.trainer", "hardware"),         # hardware-aware training
    ("core.trainer", "runtime"),          # the pool and shard math
})

#: Third-party imports allowed anywhere under ``src/repro``.
DEFAULT_EXTERNAL_ALLOWED = frozenset({"numpy"})

#: Per-package third-party grandfather list (scipy predates this linter
#: in exactly these packages; h5py is reserved for the data loaders).
DEFAULT_EXTERNAL_PER_PACKAGE = {
    "core": frozenset({"scipy"}),
    "data": frozenset({"scipy", "h5py"}),
    "hardware": frozenset({"scipy"}),
}

#: Underscore-private submodules of external packages that one module
#: may import at module level: the fused engine calls the CSR kernels
#: inside ``scipy.sparse`` directly (``repro.core.engine._Events``).
EXTERNAL_PRIVATE_ALLOWED = {
    "repro.core.engine": frozenset({"scipy.sparse._sparsetools"}),
}

#: Files exempt from the determinism rule: the seeded RNG wrapper is
#: where ``numpy.random`` legitimately lives.
DEFAULT_DETERMINISM_EXEMPT = ("src/repro/common/rng.py",)

#: Files whose run-table column references the schema rule checks: the
#: harness that writes the rows and the gate runner that reads them.
DEFAULT_RUNTABLE_FILES = (
    "src/repro/experiments/harness.py",
    "tools/gates.py",
)

#: Wall-clock reads the determinism rule flags when *called* directly.
#: ``time.monotonic`` is deliberately absent: timeout plumbing needs a
#: monotonic clock and never lands in results; measurement must go
#: through an injectable timer (a ``timer=time.perf_counter`` *default
#: reference* is fine — only the direct call is nondeterministic).
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Call names that take a fault-site string as their first argument.
FAULT_SITE_CALLS = frozenset({"hit", "should_fire", "maybe_raise"})

#: Dotted-lowercase shape of a fault site / instrument name.
SITE_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Inline suppression: ``# repro: disable=<rule>[,<rule>...]``.
SUPPRESS_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_\-, ]+)")

#: Whole-file suppression: ``# repro: disable-file=<rule>`` on a
#: comment-only line (for files that exist to exercise a rule's target,
#: e.g. the fault-plan unit tests and their synthetic site names).
FILE_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*disable-file=([A-Za-z0-9_\-, ]+)")


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """What to scan and which catalogs to check against.

    Every field has a project-true default; tests override the catalogs
    when linting synthetic in-memory trees.
    """

    scan_roots: tuple = ("src/repro", "tests", "tools", "benchmarks",
                        "examples")
    src_prefix: str = "src/repro/"
    layers: dict = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_LAYERS))
    external_allowed: frozenset = DEFAULT_EXTERNAL_ALLOWED
    external_per_package: dict = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_EXTERNAL_PER_PACKAGE))
    determinism_exempt: tuple = DEFAULT_DETERMINISM_EXEMPT
    runtable_files: tuple = DEFAULT_RUNTABLE_FILES
    faults_module: str = "src/repro/common/faults.py"
    runtable_module: str = "src/repro/common/runtable.py"
    observability_doc: str = "docs/observability.md"
    #: Catalog overrides (``None`` = parse from the project itself).
    known_sites: tuple | None = None
    run_table_columns: tuple | None = None
    instrument_catalog: "InstrumentCatalog | None" = None


# ---------------------------------------------------------------------------
# Fact records
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Ref:
    """One named occurrence at a location."""

    name: str
    line: int
    col: int


@dataclasses.dataclass(frozen=True)
class ImportFact:
    target: str        # dotted module ("repro.runtime.parallel", "numpy")
    root: str          # first component ("repro", "numpy")
    line: int
    col: int
    toplevel: bool     # module-level (True) vs function/method-level
    #: the names an ``from X import a, b`` pulled — any of them may be a
    #: submodule of ``target`` (``from repro.core import trainer``).
    names: tuple = ()


@dataclasses.dataclass(frozen=True)
class InstrumentFact:
    name: str          # exact name, or the static prefix of an f-string
    kind: str          # counter | gauge | histogram | event | span
    line: int
    col: int
    prefix: bool       # True when ``name`` is only the f-string prefix


@dataclasses.dataclass(frozen=True)
class MixedAttrFact:
    """A class attribute written both inside and outside a lock."""

    cls: str
    attr: str
    guarded: Ref
    unguarded: Ref


@dataclasses.dataclass
class ModuleFacts:
    """Everything phase 2 needs to know about one file."""

    path: str                       # repo-relative posix path
    module: str | None = None       # dotted module for src files
    package: str | None = None      # repro subpackage ("core", ...)
    is_package: bool = False        # an ``__init__.py`` file
    parse_error: str | None = None
    imports: list = dataclasses.field(default_factory=list)
    fault_site_refs: list = dataclasses.field(default_factory=list)
    site_literals: set = dataclasses.field(default_factory=set)
    instruments: list = dataclasses.field(default_factory=list)
    clock_calls: list = dataclasses.field(default_factory=list)
    rng_calls: list = dataclasses.field(default_factory=list)
    runtable_refs: list = dataclasses.field(default_factory=list)
    bare_acquires: list = dataclasses.field(default_factory=list)
    blocking_recvs: list = dataclasses.field(default_factory=list)
    mixed_attrs: list = dataclasses.field(default_factory=list)
    #: line -> (rule ids, comment_only) for ``# repro: disable=``.
    suppressions: dict = dataclasses.field(default_factory=dict)
    #: rule ids disabled for the whole file (``disable-file=``).
    file_suppressions: frozenset = frozenset()
    n_lines: int = 0

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is suppressed at ``line`` — file-wide, by
        a trailing comment on the line itself, or by a comment-only line
        just above."""
        if rule_id in self.file_suppressions \
                or "all" in self.file_suppressions:
            return True
        own = self.suppressions.get(line)
        if own and (rule_id in own[0] or "all" in own[0]):
            return True
        above = self.suppressions.get(line - 1)
        return bool(above and above[1]
                    and (rule_id in above[0] or "all" in above[0]))


@dataclasses.dataclass(frozen=True)
class InstrumentCatalog:
    """Names documented in ``docs/observability.md``."""

    exact: frozenset
    wildcard_prefixes: frozenset   # "serve." from a ``serve.*`` entry

    def covers(self, name: str) -> bool:
        if name in self.exact:
            return True
        return any(name.startswith(p) for p in self.wildcard_prefixes)

    def covers_prefix(self, prefix: str) -> bool:
        """Whether an f-string emission with this static prefix can only
        produce catalogued names we know about (approximation: some
        catalogued name or wildcard shares the prefix)."""
        if any(name.startswith(prefix) for name in self.exact):
            return True
        return any(p.startswith(prefix) or prefix.startswith(p)
                   for p in self.wildcard_prefixes)


@dataclasses.dataclass
class ProjectFacts:
    """Phase-1 output: per-file facts plus the project catalogs."""

    root: str
    modules: dict = dataclasses.field(default_factory=dict)
    known_sites: tuple = ()
    run_table_columns: tuple = ()
    instrument_catalog: InstrumentCatalog | None = None
    config: LintConfig = dataclasses.field(default_factory=LintConfig)

    def src_modules(self):
        prefix = self.config.src_prefix
        return [m for p, m in sorted(self.modules.items())
                if p.startswith(prefix)]

    def test_modules(self):
        return [m for p, m in sorted(self.modules.items())
                if p.startswith("tests/")]


# ---------------------------------------------------------------------------
# Catalog parsers (static — AST and markdown, never imports)
# ---------------------------------------------------------------------------

def parse_string_tuple(source: str, *names: str) -> tuple:
    """Concatenate the string-tuple assignments ``names`` from ``source``.

    Parses assignments like ``KNOWN_SITES = ("a", "b")`` out of a
    module's AST; raises ``ValueError`` when a requested name is missing
    or is not a tuple of string constants.
    """
    tree = ast.parse(source)
    found: dict[str, tuple] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in names:
                value = node.value
                if not isinstance(value, ast.Tuple) or not all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in value.elts):
                    raise ValueError(
                        f"{target.id} is not a tuple of string literals")
                found[target.id] = tuple(e.value for e in value.elts)
    missing = [n for n in names if n not in found]
    if missing:
        raise ValueError(f"string tuple(s) {missing} not found")
    out: tuple = ()
    for name in names:
        out += found[name]
    return out


_BACKTICK_RE = re.compile(r"`([^`]+)`")


def parse_instrument_catalog(markdown: str) -> InstrumentCatalog:
    """Extract the instrument + span/event name catalog from the
    ``docs/observability.md`` tables.

    Only the *first cell* of table rows is read; every backticked token
    in it that looks like a dotted name counts, with ``{...}`` label
    suffixes stripped and ``name.*`` entries kept as wildcards.
    """
    exact: set[str] = set()
    wildcards: set[str] = set()
    for line in markdown.splitlines():
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        first_cell = stripped.strip("|").split("|", 1)[0]
        if set(first_cell.strip()) <= {"-", " ", ":"}:
            continue  # the |---| separator row
        for token in _BACKTICK_RE.findall(first_cell):
            token = re.sub(r"\{[^}]*\}.*$", "", token).strip()
            if token.endswith(".*"):
                wildcards.add(token[:-1])  # keep the trailing dot
            elif SITE_RE.match(token):
                exact.add(token)
    return InstrumentCatalog(exact=frozenset(exact),
                             wildcard_prefixes=frozenset(wildcards))


# ---------------------------------------------------------------------------
# Per-file collector
# ---------------------------------------------------------------------------

def _const_str(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _fstring_prefix(node) -> str | None:
    """The leading constant text of an f-string, or ``None``."""
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return None
    head = node.values[0]
    if isinstance(head, ast.Constant) and isinstance(head.value, str):
        return head.value
    return None


_ROW_NAME_RE = re.compile(r"^(row|[A-Za-z0-9_]*_row)$")
_WHILE_TRUE = (True, 1)


class _Collector(ast.NodeVisitor):
    """One pass over one file's AST, filling a :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts):
        self.f = facts
        self.func_depth = 0
        self.while_true_depth = 0
        self.lock_with_depth = 0
        self.class_stack: list[str] = []
        self.in_init = False
        self.func_stack: list = []
        self._pending_recvs: list = []  # (Ref, enclosing function node)
        #: local alias -> dotted origin ("np" -> "numpy",
        #: "perf_counter" -> "time.perf_counter")
        self.aliases: dict[str, str] = {}
        #: (class, attr) -> {"guarded": Ref, "unguarded": Ref}
        self._attr_writes: dict = {}
        self._class_has_lock: set = set()

    # -- helpers -----------------------------------------------------------

    def _dotted(self, node) -> str | None:
        """Resolve a Name/Attribute chain to dotted text through the
        file's import aliases (``np.random.rand`` -> ``numpy.random.rand``)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def _record_import(self, target: str, node, toplevel: bool,
                       names: tuple = ()) -> None:
        self.f.imports.append(ImportFact(
            target=target, root=target.split(".")[0],
            line=node.lineno, col=node.col_offset, toplevel=toplevel,
            names=names))

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record_import(alias.name, node, self.func_depth == 0)
            self.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Relative imports resolve against the *package*: for a
            # plain module that is the dotted name minus the leaf; for a
            # package ``__init__`` it is the dotted name itself.
            base = (self.f.module or "").split(".")
            if not self.f.is_package:
                base = base[:-1]
            drop = node.level - 1
            base = base[:len(base) - drop] if drop <= len(base) else []
            stem = ".".join(base + ([node.module] if node.module else []))
            if node.module:
                self._record_import(
                    stem, node, self.func_depth == 0,
                    names=tuple(a.name for a in node.names))
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = \
                        f"{stem}.{alias.name}"
            else:
                # ``from .. import obs``: the imported *names* are the
                # modules; record one edge per name.
                for alias in node.names:
                    target = f"{stem}.{alias.name}" if stem else alias.name
                    self._record_import(target, node, self.func_depth == 0)
                    self.aliases[alias.asname or alias.name] = target
        elif node.module:
            self._record_import(
                node.module, node, self.func_depth == 0,
                names=tuple(a.name for a in node.names))
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    # -- structure tracking ------------------------------------------------

    def _visit_function(self, node) -> None:
        self.func_depth += 1
        self.func_stack.append(node)
        was_init = self.in_init
        self.in_init = bool(self.class_stack) and node.name == "__init__"
        self._walk_body(node)
        self.in_init = was_init
        self.func_stack.pop()
        self.func_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self._walk_body(node)
        self.class_stack.pop()

    def visit_While(self, node: ast.While) -> None:
        is_true = (isinstance(node.test, ast.Constant)
                   and node.test.value in _WHILE_TRUE)
        self.while_true_depth += 1 if is_true else 0
        self._walk_body(node)
        self.while_true_depth -= 1 if is_true else 0

    def visit_With(self, node: ast.With) -> None:
        locky = any("lock" in ast.unparse(item.context_expr).lower()
                    for item in node.items)
        if locky and self.class_stack:
            self._class_has_lock.add(self.class_stack[-1])
        self.lock_with_depth += 1 if locky else 0
        self._walk_body(node)
        self.lock_with_depth -= 1 if locky else 0

    visit_AsyncWith = visit_With

    # -- statement-list checks (acquire/try-finally pairing) --------------

    def _walk_body(self, node) -> None:
        """Visit children, checking statement lists for acquire patterns."""
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, list) and value and isinstance(
                    value[0], ast.stmt):
                self._check_stmt_list(value)
        ast.NodeVisitor.generic_visit(self, node)

    def generic_visit(self, node) -> None:  # route all nodes through bodies
        if any(isinstance(getattr(node, f, None), list)
               and getattr(node, f) and isinstance(getattr(node, f)[0],
                                                   ast.stmt)
               for f in node._fields):
            self._walk_body(node)
        else:
            ast.NodeVisitor.generic_visit(self, node)

    def visit_Module(self, node: ast.Module) -> None:
        self._walk_body(node)

    @staticmethod
    def _is_method_call(stmt, attr: str):
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == attr):
            return stmt.value
        return None

    def _check_stmt_list(self, body: list) -> None:
        for index, stmt in enumerate(body):
            call = self._is_method_call(stmt, "acquire")
            if call is None:
                continue
            owner = ast.unparse(call.func.value)
            nxt = body[index + 1] if index + 1 < len(body) else None
            released = False
            if isinstance(nxt, ast.Try) and nxt.finalbody:
                released = any(
                    self._is_method_call(s, "release") is not None
                    and ast.unparse(self._is_method_call(
                        s, "release").func.value) == owner
                    for s in nxt.finalbody)
            if not released:
                self.f.bare_acquires.append(Ref(
                    name=owner, line=stmt.lineno, col=stmt.col_offset))

    # -- attribute writes under / outside locks ---------------------------

    def _record_attr_write(self, target) -> None:
        if not (self.class_stack and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return
        key = (self.class_stack[-1], target.attr)
        slot = self._attr_writes.setdefault(key, {})
        ref = Ref(name=target.attr, line=target.lineno,
                  col=target.col_offset)
        if self.lock_with_depth > 0:
            slot.setdefault("guarded", ref)
        elif not self.in_init:
            slot.setdefault("unguarded", ref)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_attr_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_attr_write(node.target)
        self.generic_visit(node)

    # -- calls: the bulk of the facts -------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        last = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None)

        if last is not None:
            self._collect_fault_site(node, last)
            self._collect_instrument(node, func, last)
            self._collect_runtable(node, func, last)
            self._collect_determinism(node, func, last)
            if last == "recv" and isinstance(func, ast.Attribute) \
                    and self.while_true_depth > 0 and not node.args:
                self._pending_recvs.append((
                    Ref(name=ast.unparse(func.value), line=node.lineno,
                        col=node.col_offset),
                    self.func_stack[-1] if self.func_stack else None))
        self.generic_visit(node)

    def _collect_fault_site(self, node, last: str) -> None:
        if last in FAULT_SITE_CALLS and node.args:
            site = _const_str(node.args[0])
            if site is not None:
                self.f.fault_site_refs.append(Ref(
                    name=site, line=node.args[0].lineno,
                    col=node.args[0].col_offset))
        elif last == "FaultRule":
            site_node = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "site":
                    site_node = kw.value
            site = _const_str(site_node) if site_node is not None else None
            if site is not None:
                self.f.fault_site_refs.append(Ref(
                    name=site, line=site_node.lineno,
                    col=site_node.col_offset))

    _METRIC_KINDS = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram"}
    _TRACE_KINDS = {"event": "event", "span": "span", "timed_span": "span"}

    def _collect_instrument(self, node, func, last: str) -> None:
        kind = self._METRIC_KINDS.get(last)
        if kind is None:
            # ``self._event`` / ``_obs_event`` style aliases count too.
            core = last.lstrip("_")
            kind = self._TRACE_KINDS.get(core)
            if kind is None and (core.endswith("_event")
                                 or core.endswith("_span")):
                kind = "event" if core.endswith("_event") else "span"
            trace = True
        else:
            trace = False
            # ``np.histogram(...)`` and friends: a metric registration
            # must be a method call with a string-ish first argument —
            # the Name-func case is never a registry.
            if not isinstance(func, ast.Attribute):
                return
        if kind is None or not node.args:
            return
        arg = node.args[0]
        name = _const_str(arg)
        if name is not None:
            if SITE_RE.match(name):
                self.f.instruments.append(InstrumentFact(
                    name=name, kind=kind, line=arg.lineno,
                    col=arg.col_offset, prefix=False))
        else:
            prefix = _fstring_prefix(arg)
            if prefix and "." in prefix:
                self.f.instruments.append(InstrumentFact(
                    name=prefix, kind=kind, line=arg.lineno,
                    col=arg.col_offset, prefix=True))
        if trace:
            for kw in node.keywords:
                if kw.arg == "metric":
                    metric = _const_str(kw.value)
                    if metric is not None and SITE_RE.match(metric):
                        self.f.instruments.append(InstrumentFact(
                            name=metric, kind="histogram",
                            line=kw.value.lineno, col=kw.value.col_offset,
                            prefix=False))

    def _collect_runtable(self, node, func, last: str) -> None:
        if (last == "append" and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "table"):
            for kw in node.keywords:
                if kw.arg is not None:
                    self.f.runtable_refs.append(Ref(
                        name=kw.arg, line=node.lineno, col=node.col_offset))

    def _collect_determinism(self, node, func, last: str) -> None:
        dotted = self._dotted(func)
        if dotted is None:
            return
        if dotted in WALL_CLOCK_CALLS:
            self.f.clock_calls.append(Ref(
                name=dotted, line=node.lineno, col=node.col_offset))
            return
        if dotted.startswith("numpy.random."):
            tail = dotted.rsplit(".", 1)[1]
            if tail == "default_rng" and (node.args or node.keywords):
                return  # explicitly seeded
            if tail[:1].isupper() and tail != "RandomState":
                return  # class references like numpy.random.Generator
            self.f.rng_calls.append(Ref(
                name=dotted, line=node.lineno, col=node.col_offset))
            return
        if dotted.startswith("random.") and self.aliases.get(
                "random") == "random":
            self.f.rng_calls.append(Ref(
                name=dotted, line=node.lineno, col=node.col_offset))
            return
        if (dotted == "RandomState" or dotted.endswith(".RandomState")) \
                and not node.args and not node.keywords:
            self.f.rng_calls.append(Ref(
                name=f"{last}()", line=node.lineno, col=node.col_offset))

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``row["p95_ms"]`` / ``tenant_row["hw_bits"]``: a run-table
        # column reference whenever the subscripted name looks like a row.
        if (isinstance(node.value, ast.Name)
                and _ROW_NAME_RE.match(node.value.id)):
            column = _const_str(node.slice)
            if column is not None:
                self.f.runtable_refs.append(Ref(
                    name=column, line=node.lineno, col=node.col_offset))
        self.generic_visit(node)

    # -- literals ----------------------------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and SITE_RE.match(node.value):
            self.f.site_literals.add(node.value)

    # -- finalization ------------------------------------------------------

    def finalize(self) -> None:
        for ref, func_node in self._pending_recvs:
            if func_node is not None and _subtree_has_poll(func_node):
                continue
            self.f.blocking_recvs.append(ref)
        for (cls, attr), slot in sorted(self._attr_writes.items()):
            if cls not in self._class_has_lock:
                continue
            if "guarded" in slot and "unguarded" in slot:
                self.f.mixed_attrs.append(MixedAttrFact(
                    cls=cls, attr=attr, guarded=slot["guarded"],
                    unguarded=slot["unguarded"]))


def _subtree_has_poll(func_node) -> bool:
    """Whether the function also polls with a timeout somewhere — the
    marker of a recv loop that has a timeout path."""
    for sub in ast.walk(func_node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("poll", "wait")
                and (sub.args or sub.keywords)):
            return True
    return False


def _collect_suppressions(text: str):
    out: dict = {}
    file_wide: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        file_match = FILE_SUPPRESS_RE.search(line)
        if file_match is not None and line.lstrip().startswith("#"):
            file_wide.update(part.strip()
                             for part in file_match.group(1).split(",")
                             if part.strip())
            continue
        match = SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = frozenset(part.strip() for part in match.group(1).split(",")
                        if part.strip())
        comment_only = line.lstrip().startswith("#")
        out[lineno] = (ids, comment_only)
    return out, frozenset(file_wide)


def collect_module(path: str, text: str,
                   config: LintConfig) -> ModuleFacts:
    """Parse one file into its :class:`ModuleFacts`."""
    module = package = None
    if path.startswith("src/") and path.endswith(".py"):
        parts = Path(path).with_suffix("").parts[1:]  # drop "src"
        parts = [p for p in parts if p != "__init__"]
        module = ".".join(parts)
        if len(parts) >= 2 and parts[0] == "repro":
            package = parts[1]
    facts = ModuleFacts(path=path, module=module, package=package,
                        is_package=path.endswith("__init__.py"),
                        n_lines=text.count("\n") + 1)
    facts.suppressions, facts.file_suppressions = \
        _collect_suppressions(text)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        facts.parse_error = f"line {exc.lineno}: {exc.msg}"
        return facts
    collector = _Collector(facts)
    collector.visit(tree)
    collector.finalize()
    return facts


# ---------------------------------------------------------------------------
# Project assembly
# ---------------------------------------------------------------------------

def _iter_sources(root: Path, config: LintConfig):
    for scan_root in config.scan_roots:
        base = root / scan_root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            yield rel, path.read_text(encoding="utf-8")


def build_facts(root=None, sources: dict | None = None,
                config: LintConfig | None = None) -> ProjectFacts:
    """Phase 1 entry point.

    ``sources`` (repo-relative path -> text) replaces the disk tree
    entirely when given — the unit-test path.  Catalogs are parsed from
    the tree (or ``sources``) unless overridden on ``config``.
    """
    config = config or LintConfig()
    if sources is None:
        if root is None:
            raise ValueError("build_facts needs a root or sources")
        root = Path(root)
        items = list(_iter_sources(root, config))
        root_label = root.as_posix()
        reader = lambda rel: ((root / rel).read_text(encoding="utf-8")
                              if (root / rel).exists() else None)
    else:
        items = [(path, text) for path, text in sorted(sources.items())
                 if path.endswith(".py")]
        root_label = "<memory>"
        reader = lambda rel: sources.get(rel)

    facts = ProjectFacts(root=root_label, config=config)
    for rel, text in items:
        facts.modules[rel] = collect_module(rel, text, config)

    if config.known_sites is not None:
        facts.known_sites = tuple(config.known_sites)
    else:
        faults_src = reader(config.faults_module)
        if faults_src is not None:
            facts.known_sites = parse_string_tuple(faults_src, "KNOWN_SITES")

    if config.run_table_columns is not None:
        facts.run_table_columns = tuple(config.run_table_columns)
    else:
        runtable_src = reader(config.runtable_module)
        if runtable_src is not None:
            facts.run_table_columns = parse_string_tuple(
                runtable_src, "ID_COLUMNS", "MEASUREMENT_COLUMNS")

    if config.instrument_catalog is not None:
        facts.instrument_catalog = config.instrument_catalog
    else:
        doc = reader(config.observability_doc)
        if doc is not None:
            facts.instrument_catalog = parse_instrument_catalog(doc)

    return facts
