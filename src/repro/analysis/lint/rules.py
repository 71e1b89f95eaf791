"""Phase 2: the rule registry.

Each rule is a pure function over :class:`~repro.analysis.lint.facts.
ProjectFacts` — it never touches the filesystem, so fixture tests can
run the whole registry over an in-memory tree.  Register a new rule by
appending a :class:`Rule` to :data:`RULES`; the engine, CLI, baseline
and docs pick it up from there (see ``docs/static_analysis.md``).
"""

from __future__ import annotations

import dataclasses
import sys

from .facts import (EXTERNAL_PRIVATE_ALLOWED, LAZY_UPWARD_ALLOWED,
                    ProjectFacts)

__all__ = ["Finding", "RULES", "Rule", "run_rules"]


@dataclasses.dataclass(frozen=True)
class Finding:
    """One located violation."""

    rule: str
    severity: str      # "error" | "warning" (the gate fails on both)
    path: str          # repo-relative posix path
    line: int
    col: int
    message: str
    hint: str

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    @property
    def baseline_key(self):
        # Line numbers shift on every edit; baselines match on content.
        return (self.rule, self.path, self.message)


@dataclasses.dataclass(frozen=True)
class Rule:
    id: str
    severity: str
    summary: str       # one-liner for --list-rules and the docs
    hint: str          # generic fix hint attached to every finding
    check: object      # callable(rule, facts) -> iterable of Finding

    def finding(self, path: str, line: int, col: int, message: str,
                hint: str | None = None) -> Finding:
        return Finding(rule=self.id, severity=self.severity, path=path,
                       line=line, col=col, message=message,
                       hint=self.hint if hint is None else hint)

    def run(self, facts: ProjectFacts):
        return list(self.check(self, facts))


# ---------------------------------------------------------------------------
# R1 determinism
# ---------------------------------------------------------------------------

def _check_determinism(rule: Rule, facts: ProjectFacts):
    exempt = set(facts.config.determinism_exempt)
    for mod in facts.src_modules():
        if mod.path in exempt:
            continue
        for ref in mod.clock_calls:
            yield rule.finding(
                mod.path, ref.line, ref.col,
                f"wall-clock read `{ref.name}()` in an engine path",
                hint="accept an injectable `timer=time.perf_counter` "
                     "parameter and call through it (references are "
                     "fine, direct calls are not)")
        for ref in mod.rng_calls:
            yield rule.finding(
                mod.path, ref.line, ref.col,
                f"unseeded random source `{ref.name}`",
                hint="derive a stream from the run seed with "
                     "`RandomState(seed).child(name)` instead of "
                     "ambient randomness")


# ---------------------------------------------------------------------------
# R2 fault-site catalog
# ---------------------------------------------------------------------------

def _check_fault_sites(rule: Rule, facts: ProjectFacts):
    known = set(facts.known_sites)
    if not known:
        return
    for path in sorted(facts.modules):
        mod = facts.modules[path]
        for ref in mod.fault_site_refs:
            if ref.name not in known:
                yield rule.finding(
                    path, ref.line, ref.col,
                    f"fault site '{ref.name}' is not in KNOWN_SITES")
    exercised = set()
    for mod in facts.test_modules():
        exercised |= mod.site_literals
    anchor = facts.config.faults_module
    for site in facts.known_sites:
        if site not in exercised:
            yield rule.finding(
                anchor, 1, 0,
                f"catalog entry '{site}' is never exercised by any test",
                hint="add a test that injects this site (see "
                     "tests/unit/test_faults.py) or retire the entry")


# ---------------------------------------------------------------------------
# R3 instrument catalog
# ---------------------------------------------------------------------------

_METRIC_KINDS = ("counter", "gauge", "histogram")


def _check_instruments(rule: Rule, facts: ProjectFacts):
    catalog = facts.instrument_catalog
    if catalog is None:
        return
    seen_kinds: dict = {}   # exact name -> {metric kind: first Finding site}
    for mod in facts.src_modules():
        for inst in mod.instruments:
            if inst.prefix:
                if not catalog.covers_prefix(inst.name):
                    yield rule.finding(
                        mod.path, inst.line, inst.col,
                        f"dynamic instrument name with prefix "
                        f"'{inst.name}…' matches nothing in the "
                        f"docs/observability.md catalog")
                continue
            if not catalog.covers(inst.name):
                yield rule.finding(
                    mod.path, inst.line, inst.col,
                    f"instrument '{inst.name}' ({inst.kind}) is not in "
                    f"the docs/observability.md catalog")
            if inst.kind in _METRIC_KINDS:
                kinds = seen_kinds.setdefault(inst.name, {})
                kinds.setdefault(inst.kind, (mod.path, inst.line,
                                             inst.col))
    for name in sorted(seen_kinds):
        kinds = seen_kinds[name]
        if len(kinds) > 1:
            ordered = sorted(kinds.items(), key=lambda kv: kv[1])
            first_kind, _ = ordered[0]
            for other_kind, (path, line, col) in ordered[1:]:
                yield rule.finding(
                    path, line, col,
                    f"instrument '{name}' registered as {other_kind} "
                    f"but also as {first_kind} elsewhere",
                    hint="one name, one kind — the MetricsRegistry "
                         "raises on this at run time; rename one side")


# ---------------------------------------------------------------------------
# R4 layer DAG + external dependencies
# ---------------------------------------------------------------------------

def _stdlib_roots() -> frozenset:
    return frozenset(sys.stdlib_module_names)


def _private_name(imp) -> str | None:
    """The underscore-private dotted name an import reaches
    (``a._b`` for ``import a._b.c`` or ``from a import _b``), if any."""
    parts = imp.target.split(".")
    for index, part in enumerate(parts[1:], 1):
        if part.startswith("_") and not part.startswith("__"):
            return ".".join(parts[:index + 1])
    for name in imp.names:
        if name.startswith("_") and not name.startswith("__"):
            return f"{imp.target}.{name}"
    return None


def _check_layers(rule: Rule, facts: ProjectFacts):
    layers = facts.config.layers
    stdlib = _stdlib_roots()
    allowed = facts.config.external_allowed
    per_pkg = facts.config.external_per_package

    for mod in facts.src_modules():
        if mod.package is None:
            continue  # the root ``repro/__init__`` facade re-exports all
        pkg_layer = layers.get(mod.package)
        pkg_allowed = allowed | per_pkg.get(mod.package, frozenset())
        for imp in mod.imports:
            if imp.root == "repro":
                parts = imp.target.split(".")
                if len(parts) > 1:
                    targets = [imp.target]
                else:
                    # ``from repro import serve``: the names are the
                    # subpackages actually imported.
                    targets = [f"repro.{name}" for name in imp.names]
                for target in targets:
                    target_pkg = target.split(".")[1]
                    if target_pkg == mod.package:
                        continue
                    target_layer = layers.get(target_pkg)
                    if target_layer is None or pkg_layer is None:
                        continue
                    if target_layer < pkg_layer:
                        continue
                    if imp.toplevel:
                        yield rule.finding(
                            mod.path, imp.line, imp.col,
                            f"layer violation: {mod.package} (layer "
                            f"{pkg_layer}) imports {target} (layer "
                            f"{target_layer}) at module level")
                    elif (mod.module.partition(".")[2],
                          target_pkg) not in LAZY_UPWARD_ALLOWED:
                        yield rule.finding(
                            mod.path, imp.line, imp.col,
                            f"unsanctioned upward import: {mod.module} "
                            f"imports {target} (layer {target_layer}) "
                            f"lazily",
                            hint="import downward, or list the edge in "
                                 "repro.analysis.lint.facts."
                                 "LAZY_UPWARD_ALLOWED")
            elif imp.root not in stdlib and imp.toplevel:
                if imp.root not in pkg_allowed:
                    yield rule.finding(
                        mod.path, imp.line, imp.col,
                        f"external dependency '{imp.root}' is not allowed "
                        f"in repro.{mod.package}",
                        hint="src/repro may import only the stdlib + numpy "
                             "(scipy/h5py only where grandfathered); stub "
                             "or gate anything else")
                private = _private_name(imp)
                exempt = EXTERNAL_PRIVATE_ALLOWED.get(mod.module, ())
                if private is not None and private not in exempt:
                    yield rule.finding(
                        mod.path, imp.line, imp.col,
                        f"private module '{private}' of an external "
                        f"package imported in {mod.module}",
                        hint="use the package's public API, or allow-list "
                             "the import for this one module in "
                             "repro.analysis.lint.facts."
                             "EXTERNAL_PRIVATE_ALLOWED")

    # Module-level import cycles among repro modules.
    by_name = {m.module: m.path for m in facts.modules.values()
               if m.module}
    graph: dict = {}
    for mod in facts.src_modules():
        if not mod.module:
            continue
        edges = set()
        for imp in mod.imports:
            if imp.root != "repro" or not imp.toplevel:
                continue
            # ``from X import a`` may pull submodule X.a — resolve both.
            candidates = [imp.target] + [f"{imp.target}.{name}"
                                         for name in imp.names]
            for target in candidates:
                while target and target not in by_name:
                    target = target.rpartition(".")[0]
                if target and target != mod.module:
                    edges.add(target)
        graph[mod.module] = sorted(edges)

    state: dict = {}
    stack: list = []

    def visit(name):
        state[name] = "active"
        stack.append(name)
        for nxt in graph.get(name, ()):
            if state.get(nxt) == "active":
                cycle = stack[stack.index(nxt):] + [nxt]
                yield " -> ".join(cycle)
            elif nxt not in state:
                yield from visit(nxt)
        stack.pop()
        state[name] = "done"

    cycles = set()
    for name in sorted(graph):
        if name not in state:
            for cycle in visit(name):
                cycles.add(cycle)
    for cycle in sorted(cycles):
        head = cycle.split(" -> ")[0]
        yield rule.finding(
            by_name[head], 1, 0,
            f"module-level import cycle: {cycle}",
            hint="break the cycle with a function-level import on the "
                 "upward edge")


# ---------------------------------------------------------------------------
# R5 concurrency patterns
# ---------------------------------------------------------------------------

def _check_concurrency(rule: Rule, facts: ProjectFacts):
    for mod in facts.src_modules():
        for ref in mod.bare_acquires:
            yield rule.finding(
                mod.path, ref.line, ref.col,
                f"`{ref.name}.acquire()` without `with` or a "
                f"try/finally release",
                hint="use `with lock:` so the release survives "
                     "exceptions")
        for ref in mod.blocking_recvs:
            yield rule.finding(
                mod.path, ref.line, ref.col,
                f"blocking `{ref.name}.recv()` inside a `while True` "
                f"loop with no timeout path",
                hint="guard the recv with `conn.poll(timeout)` so the "
                     "loop can observe shutdown")
        for mix in mod.mixed_attrs:
            yield rule.finding(
                mod.path, mix.unguarded.line, mix.unguarded.col,
                f"attribute `{mix.cls}.{mix.attr}` is written here "
                f"outside a lock but under one at line "
                f"{mix.guarded.line}",
                hint="pick one discipline: always guard the attribute "
                     "or never share it across threads")


# ---------------------------------------------------------------------------
# R6 run-table schema
# ---------------------------------------------------------------------------

def _check_runtable(rule: Rule, facts: ProjectFacts):
    columns = set(facts.run_table_columns)
    if not columns:
        return
    # A tree that has the schema module must have every configured file:
    # a renamed or deleted one would otherwise switch the check off.
    schema_present = facts.config.runtable_module in facts.modules
    for path in facts.config.runtable_files:
        mod = facts.modules.get(path)
        if mod is None:
            if schema_present:
                yield rule.finding(
                    path, 1, 0,
                    "configured run-table file does not exist",
                    hint="update LintConfig.runtable_files "
                         "(DEFAULT_RUNTABLE_FILES) to the files that "
                         "write or read run-table rows")
            continue
        for ref in mod.runtable_refs:
            if ref.name not in columns:
                yield rule.finding(
                    path, ref.line, ref.col,
                    f"column '{ref.name}' is not in the fixed run-table "
                    f"schema (repro.common.runtable)")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RULES = (
    Rule(id="determinism", severity="error",
         summary="no wall-clock reads or unseeded RNG in src/repro; "
                 "injectable timers and child()-derived streams only",
         hint="thread a `timer=` parameter or a seeded RandomState "
              "stream to the call site",
         check=_check_determinism),
    Rule(id="fault-sites", severity="error",
         summary="every fault-site string exists in KNOWN_SITES and "
                 "every catalog entry is exercised by a test",
         hint="add the site to repro.common.faults.KNOWN_SITES (and "
              "docs/robustness.md) or fix the typo",
         check=_check_fault_sites),
    Rule(id="instruments", severity="error",
         summary="every emitted repro.obs name is catalogued in "
                 "docs/observability.md with a single kind",
         hint="add the instrument to the docs/observability.md table "
              "or fix the name",
         check=_check_instruments),
    Rule(id="layer-dag", severity="error",
         summary="module-level imports respect the layer order "
                 "common<-obs<-core<-{autograd,data,hardware,analysis}"
                 "<-runtime<-serve<-experiments, no cycles, stdlib+"
                 "numpy only, no private external modules",
         hint="move the import inside the function that needs it, or "
              "move the code down a layer",
         check=_check_layers),
    Rule(id="concurrency", severity="warning",
         summary="locks acquired structurally, recv loops have a "
                 "timeout path, shared attributes guarded consistently",
         hint="prefer `with lock:` and poll-guarded receive loops",
         check=_check_concurrency),
    Rule(id="runtable-schema", severity="error",
         summary="column names in the harness and the gates that read "
                 "its rows match the fixed run-table schema, and every "
                 "configured file exists",
         hint="use a column from repro.common.runtable.RUN_TABLE_COLUMNS "
              "or extend the schema there first",
         check=_check_runtable),
)


def run_rules(facts: ProjectFacts) -> list:
    """All findings from every registered rule, in stable order."""
    findings: list = []
    for rule in RULES:
        findings.extend(rule.run(facts))
    findings.sort(key=lambda f: f.sort_key)
    return findings
