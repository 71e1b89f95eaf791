#!/usr/bin/env python
"""CI gate for the project linter (`make lint`).

Three checks, in order:

1. **Self-check** — at least one planted violation per registered rule
   (``layer-dag`` has two: a module-level upward import and a lazy one
   off the sanctioned list), linted from in-memory sources, must be
   caught at the exact file:line.  A
   linter that silently stopped seeing violations must not be allowed
   to green-light the tree.
2. **Tree lint** — the repository lints clean against the committed
   baseline (``tools/lint_baseline.json``); stale baseline entries fail
   too.
3. **Artifact** — the JSON findings report is written to
   ``lint_findings.json`` for the CI upload, clean or not.

The lint engine is loaded *standalone* from its package directory —
not via ``import repro`` — so this gate runs on a stdlib-only
interpreter and keeps working while the scientific stack is broken.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINT_DIR = ROOT / "src" / "repro" / "analysis" / "lint"
BASELINE = ROOT / "tools" / "lint_baseline.json"
ARTIFACT = ROOT / "lint_findings.json"


def load_lint():
    """Import the lint package from its directory, bypassing the
    ``repro`` namespace (whose ``__init__`` pulls numpy)."""
    if "repro_lint_standalone" in sys.modules:
        return sys.modules["repro_lint_standalone"]
    spec = importlib.util.spec_from_file_location(
        "repro_lint_standalone", LINT_DIR / "__init__.py",
        submodule_search_locations=[str(LINT_DIR)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["repro_lint_standalone"] = module
    spec.loader.exec_module(module)
    return module


# Minimal violations, at least one per rule: (rule id, sources, config
# overrides, expected file, expected line).
def _planted_cases(lint):
    catalog = lint.facts.parse_instrument_catalog(
        "| instrument | kind |\n|---|---|\n| `ok.name` | counter |\n")
    return [
        ("determinism",
         {"src/repro/core/bad.py":
          "import time\n\ndef f():\n    return time.time()\n"},
         {}, "src/repro/core/bad.py", 4),
        ("fault-sites",
         {"src/repro/serve/bad.py":
          "def f(plan):\n    return plan.hit('bogus.site')\n"},
         {"known_sites": ("real.site",)},
         "src/repro/serve/bad.py", 2),
        ("instruments",
         {"src/repro/obs/bad.py":
          "def f(registry):\n    registry.counter('nope.name', 1)\n"},
         {"instrument_catalog": catalog}, "src/repro/obs/bad.py", 2),
        ("layer-dag",
         {"src/repro/common/bad.py": "import repro.serve.server\n"},
         {}, "src/repro/common/bad.py", 1),
        ("layer-dag",
         {"src/repro/core/bad.py":
          "def f():\n    from repro.runtime import pool\n"},
         {}, "src/repro/core/bad.py", 2),
        ("concurrency",
         {"src/repro/runtime/bad.py":
          "def f(lock):\n    lock.acquire()\n    lock.release()\n"},
         {}, "src/repro/runtime/bad.py", 2),
        ("runtable-schema",
         {"src/repro/experiments/bad.py":
          "def f(row):\n    return row['bogus_col']\n"},
         {"run_table_columns": ("run_id",),
          "runtable_files": ("src/repro/experiments/bad.py",)},
         "src/repro/experiments/bad.py", 2),
    ]


def self_check(lint) -> tuple[list, int]:
    """Failures of the planted cases, and how many cases ran."""
    failures = []
    cases = _planted_cases(lint)
    for rule_id, sources, overrides, path, line in cases:
        config = lint.LintConfig(**overrides)
        result = lint.run_lint(sources=sources, config=config)
        hits = [f for f in result.findings
                if f.rule == rule_id and f.path == path
                and f.line == line]
        if not hits:
            got = [(f.rule, f.path, f.line) for f in result.findings]
            failures.append(
                f"planted {rule_id} violation at {path}:{line} "
                f"not caught (findings: {got})")
    return failures, len(cases)


def main() -> int:
    lint = load_lint()

    failures, planted = self_check(lint)
    for failure in failures:
        print(f"SELF-CHECK FAIL: {failure}")
    if not failures:
        print(f"self-check ok: {planted} planted violations "
              f"caught at exact file:line")

    baseline = lint.load_baseline(BASELINE) or None
    result = lint.run_lint(root=ROOT, baseline=baseline)
    ARTIFACT.write_text(lint.engine.render_json(result),
                        encoding="utf-8")
    sys.stdout.write(lint.engine.render_text(result))
    print(f"findings artifact: {ARTIFACT.name}")

    ok = not failures and result.clean and not result.stale_baseline
    print("lint smoke:", "OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
