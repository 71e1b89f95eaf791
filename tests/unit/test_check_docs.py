"""``tools/check_docs.py``: every ``make X`` the docs name is a target,
and every symbol named after a source link in a docs table exists."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[2] / "tools"
_spec = importlib.util.spec_from_file_location("check_docs_under_test",
                                               TOOLS / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

REPO = check_docs.REPO
DEFINED = set(check_docs.MAKE_TARGET.findall(
    (REPO / "Makefile").read_text(encoding="utf-8")))


def test_references_come_from_code_spans_and_fenced_blocks():
    text = ("Run `make docs` first; to make sure, read on.\n"
            "```bash\n"
            "make bench-table      # the rows\n"
            "PYTHONPATH=src make quickstart\n"
            "```\n"
            "Outside a fence, make lint is prose.\n")
    assert check_docs.make_references(text) == {"docs", "bench-table",
                                                 "quickstart"}


def test_undefined_target_is_reported_with_its_file():
    readme = REPO / "README.md"
    assert "bench-table" in check_docs.make_references(
        readme.read_text(encoding="utf-8"))
    errors = check_docs.check_make_targets(readme,
                                           DEFINED - {"bench-table"})
    assert errors == ["README.md: `make bench-table` names no Makefile "
                      "target"]


def test_every_documented_target_exists():
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    assert {"bench", "bench-table", "docs"} <= DEFINED
    assert not {"bench-json", "bench-serving", "bench-aware"} & DEFINED
    errors = [error for source in sources
              for error in check_docs.check_make_targets(source, DEFINED)]
    assert errors == []


def test_symbol_after_a_source_link_is_resolved_in_that_module():
    row = ("| (7) | crossbar | [`core/layers.py`](../src/repro/core/layers.py)"
           " `SpikingLinear.step`; [`core/engine.py`]"
           "(../src/repro/core/engine.py) `_Events.matmul` | tests |\n"
           "Prose: [`core/filters.py`](../src/repro/core/filters.py) "
           "`Gone` is not a table row.\n")
    refs = check_docs.source_symbols(row, REPO / "docs")
    assert refs == [
        ("../src/repro/core/layers.py", "repro.core.layers.SpikingLinear.step"),
        ("../src/repro/core/engine.py", "repro.core.engine._Events.matmul"),
    ]
    cache = {}
    assert not check_docs._reference_resolves(refs[0][1], cache)
    assert check_docs._reference_resolves(refs[1][1], cache)


def test_every_symbol_after_a_source_link_exists():
    sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    cache = {}
    errors = [error for source in sources
              for error in check_docs.check_source_symbols(source, cache)]
    assert errors == []
