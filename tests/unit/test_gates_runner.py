"""The loop of ``tools/gates.py``: every gate runs and reports."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[2] / "tools"
_spec = importlib.util.spec_from_file_location("gates_under_test",
                                               TOOLS / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def test_every_gate_reports_after_a_failure_and_a_raise():
    ran = []

    def passing():
        ran.append("passing")
        return []

    def failing():
        ran.append("failing")
        return ["threshold missed"]

    def raising():
        ran.append("raising")
        raise RuntimeError("gate crashed")

    lines = []
    status = gates.run_gates(
        [("failing", failing), ("raising", raising), ("passing", passing)],
        log=lines.append)
    assert status == 1
    assert ran == ["failing", "raising", "passing"]
    report = "\n".join(lines)
    assert "[FAIL] failing" in report and "FAIL threshold missed" in report
    assert "[FAIL] raising" in report
    assert "raised RuntimeError: gate crashed" in report
    assert "[ok] passing" in report
    assert lines[-1] == "gates: 2 of 3 failed: failing, raising"


def test_all_passing_gates_exit_zero():
    lines = []
    assert gates.run_gates([("a", list), ("b", list)],
                           log=lines.append) == 0
    assert lines[-1] == "gates: all 2 passed"


def test_a_shared_run_happens_once_and_its_error_reaches_every_reader():
    calls = []

    def run():
        calls.append(1)
        raise ValueError("run broke")

    shared = gates._once(run)
    lines = []
    status = gates.run_gates([("first", shared), ("second", shared)],
                             log=lines.append)
    assert status == 1 and len(calls) == 1
    assert sum("raised ValueError: run broke" in line
               for line in lines) == 2
