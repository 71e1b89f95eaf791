"""Unit tests for the experiment registry, paper config and CLI plumbing.

The heavy experiment runners are exercised by the benchmark suite; here we
test the cheap runners end to end and the registry/CLI mechanics.
"""

import numpy as np
import pytest

from repro.common.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    PAPER_CONFIG,
    get_experiment,
    resolve_profile,
    run_experiment,
    table1,
)
from repro.experiments.cli import main


class TestPaperConfig:
    def test_table1_values(self):
        assert PAPER_CONFIG.tau == 4.0
        assert PAPER_CONFIG.tau_r == 4.0
        assert PAPER_CONFIG.tau_m == 4.0
        assert PAPER_CONFIG.tau_s == 1.0
        assert PAPER_CONFIG.batch_size == 64
        assert PAPER_CONFIG.lr_classification == 1e-4
        assert PAPER_CONFIG.lr_association == 1e-3
        assert PAPER_CONFIG.sigma == pytest.approx(1.0 / np.sqrt(2 * np.pi))
        assert PAPER_CONFIG.optimizer == "adamw"

    def test_table1_render(self):
        text = table1().render()
        assert "AdamW" in text
        assert "64" in text


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        artifacts = {spec.paper_artifact for spec in EXPERIMENTS.values()}
        for required in ("Table I", "Table II (N-MNIST rows)",
                         "Table II (SHD rows)", "Fig. 1", "Fig. 4",
                         "Fig. 5", "Fig. 7", "Fig. 8", "Section V-C"):
            assert required in artifacts

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_specs_have_descriptions(self):
        for spec in EXPERIMENTS.values():
            assert spec.description
            assert callable(spec.runner)


class TestProfiles:
    def test_explicit_wins(self):
        assert resolve_profile("full") == "full"
        assert resolve_profile("ci") == "ci"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert resolve_profile(None) == "full"
        monkeypatch.setenv("REPRO_PROFILE", "anything-else")
        assert resolve_profile(None) == "ci"

    def test_invalid_explicit(self):
        with pytest.raises(ValueError):
            resolve_profile("huge")


class TestCheapRunners:
    def test_table1_runner(self):
        result = run_experiment("table1")
        assert result.summary["tau"] == 4.0
        assert "AdamW" in result.text

    def test_fig1_runner(self):
        result = run_experiment("fig1")
        assert result.summary["output_spikes"] >= 1
        # Threshold returns to (near) base after jumping.
        assert result.summary["threshold_peak"] > \
            result.summary["threshold_base"]
        # Threshold jumps by ~theta when a spike is emitted.
        assert result.summary["mean_jump_after_spike"] > 0.3

    def test_fig1_traces_are_one_engine_run(self):
        """Fig. 1 is a 2 -> 1 adaptive layer run on the engine: its spikes
        are the tape's for the same network and input, the PSPs sum to
        the drive and the threshold follows eq. 8 from those spikes.  The
        pins are the traces of the earlier step-by-step runner."""
        from repro.autograd import unroll
        from repro.core import SpikingLinear, SpikingNetwork
        from repro.core.filters import decay_from_tau

        data = run_experiment("fig1").data
        outputs, threshold = data["outputs"], data["threshold"]
        np.testing.assert_array_equal(np.flatnonzero(outputs),
                                      [7, 11, 15, 33, 58])
        assert threshold.max() == 2.503214724408055
        x = np.zeros((1, 80, 2))
        x[0, [5, 9, 13, 30, 55], 0] = 1.0
        x[0, [7, 11, 15, 33, 58], 1] = 1.0
        layer = SpikingLinear(2, 1, weight=np.array([[0.9, 0.7]]))
        tape = unroll(SpikingNetwork.from_layers([layer]), x)
        np.testing.assert_array_equal(tape.spikes()[0, :, 0], outputs)
        np.testing.assert_array_equal(data["sum"],
                                      data["psp_1"] + data["psp_2"])
        beta = decay_from_tau(PAPER_CONFIG.tau_r)
        h = threshold - 1.0                     # theta = 1, Vth = 1
        np.testing.assert_allclose(h[1:], beta * h[:-1] + outputs[:-1],
                                   atol=1e-12)

    def test_fig7_runner(self):
        result = run_experiment("fig7")
        assert result.summary["output_spikes"] == 1
        assert result.summary["threshold_peak"] > \
            result.summary["threshold_base"]
        assert "time" in result.data


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2-shd" in out
        assert "fig8" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Parameters" in out

    def test_run_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])
