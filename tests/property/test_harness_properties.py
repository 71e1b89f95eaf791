"""Property tests for scenario-grid expansion.

The harness promises (``docs/experiments.md``): every factor combination
expands to exactly one run per repetition, run ids never collide, the
expansion is a pure function of the scenario (stable across calls and
independent of seed), and invalid factor values are rejected eagerly
with :class:`~repro.common.errors.ExperimentError` — before any compute.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExperimentError
from repro.experiments.scenario import (
    ENGINES,
    PRECISIONS,
    HardwareSpec,
    LoadSpec,
    Scenario,
    expand,
)

# -- strategies --------------------------------------------------------------

engines_st = st.lists(st.sampled_from(ENGINES), min_size=1,
                      max_size=len(ENGINES), unique=True).map(tuple)
precisions_st = st.lists(st.sampled_from(PRECISIONS), min_size=1,
                         max_size=len(PRECISIONS), unique=True).map(tuple)
workers_st = st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                      max_size=3, unique=True).map(tuple)
hardware_st = st.lists(
    st.one_of(
        st.none(),
        st.builds(HardwareSpec, bits=st.integers(2, 8),
                  variation=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
                  seed=st.integers(0, 3))),
    min_size=1, max_size=3,
    unique_by=lambda spec: None if spec is None else spec.label,
).map(tuple)
workloads_st = st.lists(
    st.sampled_from(["synthetic", "speech", "dvs", "glyph",
                     "speech+synthetic"]),
    min_size=1, max_size=3, unique=True).map(tuple)
loads_st = st.lists(st.integers(1, 4), min_size=1, max_size=3,
                    unique=True).map(lambda ids: tuple(
                        LoadSpec(f"l{i}", 100.0 * i, 10 * i) for i in ids))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["forward", "backward", "train_step",
                                 "inference", "variation", "serving"]))
    kwargs = dict(
        name=f"prop-{kind}",
        kind=kind,
        engines=draw(engines_st),
        precisions=draw(precisions_st),
        repetitions=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10)),
    )
    if kind in ("train_step", "inference", "variation"):
        kwargs["workers"] = draw(workers_st)
    if kind == "train_step":
        kwargs["hardware"] = draw(hardware_st)
    if kind == "variation":
        kwargs["hardware"] = draw(hardware_st.filter(
            lambda specs: all(s is not None for s in specs)))
    if kind == "serving":
        kwargs["engines"] = ("fused",)   # hardware x step is rejected
        kwargs["hardware"] = draw(hardware_st)
        kwargs["workloads"] = draw(workloads_st)
        kwargs["loads"] = draw(loads_st)
    return Scenario(**kwargs)


# -- expansion properties ----------------------------------------------------

@given(scenario=scenarios())
@settings(max_examples=120, deadline=None)
def test_every_combination_exactly_once_per_repetition(scenario):
    specs = expand(scenario)
    assert len(specs) == scenario.cells * scenario.repetitions
    combos = [(s.engine, s.precision, s.workers, s.hardware, s.workload,
               s.load, s.repetition) for s in specs]
    assert len(set(combos)) == len(combos)
    expected = set(itertools.product(
        scenario.engines, scenario.precisions, scenario.workers,
        scenario.hardware, scenario.workloads, scenario.loads,
        range(scenario.repetitions)))
    assert set(combos) == expected


@given(scenario=scenarios())
@settings(max_examples=120, deadline=None)
def test_run_ids_unique_and_stable(scenario):
    first = [spec.run_id for spec in expand(scenario)]
    assert len(set(first)) == len(first), "duplicate run ids"
    assert [spec.run_id for spec in expand(scenario)] == first


@given(scenario=scenarios(), other_seed=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_grid_independent_of_seed(scenario, other_seed):
    reseeded = Scenario(**{**{f: getattr(scenario, f)
                              for f in ("name", "kind", "engines",
                                        "precisions", "workers", "hardware",
                                        "workloads", "loads", "repetitions")},
                           "seed": other_seed})
    assert [s.run_id for s in expand(scenario)] \
        == [s.run_id for s in expand(reseeded)]


# -- validation properties ---------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(kind="fwd"), "unknown kind"),
    (dict(engines=("cuda",)), "unknown engine"),
    (dict(engines=("fused", "fused")), "duplicate engine"),
    (dict(precisions=("float16",)), "unknown precision"),
    (dict(workers=(-1,)), "workers must be ints"),
    (dict(workers=(1.5,)), "workers must be ints"),
    (dict(kind="forward", workers=(2,)), "no\\s+worker-pool path"),
    (dict(repetitions=0), "repetitions must be an int >= 1"),
    (dict(rounds=0), "rounds must be >= 1"),
    (dict(sizes=(10,)), "sizes needs >= 2"),
    (dict(name="bad name"), "plain slug"),
    (dict(name=""), "non-empty name"),
])
def test_invalid_scalar_factors_rejected(kwargs, match):
    base = dict(name="v", kind="train_step")
    with pytest.raises(ExperimentError, match=match):
        Scenario(**{**base, **kwargs})


@pytest.mark.parametrize("kwargs,match", [
    (dict(kind="serving", workloads=("audio",),
          loads=(LoadSpec("l", 1.0, 1),)), "unknown workload"),
    (dict(kind="serving"), "concrete load point"),
    (dict(kind="forward", workloads=("speech",)), "serving\\s+factor"),
    (dict(kind="forward", loads=(LoadSpec("l", 1.0, 1),)),
     "serving\\s+factor"),
    (dict(kind="serving", engines=("step",),
          hardware=(HardwareSpec(),), loads=(LoadSpec("l", 1.0, 1),)),
     "fused\\s+engine"),
    (dict(kind="variation", hardware=(None,)), "concrete HardwareSpec"),
    (dict(kind="train_step", hardware=(HardwareSpec(shadow=True),)),
     "shadow"),
    (dict(kind="inference", hardware=(HardwareSpec(),)),
     "no\\s+hardware factor"),
    (dict(kind="serving", engines=("step",),
          loads=(LoadSpec("l", 1.0, 1),)), "fused\\s+engine"),
])
def test_invalid_factor_combinations_rejected(kwargs, match):
    base = dict(name="v", kind="serving")
    with pytest.raises(ExperimentError, match=match):
        Scenario(**{**base, **kwargs})


@given(bits=st.integers(-3, 1))
@settings(max_examples=20, deadline=None)
def test_invalid_hardware_bits_rejected(bits):
    with pytest.raises(ExperimentError, match="bits must be >= 2"):
        HardwareSpec(bits=bits)


@given(rate=st.floats(max_value=0.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_invalid_load_rate_rejected(rate):
    with pytest.raises(ExperimentError, match="rate_rps must be > 0"):
        LoadSpec("l", rate, 10)
