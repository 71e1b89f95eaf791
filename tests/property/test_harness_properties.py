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
hardware_st = st.lists(
    st.one_of(
        st.none(),
        st.builds(HardwareSpec, bits=st.integers(2, 8),
                  variation=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
                  seed=st.integers(0, 3), shadow=st.booleans())),
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
    kind = draw(st.sampled_from(["serving", "chaos", "fleet"]))
    kwargs = dict(
        name=f"prop-{kind}",
        kind=kind,
        engines=draw(engines_st),
        precisions=draw(precisions_st),
        hardware=draw(hardware_st),
        workloads=draw(workloads_st),
        loads=draw(loads_st),
        repetitions=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10)),
    )
    if kind == "chaos":
        kwargs["faults"] = ({"site": "serve.tick.raise", "nth": (1,)},)
    return Scenario(**kwargs)


# -- expansion properties ----------------------------------------------------

@given(scenario=scenarios())
@settings(max_examples=120, deadline=None)
def test_every_combination_exactly_once_per_repetition(scenario):
    specs = expand(scenario)
    assert len(specs) == scenario.cells * scenario.repetitions
    combos = [(s.engine, s.precision, s.hardware, s.workload, s.load,
               s.repetition) for s in specs]
    assert len(set(combos)) == len(combos)
    expected = set(itertools.product(
        scenario.engines, scenario.precisions, scenario.hardware,
        scenario.workloads, scenario.loads, range(scenario.repetitions)))
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
                                        "precisions", "hardware",
                                        "workloads", "loads", "repetitions",
                                        "faults")},
                           "seed": other_seed})
    assert [s.run_id for s in expand(scenario)] \
        == [s.run_id for s in expand(reseeded)]


# -- validation properties ---------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(kind="fwd"), "unknown kind"),
    (dict(engines=("cuda",)), "unknown engine"),
    (dict(engines=("fused", "fused")), "duplicate engine"),
    (dict(precisions=("float16",)), "unknown precision"),
    (dict(repetitions=0), "repetitions must be an int >= 1"),
    (dict(sizes=(10,)), "sizes needs >= 2"),
    (dict(name="bad name"), "plain slug"),
    (dict(name=""), "non-empty name"),
])
def test_invalid_scalar_factors_rejected(kwargs, match):
    base = dict(name="v", kind="serving", loads=(LoadSpec("l", 1.0, 1),))
    with pytest.raises(ExperimentError, match=match):
        Scenario(**{**base, **kwargs})


@pytest.mark.parametrize("kwargs,match", [
    (dict(kind="serving", workloads=("audio",),
          loads=(LoadSpec("l", 1.0, 1),)), "unknown workload"),
    (dict(kind="serving"), "concrete load point"),
    (dict(kind="serving", workloads=(None,),
          loads=(LoadSpec("l", 1.0, 1),)), "workloads must be named"),
    (dict(kind="serving", engines=("step",),
          loads=(LoadSpec("l", 1.0, 1),)), "unknown engine"),
    (dict(kind="serving", engines=(), loads=(LoadSpec("l", 1.0, 1),)),
     "factor engines is empty"),
    (dict(kind="serving", precisions=("float32", "float32"),
          loads=(LoadSpec("l", 1.0, 1),)), "duplicate precision"),
    (dict(kind="serving", hardware=(HardwareSpec(), HardwareSpec()),
          loads=(LoadSpec("l", 1.0, 1),)), "duplicate hardware"),
    (dict(kind="serving", hardware=(None, None),
          loads=(LoadSpec("l", 1.0, 1),)), "duplicate ideal"),
    (dict(kind="serving", workloads=("dvs", "dvs"),
          loads=(LoadSpec("l", 1.0, 1),)), "duplicate workload"),
    (dict(kind="serving", loads=(LoadSpec("l", 1.0, 1),
                                 LoadSpec("l", 2.0, 1))),
     "duplicate load-point"),
])
def test_invalid_factor_combinations_rejected(kwargs, match):
    base = dict(name="v", kind="serving")
    with pytest.raises(ExperimentError, match=match):
        Scenario(**{**base, **kwargs})


@pytest.mark.parametrize("kind", ["forward", "backward", "train_step",
                                  "inference", "variation"])
def test_retired_timing_kinds_rejected(kind):
    """Kernel timing lives in the repository benchmark; the harness
    names no timing kind, so an old scenario fails before any compute."""
    with pytest.raises(ExperimentError, match="unknown kind"):
        Scenario(name="v", kind=kind, loads=(LoadSpec("l", 1.0, 1),))


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
