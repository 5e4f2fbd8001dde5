import copy
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sulfsim import ConfigError, Grid1D, KernelSpec, PhysicalParams, SimConfig, validate_config
from sulfsim.config import (
    MAX_GRID_NODES,
    MAX_STEPS,
    _YAML_LOADER,
    InitialDensitySpec,
    config_from_dict,
    config_violations,
    derive_grid,
    load_config,
)

DEFAULT_YAML = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def test_porosity_example_valid():
    p = PhysicalParams(lam=1.0, c0=1.0, phi0=0.3, phi1=0.7, phi_bar=2.0)
    assert p.violations() == []
    assert p.phi0 + p.phi1 * p.c0 == pytest.approx(1.0)


def test_porosity_example_invalid():
    p = PhysicalParams(phi0=0.3, phi1=-0.4, c0=1.0)
    msgs = p.violations()
    assert len(msgs) == 1
    assert "phi0 + phi1*c0" in msgs[0]


def test_cfl_example_invalid():
    cfg = SimConfig(step=0.01, horizon=0.5, grid=Grid1D(-8.0, 8.0, 0.1))
    msgs = config_violations(cfg)
    assert any("CFL" in m for m in msgs)
    # dt = 0.004 <= 0.1^2/2 = 0.005 passes
    ok = replace(cfg, step=0.004)
    assert not any("CFL" in m for m in config_violations(ok))


def test_step_must_divide_horizon():
    cfg = SimConfig(step=3e-4, horizon=0.5, grid=Grid1D(-8.0, 8.0, 0.1))
    assert any("divide" in m for m in config_violations(cfg))


def test_validate_is_idempotent():
    cfg = SimConfig().with_grid()
    once = validate_config(cfg)
    twice = validate_config(once)
    assert twice is once


def test_validate_raises_with_full_violation_list():
    cfg = SimConfig(
        physical=PhysicalParams(lam=-1.0, phi0=0.3, phi1=-0.4),
        kernel=replace(SimConfig().kernel, bandwidth=-0.1),
        grid=Grid1D(-8.0, 8.0, 0.1),
        step=0.01,
    )
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    text = "\n".join(err.value.violations)
    assert "lambda" in text and "phi0 + phi1*c0" in text and "bandwidth" in text
    assert "CFL" in text


def test_grid_nodes_uniform_increasing():
    g = Grid1D(-2.0, 2.0, 0.5)
    assert g.n_nodes == 9
    nodes = g.nodes()
    assert np.all(np.diff(nodes) > 0)
    assert np.allclose(np.diff(nodes), 0.5)
    assert nodes[0] == -2.0 and nodes[-1] == 2.0


def test_grid_spacing_must_divide_span():
    g = Grid1D(-1.0, 1.0, 0.3)
    assert any("divide" in m for m in g.violations())


def test_default_grid_half_width():
    ini = InitialDensitySpec(family="gaussian-bump", width=1.0)
    g = derive_grid(horizon=0.5, bandwidth=0.3, initial=ini, spacing=0.05)
    expected = 6.0 * math.sqrt(1.0) + 6.0 + 2.4
    assert g.upper == pytest.approx(expected, abs=0.05)
    assert g.lower == -g.upper


def test_narrow_gaussian_rejected_by_s0():
    # max density 1/(0.3 sqrt(2 pi)) ~ 1.33 > 1
    cfg = SimConfig(initial=InitialDensitySpec(width=0.3)).with_grid()
    msgs = config_violations(cfg)
    assert any("s0" in m for m in msgs)


def test_yaml_roundtrip(tmp_path):
    cfg = validate_config(SimConfig(seed=99).with_grid())
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    loaded = load_config(path)
    assert validate_config(loaded.with_grid()) == cfg


def test_config_from_dict_accepts_partial():
    cfg = config_from_dict({"particles": 42, "physical": {"lambda": 0.0}})
    assert cfg.particles == 42
    assert cfg.physical.lam == 0.0
    assert cfg.mode == "feynman-kac"


def test_default_yaml_loads_and_validates():
    cfg = validate_config(load_config(DEFAULT_YAML))
    assert cfg == SimConfig().with_grid()


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_loader_reads_the_default_yaml_like_the_python_one():
    assert _YAML_LOADER is yaml.CSafeLoader
    text = DEFAULT_YAML.read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_spacing_above_twice_the_bandwidth_is_refused():
    # the default grid's spacing is 0.05
    for bandwidth in (0.0025, 1e-6):
        assert config_violations(SimConfig(kernel=KernelSpec(bandwidth=bandwidth))) == [
            f"grid spacing 0.05 exceeds 2 times the kernel bandwidth {bandwidth}"]
    assert config_violations(SimConfig(kernel=KernelSpec(bandwidth=0.025))) == []


def test_grid_node_count_bounded_before_allocation():
    msgs = config_violations(SimConfig(grid=Grid1D(-1e9, 1e9, 0.05)))
    assert any(f"more than {MAX_GRID_NODES}" in m for m in msgs)


def test_step_count_bounded():
    grid = Grid1D(-14.4, 14.4, 0.05)
    assert config_violations(SimConfig(grid=grid, horizon=10.0, step=1e-6)) == []
    for horizon, step, steps in ((10.0, 5e-7, "2e+07"), (1e300, 1e-3, "1e+303"),
                                 (0.5, 5e-324, "inf")):
        assert config_violations(SimConfig(grid=grid, horizon=horizon, step=step)) == [
            f"horizon {horizon} at step {step} takes {steps} steps, more than {MAX_STEPS}"]


def test_bandwidth_above_1024_spacings_is_refused():
    # the kernel's reach in nodes sizes the deposit's block matrix and the PDE's taps
    grid = Grid1D(-14.4, 14.4, 0.05)
    assert config_violations(SimConfig(grid=grid, kernel=KernelSpec(bandwidth=51.2))) == []
    for bandwidth in (51.3, 1e6, 1e300):
        assert config_violations(SimConfig(grid=grid, kernel=KernelSpec(bandwidth=bandwidth))) == [
            f"kernel bandwidth {bandwidth} exceeds 1024 times the grid spacing 0.05"]


@pytest.mark.parametrize("config", [
    SimConfig(step=5e-324),  # horizon / step overflows
    SimConfig(grid=Grid1D(-14.4, 14.4, 5e-324)),  # the node count overflows
    SimConfig(kernel=KernelSpec(bandwidth=1e308)),  # the default grid's half-width overflows
], ids=["step", "grid-spacing", "derived-grid"])
def test_overflowing_ratios_are_refused_not_raised(config):
    assert config_violations(config)


def test_config_from_dict_names_every_bad_key_once():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"bogus": 1, "physical": {"lambda": "x", "typo": 2}, "seed": 2.9,
                          "initial": {"table_x": [0.0, "a"]}})
    v = err.value.violations
    assert len(v) == 5
    for path in ("bogus", "physical.lambda", "physical.typo", "seed", "initial.table_x[1]"):
        assert sum(m.startswith(path + " ") for m in v) == 1, (path, v)


def test_partial_grid_takes_the_rest_from_the_derived_grid():
    cfg = config_from_dict({"horizon": 2.0, "grid": {"lower": -9.0}})
    derived = derive_grid(2.0, 0.3, InitialDensitySpec())
    assert cfg.grid == Grid1D(-9.0, derived.upper, derived.spacing)
    # a spacing alone gets the bounds derived at that spacing, which it divides
    cfg = config_from_dict({"grid": {"spacing": 0.07}})
    assert cfg.grid == derive_grid(0.5, 0.3, InitialDensitySpec(), spacing=0.07)
    assert config_violations(cfg) == []


finite = st.floats(allow_nan=False, allow_infinity=False)
tables = st.none() | st.lists(finite).map(tuple)
configs = st.builds(
    SimConfig,
    physical=st.builds(PhysicalParams, lam=finite, c0=finite, phi0=finite, phi1=finite,
                       phi_bar=finite, s0=finite),
    kernel=st.builds(KernelSpec, bandwidth=finite),
    grid=st.builds(Grid1D, lower=finite, upper=finite, spacing=finite),
    horizon=finite,
    step=finite,
    particles=st.integers(),
    mode=st.text(),
    seed=st.integers(),
    initial=st.builds(InitialDensitySpec, family=st.text(), center=finite, width=finite,
                      normalize=st.booleans(), table_x=tables, table_p=tables),
)


@given(configs)
def test_to_dict_round_trips(cfg):
    assert config_from_dict(cfg.to_dict()) == cfg


def _leaves(d, path=()):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


DEFAULT_DICT = SimConfig().to_dict()
nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
containers = st.lists(st.integers(), max_size=3) | st.dictionaries(st.text(), st.integers(),
                                                                   max_size=2)
# per leaf type: values of the wrong type, or non-finite ones
BAD_LEAVES = {
    float: st.text() | st.booleans() | st.none() | containers | nonfinite,
    int: st.floats() | st.text() | st.booleans() | st.none() | containers,
    str: st.floats() | st.integers() | st.booleans() | st.none() | containers,
    bool: st.floats() | st.integers() | st.text() | st.none() | containers,
}


def _leaf_type(path):
    node = DEFAULT_DICT
    for key in path:
        node = node[key]
    return type(node)


@settings(max_examples=300)
@given(st.sampled_from(list(_leaves(DEFAULT_DICT))).flatmap(
    lambda path: st.tuples(st.just(path), BAD_LEAVES[_leaf_type(path)])))
def test_bad_leaf_raises_config_error(case):
    path, value = case
    d = copy.deepcopy(DEFAULT_DICT)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        validate_config(config_from_dict(d))
    assert path[-1] in "\n".join(err.value.violations)
