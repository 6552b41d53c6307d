import copy
import importlib.util
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fockscan import cli
from fockscan.cli import main
from fockscan.config import (
    SCHEMA,
    build_protocol_config,
    config_hash,
    load_config,
)
from fockscan.drive import mc_population
from fockscan.errors import ConfigError

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
SAMPLE = Path(__file__).parents[1] / "src" / "fockscan" / "configs"
PERFBENCH = Path(__file__).parents[1] / "perfbench" / "configs"


def run_cli(args):
    return main([str(a) for a in args])


def _golden_generator():
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


class TestConfigLoading:
    def test_sample_configs_all_validate(self):
        for path in SAMPLE.glob("*.yaml"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        doc = yaml.safe_load((GOLDEN / "configs" / "sweep.yaml").read_text())
        doc["protocol"]["frequency"] = 7e9
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="frequency"):
            load_config(bad)

    def test_top_level_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("magic: 1\n")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nowhere.yaml")

    def test_q_and_decay_time_exclusive(self, tmp_path):
        doc = yaml.safe_load((GOLDEN / "configs" / "sweep.yaml").read_text())
        doc["protocol"]["q_cavity"] = 1e8
        path = tmp_path / "both.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="exactly one"):
            build_protocol_config(load_config(path))

    def test_unit_conversions(self):
        doc = load_config(GOLDEN / "configs" / "sweep.yaml")
        cfg = build_protocol_config(doc)
        assert cfg.omega == pytest.approx(2 * math.pi * 7e9)
        assert cfg.temp_cavity == pytest.approx(0.05)
        assert cfg.q_cavity == pytest.approx(2 * math.pi * 7e9 * 2.27e-3)
        assert cfg.coupling() == 73.6
        assert cfg.seed == 11

    def test_schema_is_valid(self):
        # load_config validates with a validator built once, without re-checking the schema
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    def test_error_message_matches_jsonschema(self, tmp_path):
        doc = {"sensitivity": {"q_cavity": -1.0, "fock_m": "five"}, "seed": -3}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, SCHEMA)
        with pytest.raises(ConfigError) as got:
            load_config(path)
        exc = expected.value
        assert str(got.value) == f"config validation failed: {exc.message} (at {list(exc.path)})"

    def test_hash_is_order_independent(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)


# Another valid value for every config key that build_protocol_config reads
OTHER_VALUES = {
    ("seed",): 12,
    ("backend",): "effective",
    ("protocol", "n_cavities"): 2,
    ("protocol", "fock_m"): 1,
    ("protocol", "freq_hz"): 6.0e9,
    ("protocol", "temp_cavity_mk"): 40.0,
    ("protocol", "q_cavity"): 1.0e7,   # in place of decay_time_s: the two are exclusive
    ("protocol", "decay_time_s"): 1.0e-3,
    ("protocol", "tau_tot_s"): 2.0,
    ("protocol", "tau_spam_s"): 1.0e-5,
    ("protocol", "ed_scheme"): "linear",
    ("protocol", "bs_fidelity"): 0.99,
    ("protocol", "bs_rate_hz"): 2.0e6,
    ("protocol", "dephasing_ratio"): 0.2,
    ("protocol", "cutoff"): 6,
    ("dm", "epsilon"): 1e-15,
    ("dm", "rho_dm_gev_cm3"): 0.3,
    ("dm", "q_dm"): 2.0e6,
    ("dm", "coupling_rad_s"): 50.0,
}
# Accepted and ignored, so that older configs still load: the projections
# take their SNR target from sensitivity.zeta_snr.
IGNORED_KEYS = {("protocol", "zeta_snr")}


class TestEveryKeyIsRead:
    def test_every_accepted_key_is_listed(self):
        props = SCHEMA["properties"]
        leaves = {("seed",), ("backend",)} | {
            (section, key) for section in ("protocol", "dm") for key in props[section]["properties"]
        }
        assert set(OTHER_VALUES) | IGNORED_KEYS == leaves
        assert not set(OTHER_VALUES) & IGNORED_KEYS

    @pytest.mark.parametrize("where", sorted(OTHER_VALUES), ids=".".join)
    def test_changing_a_key_changes_the_config(self, tmp_path, where):
        base = GOLDEN / "configs" / "sweep.yaml"
        doc = yaml.safe_load(base.read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        assert node.get(where[-1]) != OTHER_VALUES[where]
        node[where[-1]] = OTHER_VALUES[where]
        if where == ("protocol", "q_cavity"):
            del node["decay_time_s"]
        path = tmp_path / "changed.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert build_protocol_config(load_config(path)) != build_protocol_config(load_config(base))

    @pytest.mark.parametrize("flags,backend", [([], "effective"), (["--backend", "full"], "full")])
    def test_backend_key_and_flag(self, tmp_path, monkeypatch, flags, backend):
        # auto would take the full backend for this two-cavity config
        monkeypatch.delenv("FOCKSCAN_BACKEND", raising=False)
        doc = yaml.safe_load((GOLDEN / "configs" / "cycle.yaml").read_text())
        doc["backend"] = "effective"
        path = tmp_path / "effective.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert run_cli(["simulate-cycle", "--config", path, "--out", out, "--jobs", 1, *flags]) == 0
        assert json.loads((out / "cycle.json").read_text())["cycle"]["backend"] == backend


def _property_names(schema):
    """Every property name a schema mentions, at any depth."""
    props = schema.get("properties", {})
    names = set(props)
    for sub in props.values():
        names |= _property_names(sub)
    if "items" in schema:
        names |= _property_names(schema["items"])
    return names


# JSON Schema's `integer` admits 1.0; the config checker does not
ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)),
)(SCHEMA)
BASE_DOCS = [yaml.safe_load(p.read_text())
             for folder in (SAMPLE, GOLDEN / "configs", PERFBENCH)
             for p in sorted(folder.glob("*.yaml"))]
KEYS = st.one_of(
    st.sampled_from(sorted(_property_names(SCHEMA)) + ["bogus", "Seed", ""]),
    st.integers(-2, 2), st.booleans(), st.none(), st.just(1.5),
)
SCALARS = st.one_of(
    st.booleans(), st.none(),
    st.integers(-3, 3), st.sampled_from([2 ** 64 - 1, 2 ** 64, -(2 ** 70)]),
    st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 12.0, 1e300, -1e-300]),
    st.sampled_from(["auto", "full", "effective", "linear", "binary", "Binary", "five", ""]),
)
VALUES = st.one_of(
    SCALARS,
    st.just([]),
    st.lists(SCALARS, max_size=3),
    st.dictionaries(KEYS, SCALARS, max_size=2),
)


def _paths(node, path=()):
    """Every key path into a loaded YAML document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A sample, golden or benchmark config with values replaced, keys added or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path:
            node = node[key]
        action = draw(st.sampled_from(["replace", "add", "delete", "empty"]))
        if action == "replace" and path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = draw(VALUES)
        elif action == "add" and isinstance(node, dict):
            node.update(draw(st.dictionaries(KEYS, VALUES, min_size=1, max_size=3)))
        elif action == "delete" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(list(node)))]
        elif action == "empty" and isinstance(node, list):
            node.clear()
    return doc


class TestSchemaChecker:
    @settings(max_examples=400, deadline=None)
    @given(doc=mutated_configs())
    def test_matches_jsonschema_best_match(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("oracle") / "doc.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        loaded = yaml.safe_load(path.read_text())
        expected = jsonschema.exceptions.best_match(ORACLE.iter_errors(loaded))
        if expected is None:
            assert load_config(path) == loaded
        else:
            with pytest.raises(ConfigError) as got:
                load_config(path)
            assert str(got.value) == (
                f"config validation failed: {expected.message} (at {list(expected.path)})")

    def test_cli_import_leaves_jsonschema_out(self):
        code = ("import sys, fockscan.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ), check=True)
        assert proc.stdout.strip() == "[]"


def _key_paths(config):
    """The path of every top-level and sensitivity key of a golden config."""
    doc = yaml.safe_load((GOLDEN / "configs" / config).read_text())
    return [(key,) for key in doc] + [("sensitivity", key) for key in doc["sensitivity"]]


def _assert_too_cold(tmp_path, command, config, changes, message):
    """Run command on a golden config with changed sensitivity keys; it must exit 2 as too cold."""
    doc = yaml.safe_load((GOLDEN / "configs" / config).read_text())
    doc["sensitivity"].update(changes)
    cold = tmp_path / "cold.yaml"
    cold.write_text(yaml.safe_dump(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "fockscan.cli", command,
         "--config", str(cold), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: cavity temperature {message}")
    assert not any((tmp_path / "out").iterdir())


class TestExitCodes:
    def test_gate_validation_ok(self, tmp_path):
        assert run_cli(["validate-gates", "--config", GOLDEN / "configs" / "gates.yaml",
                        "--out", tmp_path, "--jobs", 1]) == 0

    def test_single_cavity_identity_report(self, tmp_path):
        cfg = tmp_path / "n1.yaml"
        cfg.write_text("gates:\n  n_cavities: 1\n  scheme: linear\n  cutoff: 6\n")
        assert run_cli(["validate-gates", "--config", cfg, "--out", tmp_path]) == 0
        rep = json.loads((tmp_path / "validate_gates.json").read_text())
        assert rep["report"]["passed"] is True
        assert rep["depth"] == 0

    def test_binary_three_cavities_exits_two(self, tmp_path):
        cfg = tmp_path / "n3.yaml"
        cfg.write_text("gates:\n  n_cavities: 3\n  scheme: binary\n")
        assert run_cli(["validate-gates", "--config", cfg, "--out", tmp_path]) == 2

    def test_missing_config_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FOCKSCAN_CONFIG", raising=False)
        assert run_cli(["mc-dm", "--out", tmp_path]) == 2

    def test_empty_sweep_grid_exits_two(self, tmp_path):
        doc = yaml.safe_load((GOLDEN / "configs" / "sweep.yaml").read_text())
        doc["sweep"]["fock_m_list"] = []
        bad = tmp_path / "empty.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run_cli(["snr-sweep", "--config", bad, "--out", tmp_path]) == 2

    def test_numpy_overflow_exits_three(self, tmp_path, capsys):
        # populations near 1e292 overflow when the standard error squares them
        doc = yaml.safe_load((GOLDEN / "configs" / "mc.yaml").read_text())
        doc["dm"]["coupling_rad_s"] = 1e150
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert run_cli(["mc-dm", "--config", cfg, "--out", tmp_path, "--jobs", 1]) == 3
        assert "numerical guard: overflow encountered" in capsys.readouterr().err
        assert not (tmp_path / "mc_dm.csv").exists()

    def test_dm_detuning_key_exits_two(self, tmp_path, capsys):
        # the Monte Carlo detuning is mc.detuning_linewidths; dm has no such key
        doc = yaml.safe_load((GOLDEN / "configs" / "mc.yaml").read_text())
        doc["dm"]["detuning_linewidths"] = 2.0
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run_cli(["mc-dm", "--config", bad, "--out", tmp_path / "out", "--jobs", 1]) == 2
        assert capsys.readouterr().err == (
            "config error: config validation failed: Additional properties are not allowed "
            "('detuning_linewidths' was unexpected) (at ['dm'])\n")

    def test_low_q_sweep_exits_zero(self, tmp_path):
        # at Q 1e5 the m = 5 signal decays to rounding residues of either sign,
        # and the closed-form objective underflows at the search's first probes
        doc = yaml.safe_load((GOLDEN / "configs" / "sweep.yaml").read_text())
        del doc["protocol"]["decay_time_s"]
        doc["protocol"]["q_cavity"] = 1.0e5
        doc["sweep"]["fock_m_list"] = [4, 5]
        cfg = tmp_path / "low_q.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert run_cli(["snr-sweep", "--config", cfg, "--out", tmp_path, "--jobs", 1]) == 0
        curves = json.loads((tmp_path / "snr_sweep.json").read_text())["curves"]
        assert curves["m=5"]["tau_opt_closed_form_over_taudm"] < 2.0

    def test_insufficient_grid_coverage_exits_two(self, tmp_path):
        doc = yaml.safe_load((GOLDEN / "configs" / "sweep.yaml").read_text())
        doc["sweep"]["tau_int_max_taudm"] = 5.0
        bad = tmp_path / "short.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run_cli(["snr-sweep", "--config", bad, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("changes,message", [
        # at 5 GHz and 0.1 mK, hbar w / k T ~ 2400 underflows n_th to 0
        pytest.param({"temps_mk": [0.1]},
                     "0.0001 K is too cold at 5e+09 Hz: hbar w / k T = 2400", id="0.1mK"),
        # n_th is 4e-322 at the first step, and the exposure underflows to 0
        pytest.param({"temps_mk": [0.3243], "target_epsilon": 1e-12, "n_cavities": 16,
                      "fock_m": 10, "time_budget_hours": 1.0},
                     "0.0003243 K is too cold at 5e+09 Hz: hbar w / k T = 739.9", id="0.3243mK"),
    ])
    def test_cold_cavity_reach_exits_two(self, tmp_path, changes, message):
        _assert_too_cold(tmp_path, "reach", "reach.yaml", changes, message)

    @pytest.mark.parametrize("changes,message", [
        # the first grid point, 3 GHz at 0.1 mK, has hbar w / k T ~ 1440
        pytest.param({"temps_mk": [0.1]},
                     "0.0001 K is too cold at 3e+09 Hz: hbar w / k T = 1440", id="0.1mK"),
        # eps^4 underflowed to 0 on every row of this grid, which made the fit NaN
        pytest.param({"temps_mk": [0.36], "freq_min_ghz": 5.0, "freq_max_ghz": 5.5,
                      "freq_points": 3},
                     "0.00036 K is too cold at 5.5e+09 Hz: hbar w / k T = 733.2", id="0.36mK"),
    ])
    def test_cold_cavity_exclusion_exits_two(self, tmp_path, changes, message):
        _assert_too_cold(tmp_path, "exclusion", "exclusion.yaml", changes, message)

    def test_oversized_full_backend_exits_two(self, tmp_path):
        # N=5 at m=5 (cutoff 9) is dimension 59049, under the 65536 ceiling,
        # but one dense rho alone would take 56 GB; the child's address space
        # is capped so a missing guard fails with MemoryError, not by swapping
        doc = yaml.safe_load((GOLDEN / "configs" / "cycle.yaml").read_text())
        doc["protocol"].update(n_cavities=5, fock_m=5, ed_scheme="linear")
        big = tmp_path / "big.yaml"
        big.write_text(yaml.safe_dump(doc))
        limit = 2 * 1024 ** 3

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "fockscan.cli", "simulate-cycle", "--backend", "full",
             "--config", str(big), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, preexec_fn=cap_address_space,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: the full backend at dimension 59049")
        assert "use the effective backend" in proc.stderr

    @pytest.mark.parametrize("command,config,where,literal", [
        ("exclusion", "exclusion.yaml", ["sensitivity", "tau_tot_s"], ".nan"),
        ("exclusion", "exclusion.yaml", ["sensitivity", "temps_mk", 1], ".inf"),
        ("mc-dm", "mc.yaml", ["dm", "coupling_rad_s"], ".nan"),
        ("simulate-cycle", "cycle.yaml", ["protocol", "freq_hz"], ".nan"),
        ("simulate-cycle", "cycle.yaml", ["protocol", "freq_hz"], "-.inf"),
        ("simulate-cycle", "cycle.yaml", ["protocol", "freq_hz"], "1.0e+400"),
        ("simulate-cycle", "cycle.yaml", ["protocol", "freq_hz"], "1e400"),
    ])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, command, config, where, literal):
        # the schema's bounds pass NaN; YAML reads 1.0e+400 as inf and 1e400 as a string
        doc = yaml.safe_load((GOLDEN / "configs" / config).read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = "PLACEHOLDER"
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc).replace("PLACEHOLDER", literal))
        assert run_cli([command, "--config", bad, "--out", tmp_path / "out", "--jobs", 1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config validation failed")
        assert f"(at {where})" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,config,where", [
        ("snr-sweep", "sweep.yaml", ["sweep", "points"]),
        ("validate-gates", "gates.yaml", ["gates", "max_fock"]),
        ("validate-gates", "gates.yaml", ["gates", "cutoff"]),
        ("mc-dm", "mc.yaml", ["mc", "n_traj"]),
        ("scan-rate", "scan.yaml", ["sweep", "n_cavities_list", 1]),
        ("exclusion", "exclusion.yaml", ["sensitivity", "freq_points"]),
        ("reach", "reach.yaml", ["sensitivity", "n_cavities"]),
        ("simulate-cycle", "cycle.yaml", ["protocol", "fock_m"]),
        ("simulate-cycle", "cycle.yaml", ["protocol", "n_cavities"]),
    ])
    def test_integer_field_written_as_float_exits_two(self, tmp_path, capsys, command, config,
                                                      where):
        # JSON Schema's integer admits 1.0, which then ended in a TypeError
        doc = yaml.safe_load((GOLDEN / "configs" / config).read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value = float(node[where[-1]])
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run_cli([command, "--config", bad, "--out", tmp_path / "out", "--jobs", 1]) == 2
        assert capsys.readouterr().err == (
            f"config error: config validation failed: {value!r} is not of type 'integer'"
            f" (at {where})\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,config,where", [
        pytest.param(command, config, where, id=f"{command}-{'.'.join(where)}")
        for command, config in (("reach", "reach.yaml"), ("exclusion", "exclusion.yaml"))
        for where in _key_paths(config)
    ])
    def test_deleted_key_exits_zero_or_two(self, tmp_path, capsys, command, config, where):
        # every key is either optional or named when missing; none ends in a traceback
        doc = yaml.safe_load((GOLDEN / "configs" / config).read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        del node[where[-1]]
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        code = run_cli([command, "--config", bad, "--out", tmp_path / "out", "--jobs", 1])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("config error:")

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "utf16.yaml"
        bad.write_bytes((GOLDEN / "configs" / "mc.yaml").read_text().encode("utf-16"))
        assert bad.read_bytes()[:2] == b"\xff\xfe"
        assert run_cli(["mc-dm", "--config", bad, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {bad}")

    @pytest.mark.parametrize("name,value,error", [
        pytest.param("FOCKSCAN_JOBS", "two", "invalid int value: 'two'", id="FOCKSCAN_JOBS-two"),
        pytest.param("FOCKSCAN_SEED", "1.5", "invalid int value: '1.5'", id="FOCKSCAN_SEED-1.5"),
        pytest.param("FOCKSCAN_SEED", "-1", "-1 is outside the seed range 0..18446744073709551615",
                     id="FOCKSCAN_SEED--1"),
    ])
    def test_malformed_integer_env_var_exits_two(self, tmp_path, monkeypatch, capsys, name, value,
                                                 error):
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate-gates", "--config", GOLDEN / "configs" / "gates.yaml",
                     "--out", tmp_path])
        assert exc.value.code == 2
        flag = name.removeprefix("FOCKSCAN_").lower()
        assert f"argument --{flag}: {error}" in capsys.readouterr().err
        monkeypatch.setenv(name, "")
        assert run_cli(["validate-gates", "--config", GOLDEN / "configs" / "gates.yaml",
                        "--out", tmp_path, "--jobs", 1]) == 0

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_outside_schema_range_exits_two(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mc-dm", "--config", GOLDEN / "configs" / "mc.yaml", "--out", tmp_path,
                     "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: {seed} is outside the seed range" in err
        assert "Traceback" not in err
        for edge in (0, 2 ** 64 - 1):
            assert run_cli(["validate-gates", "--config", GOLDEN / "configs" / "gates.yaml",
                            "--out", tmp_path, "--jobs", 1, "--seed", edge]) == 0


class TestDeterminism:
    @pytest.mark.parametrize("command,config,outputs", [
        (command, config, sorted((GOLDEN / "expected" / outname).iterdir()))
        for command, config, outname in _golden_generator().JOBS
    ])
    def test_golden_and_repeatable(self, tmp_path, command, config, outputs):
        cfg = GOLDEN / "configs" / config
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli([command, "--config", cfg, "--out", out1, "--jobs", 1]) == 0
        assert run_cli([command, "--config", cfg, "--out", out2, "--jobs", 1]) == 0
        assert sorted(p.name for p in out1.iterdir()) == [p.name for p in outputs]
        for expected in outputs:
            bytes1 = (out1 / expected.name).read_bytes()
            assert bytes1 == (out2 / expected.name).read_bytes(), f"{expected.name} not reproducible"
            assert bytes1 == expected.read_bytes(), f"{expected.name} differs from golden copy"

    def test_seed_flag_changes_mc_output(self, tmp_path):
        cfg = GOLDEN / "configs" / "mc.yaml"
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli(["mc-dm", "--config", cfg, "--out", out1])
        run_cli(["mc-dm", "--config", cfg, "--out", out2, "--seed", 99])
        assert (out1 / "mc_dm.csv").read_bytes() != (out2 / "mc_dm.csv").read_bytes()

    def test_env_var_seed(self, tmp_path, monkeypatch):
        cfg = GOLDEN / "configs" / "mc.yaml"
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("FOCKSCAN_SEED", "99")
        run_cli(["mc-dm", "--config", cfg, "--out", out1])
        monkeypatch.delenv("FOCKSCAN_SEED")
        run_cli(["mc-dm", "--config", cfg, "--out", out2, "--seed", 99])
        assert (out1 / "mc_dm.csv").read_bytes() == (out2 / "mc_dm.csv").read_bytes()

    @pytest.mark.parametrize("source,expected", [
        ("flag", 33), ("env", 22), ("config", 11), ("default", 0),
    ])
    def test_header_names_the_seed_mc_used(self, tmp_path, monkeypatch, source, expected):
        # precedence: --seed, then FOCKSCAN_SEED, then the config's seed, then 0
        doc = yaml.safe_load((GOLDEN / "configs" / "mc.yaml").read_text())
        doc["mc"]["n_traj"] = 5
        if source == "default":
            del doc["seed"]
        cfg = tmp_path / "mc.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        monkeypatch.delenv("FOCKSCAN_SEED", raising=False)
        if source in ("flag", "env"):
            monkeypatch.setenv("FOCKSCAN_SEED", "22")
        used = []

        def spy(*args, **kwargs):
            used.append(args[5])
            return mc_population(*args, **kwargs)

        monkeypatch.setattr(cli, "mc_population", spy)
        flag = ["--seed", 33] if source == "flag" else []
        assert run_cli(["mc-dm", "--config", cfg, "--out", tmp_path, "--jobs", 1, *flag]) == 0
        header = (tmp_path / "mc_dm.csv").read_text().splitlines()
        assert used == [expected]
        assert f"# seed={expected}" in header

    def test_mc_parallel_jobs_identical(self, tmp_path):
        cfg = GOLDEN / "configs" / "mc.yaml"
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        run_cli(["mc-dm", "--config", cfg, "--out", out1, "--jobs", 1])
        run_cli(["mc-dm", "--config", cfg, "--out", out2, "--jobs", 3])
        assert (out1 / "mc_dm.csv").read_bytes() == (out2 / "mc_dm.csv").read_bytes()


class TestOutputContent:
    def test_mc_csv_headers_and_agreement(self, tmp_path):
        doc = yaml.safe_load((GOLDEN / "configs" / "mc.yaml").read_text())
        doc["mc"]["n_traj"] = 4000
        cfg = tmp_path / "mc.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        run_cli(["mc-dm", "--config", cfg, "--out", tmp_path, "--jobs", 2])
        lines = (tmp_path / "mc_dm.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# config_hash=") for l in header)
        assert any(l.startswith("# seed=") for l in header)
        data = np.genfromtxt(
            [l for l in lines if not l.startswith("#")][1:], delimiter=",",
        )
        z = np.abs(data[:, 2] - data[:, 1]) / data[:, 3]
        assert z.max() < 3.0

    def _detuned_table(self, tmp_path, linewidths):
        tmp_path.mkdir(parents=True, exist_ok=True)
        doc = yaml.safe_load((GOLDEN / "configs" / "mc.yaml").read_text())
        doc["mc"].update(n_traj=3000, detuning_linewidths=linewidths,
                         points=60, t_max_taudm=6.0)
        cfg = tmp_path / "det.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        run_cli(["mc-dm", "--config", cfg, "--out", tmp_path])
        lines = [l for l in (tmp_path / "mc_dm.csv").read_text().splitlines()
                 if not l.startswith("#")]
        return np.genfromtxt(lines[1:], delimiter=",")

    def test_mc_detuned_transient_oscillation(self, tmp_path):
        # at twice the linewidth the population still grows monotonically but
        # its growth rate oscillates (curvature sign changes at short times)
        data = self._detuned_table(tmp_path / "two", 2.0)
        curv = np.diff(data[:, 1], n=2)
        assert np.sum(curv[:-1] * curv[1:] < 0) >= 2
        # at four linewidths the oscillation is strong enough to flip dn/dt
        # in both the analytic and the Monte Carlo columns
        data = self._detuned_table(tmp_path / "four", 4.0)
        for col in (1, 2):
            deriv = np.diff(data[:, col])
            assert np.any(deriv[:-1] * deriv[1:] < 0)

    def test_snr_sweep_json_has_stars(self, tmp_path):
        run_cli(["snr-sweep", "--config", GOLDEN / "configs" / "sweep.yaml",
                 "--out", tmp_path])
        summary = json.loads((tmp_path / "snr_sweep.json").read_text())
        assert "m=0" in summary["curves"]
        star = summary["curves"]["m=0"]
        assert star["tau_opt_over_taudm"] > 0
        assert star["snr_max"] > 0

    def test_scan_rate_csv_columns(self, tmp_path):
        run_cli(["scan-rate", "--config", GOLDEN / "configs" / "scan.yaml",
                 "--out", tmp_path])
        first = [l for l in (tmp_path / "scan_rate.csv").read_text().splitlines()
                 if not l.startswith("#")][0]
        assert first.split(",")[:3] == ["n_cavities", "fock_m", "snr_max"]

    def test_cli_entry_point_runs(self, tmp_path):
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, "-m", "fockscan.cli", "validate-gates",
             "--config", str(GOLDEN / "configs" / "gates.yaml"), "--out", str(tmp_path)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0


def test_golden_generator_reports_numeric_change():
    generate = _golden_generator()
    old = b"# seed=11\nt,n\n0.5,1.25e-3\n1.0,2.0\n"
    assert generate.compare(old, old) == "unchanged"
    moved = generate.compare(old, old.replace(b"1.25e-3", b"1.2500000001e-3"))
    assert moved == "changed: max relative numeric change 8e-11"
    assert generate.compare(old, old + b"x\n") == "changed: text differs beyond its numbers"
    assert generate.compare(None, old) == "new"
    # a rounding residue near 1e-15 is reported as an absolute change, per column
    old = b"# seed=11\nt,n,trace_error\n0.5,1.25e-3,1.0e-15\n"
    new = old.replace(b"1.25e-3", b"1.2500000001e-3").replace(b"1.0e-15", b"3.0e-15")
    assert generate.compare(old, new) == (
        "changed: max relative numeric change 8e-11, residues max absolute change 2e-15")
    moved = generate.column_changes(old, new)
    assert moved == {"# seed": 0.0, "t": 0.0, "n": pytest.approx(8e-11, rel=1e-3, abs=0),
                     "trace_error": pytest.approx(2e-15, rel=1e-3, abs=0)}
    doc = b'{"curves": {"m=0": {"leakage": 1e-15, "snr_max": 0.5}}}'
    assert generate.column_changes(doc, doc.replace(b"1e-15", b"-1e-15")) == {
        "curves.m=0.leakage": 2e-15, "curves.m=0.snr_max": 0.0}


def _expected_bytes():
    return {p: p.read_bytes() for p in (GOLDEN / "expected").rglob("*") if p.is_file()}


@pytest.fixture
def gates_only_generator(monkeypatch):
    """The golden generator restricted to its cheap validate-gates job."""
    generate = _golden_generator()
    monkeypatch.setattr(generate, "JOBS", [("validate-gates", "gates.yaml", "gates")])
    return generate


def test_golden_check_passes_and_leaves_expected_alone(gates_only_generator, capsys):
    before = _expected_bytes()
    assert gates_only_generator.regenerate(check=True) == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict == "validate-gates: gates/validate_gates.json: unchanged"
    assert _expected_bytes() == before


def test_golden_check_fails_on_changed_output(gates_only_generator, monkeypatch, capsys):
    real_main = gates_only_generator.main

    def drifting_main(args):
        code = real_main(args)
        out = Path(args[args.index("--out") + 1])
        for path in out.iterdir():
            path.write_bytes(path.read_bytes() + b"\n")
        return code

    monkeypatch.setattr(gates_only_generator, "main", drifting_main)
    before = _expected_bytes()
    assert gates_only_generator.regenerate(check=True) == 1
    assert "validate_gates.json: changed" in capsys.readouterr().out
    assert _expected_bytes() == before
