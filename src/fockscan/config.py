"""Run-configuration loading, validation, and unit conversion.

Configs are YAML documents with unit-suffixed field names; every frequency
or rate given in Hz is converted to angular units (rad/s) here, once, at
the boundary.  Unknown keys are rejected by the schema so typos fail loudly
instead of silently falling back to defaults.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema
import yaml

from .drive import rho_dm_si
from .errors import ConfigError
from .protocol import ProtocolConfig
from .sensitivity import SensitivityParams

TWO_PI = 2.0 * math.pi

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_INT = {"type": "integer", "minimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "maximum": 2 ** 64 - 1},
        "backend": {"enum": ["auto", "full", "effective"]},
        "protocol": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_cavities": {"type": "integer", "minimum": 1},
                "fock_m": _INT,
                "freq_hz": _POS,
                "temp_cavity_mk": _POS,
                "q_cavity": _POS,
                "decay_time_s": _POS,
                "tau_tot_s": _POS,
                "tau_spam_s": {"type": "number", "minimum": 0},
                "ed_scheme": {"enum": ["linear", "binary"]},
                "bs_fidelity": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "bs_rate_hz": _POS,
                "zeta_snr": _POS,
                "dephasing_ratio": {"type": "number", "minimum": 0},
                "cutoff": {"type": "integer", "minimum": 2},
            },
            "required": ["n_cavities", "fock_m", "freq_hz", "temp_cavity_mk", "tau_tot_s"],
        },
        "dm": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epsilon": _POS,
                "rho_dm_gev_cm3": _POS,
                "q_dm": _POS,
                "coupling_rad_s": _POS,
                "detuning_linewidths": _NUM,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau_int_min_taudm": _POS,
                "tau_int_max_taudm": _POS,
                "points": {"type": "integer", "minimum": 2},
                "fock_m_list": {"type": "array", "items": _INT, "minItems": 1},
                "n_cavities_list": {
                    "type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1,
                },
            },
        },
        "cycle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tau_int_taudm": _POS},
            "required": ["tau_int_taudm"],
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_traj": {"type": "integer", "minimum": 1},
                "t_max_taudm": _POS,
                "points": {"type": "integer", "minimum": 2},
                "detuning_linewidths": _NUM,
            },
        },
        "sensitivity": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "zeta_snr": _POS,
                "rho_dm_gev_cm3": _POS,
                "q_dm": _POS,
                "q_cavity": _POS,
                "n_cavities": {"type": "integer", "minimum": 1},
                "fock_m": _INT,
                "temps_mk": {"type": "array", "items": _POS, "minItems": 1},
                "freq_min_ghz": _POS,
                "freq_max_ghz": _POS,
                "freq_points": {"type": "integer", "minimum": 2},
                "target_epsilon": _POS,
                "tau_tot_s": _POS,
                "time_budget_hours": _POS,
                "configurations": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "n_cavities": {"type": "integer", "minimum": 1},
                            "fock_m": _INT,
                        },
                        "required": ["n_cavities", "fock_m"],
                    },
                },
            },
        },
        "gates": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_cavities": {"type": "integer", "minimum": 1},
                "scheme": {"enum": ["linear", "binary"]},
                "cutoff": {"type": "integer", "minimum": 3},
                "alpha": _POS,
                "max_fock": _INT,
                "tolerance": _POS,
            },
            "required": ["n_cavities", "scheme"],
        },
    },
}

# Built once: `jsonschema.validate` would check SCHEMA against its metaschema
# on every call (about 100 times the cost of validating a config).  The
# schema itself is checked by the tests.
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def load_config(path) -> dict:
    """Read + schema-validate a UTF-8 YAML run configuration.

    Every number must be finite: the schema's bounds pass NaN (it fails no
    comparison), and no field has a meaning for an infinity.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    where = _non_finite_path(doc)
    if where is not None:
        raise ConfigError(f"config validation failed: a number is not finite (at {where})")
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config validation failed: {error.message} (at {list(error.path)})")
    return doc


def _non_finite_path(node, path=()):
    """Key path of the first non-finite float in a loaded YAML document, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else list(path)
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return None
    for key, child in children:
        where = _non_finite_path(child, path + (key,))
        if where is not None:
            return where
    return None


def config_hash(doc: dict) -> str:
    """sha256 of the canonical JSON form; identifies a run in output headers."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def require_sections(doc: dict, names, command: str):
    missing = [n for n in names if n not in doc]
    if missing:
        raise ConfigError(f"'{command}' needs config section(s): {', '.join(missing)}")


def build_protocol_config(doc: dict, backend: str | None = None, seed: int | None = None) -> ProtocolConfig:
    """Assemble a ProtocolConfig from the 'protocol' (+ 'dm') sections."""
    proto = doc.get("protocol")
    if proto is None:
        raise ConfigError("config is missing the 'protocol' section")
    dm = doc.get("dm", {})
    omega = TWO_PI * proto["freq_hz"]
    if ("q_cavity" in proto) == ("decay_time_s" in proto):
        raise ConfigError("give exactly one of protocol.q_cavity or protocol.decay_time_s")
    q_cav = proto.get("q_cavity", omega * proto.get("decay_time_s", 0.0))
    kwargs = dict(
        n_cavities=proto["n_cavities"],
        fock_m=proto["fock_m"],
        omega=omega,
        temp_cavity=proto["temp_cavity_mk"] * 1e-3,
        q_cavity=q_cav,
        tau_tot=proto["tau_tot_s"],
        tau_spam=proto.get("tau_spam_s", 20e-6),
        ed_scheme=proto.get("ed_scheme", "binary"),
        bs_fidelity=proto.get("bs_fidelity", 1.0),
        g_bs=TWO_PI * proto.get("bs_rate_hz", 1e6),
        dephasing_ratio=proto.get("dephasing_ratio", 0.1),
        q_dm=dm.get("q_dm", 1e6),
        epsilon=dm.get("epsilon", 1e-16),
        rho_dm=rho_dm_si(dm.get("rho_dm_gev_cm3", 0.45)),
        coupling_override=dm.get("coupling_rad_s"),
        cutoff=proto.get("cutoff"),
    )
    if backend:
        kwargs["backend"] = backend
    if seed is not None:
        kwargs["seed"] = seed
    elif "seed" in doc:
        kwargs["seed"] = doc["seed"]
    return ProtocolConfig(**kwargs)


def build_sensitivity_params(doc: dict, n_cavities=None, fock_m=None, temp_k=None) -> SensitivityParams:
    sens = doc.get("sensitivity")
    if sens is None:
        raise ConfigError("config is missing the 'sensitivity' section")
    temps = sens.get("temps_mk", [50.0])
    return SensitivityParams(
        rho_dm=rho_dm_si(sens.get("rho_dm_gev_cm3", 0.45)),
        q_cav=sens["q_cavity"],
        n_cavities=n_cavities if n_cavities is not None else sens["n_cavities"],
        fock_m=fock_m if fock_m is not None else sens["fock_m"],
        temp_cavity=temp_k if temp_k is not None else temps[0] * 1e-3,
        target_epsilon=sens["target_epsilon"],
        q_dm=sens.get("q_dm", 1e6),
        zeta_snr=sens.get("zeta_snr", 1.62),
        eta=sens.get("eta", 1.0),
    )
