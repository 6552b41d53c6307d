"""Run-configuration loading, validation, and unit conversion.

Configs are YAML documents with unit-suffixed field names; every frequency
or rate given in Hz is converted to angular units (rad/s) here, once, at
the boundary.  Unknown keys are rejected by the schema so typos fail loudly
instead of silently falling back to defaults.  Every accepted key is read,
except `protocol.zeta_snr`: the SNR target of the sensitivity projections is
`sensitivity.zeta_snr`, and the protocol key stays accepted, and ignored,
only so that configs written for earlier versions still load.

`SCHEMA` is a JSON Schema (draft 2020-12) that uses only the keywords
`type`, `enum`, `minimum`, `maximum`, `exclusiveMinimum`, `minItems`,
`items`, `properties`, `additionalProperties: false` and `required`.  A
small checker here applies them: it lists every violation in the order
the `jsonschema` package reports them, with the same messages, and picks
the one that `jsonschema.exceptions.best_match` would (the shallowest
path, then the last path in sort order).  The one departure is that
`integer` means a Python int that is not a bool, so 1.0 is not an
integer.  The tests check the checker against `jsonschema`, which is a
test dependency only.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import yaml

from .drive import rho_dm_si
from .errors import ConfigError
from .protocol import ProtocolConfig
from .sensitivity import SensitivityParams

TWO_PI = 2.0 * math.pi

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
                "detuning_linewidths": {"type": "number"},
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

_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}


def _violations(value, schema, path=()):
    """(path, message) of each way value breaks schema, in jsonschema's order."""
    number = _IS_TYPE["number"](value)
    for keyword, bound in schema.items():
        message = None
        if keyword == "type" and not _IS_TYPE[bound](value):
            message = f"{value!r} is not of type {bound!r}"
        elif keyword == "enum" and value not in bound:
            message = f"{value!r} is not one of {bound!r}"
        elif keyword == "minimum" and number and value < bound:
            message = f"{value!r} is less than the minimum of {bound!r}"
        elif keyword == "maximum" and number and value > bound:
            message = f"{value!r} is greater than the maximum of {bound!r}"
        elif keyword == "exclusiveMinimum" and number and value <= bound:
            message = f"{value!r} is less than or equal to the minimum of {bound!r}"
        elif keyword == "minItems" and isinstance(value, list) and len(value) < bound:
            message = f"{value!r} {'should be non-empty' if bound == 1 else 'is too short'}"
        elif keyword == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _violations(item, bound, path + (index,))
        elif keyword == "properties" and isinstance(value, dict):
            for name, subschema in bound.items():
                if name in value:
                    yield from _violations(value[name], subschema, path + (name,))
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extras = sorted({key for key in value if key not in schema["properties"]}, key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(map(repr, extras))
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif keyword == "required" and isinstance(value, dict):
            for name in bound:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        if message is not None:
            yield path, message


def _best_violation(doc):
    """The (path, message) that jsonschema's best_match would report for doc, or None.

    That is the first violation at the shallowest path, and among those the
    last path in sort order.  best_match breaks further ties by keyword and
    by whether the value has its field's type, but here every path has one
    subschema, so those ties never separate two violations.
    """
    return max(_violations(doc, SCHEMA), key=lambda v: (-len(v[0]), v[0]), default=None)


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
    error = _best_violation(doc)
    if error is not None:
        where, message = error
        raise ConfigError(f"config validation failed: {message} (at {list(where)})")
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
    """Assemble a ProtocolConfig from the 'protocol' (+ 'dm') sections.

    backend and seed, when given, override the config's top-level keys.
    """
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
    elif "backend" in doc:
        kwargs["backend"] = doc["backend"]
    return ProtocolConfig(**kwargs, seed=run_seed(doc, seed))


def run_seed(doc: dict, seed: int | None = None) -> int:
    """The run's seed: `seed` (the flag or FOCKSCAN_SEED) if given, else the config's, else 0."""
    return seed if seed is not None else doc.get("seed", 0)


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
