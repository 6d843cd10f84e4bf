"""Experiment configuration: strict JSON schema -> validated objects.

The schema is documented in docs/config.md.  Validation is strict: unknown
keys are rejected.  The parse_* functions check JSON shape (keys, types,
finiteness, enum names, hex and address syntax) and name the offending field
("config.link.capacity_bps: missing required field").  Each value range is
checked once, by the constructor of the object that owns the value; _build
prefixes its error with that object's path ("config.link: queue_limit must
be >= 1, got 0").  The config's SecurityAssociation objects are templates
that no run touches: build_sadb() gives each run fresh copies, so repeated
runs never share sequence, replay or IV state.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

from .classifier import ClassifierRule, RuleTable
from .crypto import CipherAlg, MacAlg
from .errors import ConfigError, QespLabError
from .netsim import LinkConfig, TrafficSource, check_positive
from .sadb import (
    ANY_NET,
    FiveTuple,
    Ipv4Net,
    ProtocolVariant,
    Sadb,
    SaMode,
    SecurityAssociation,
    Selector,
)
from .wire import addr_to_int, parse_decimal

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Besides its own duration it checks the rules that span
    its lists: at least one source, unique SPIs and flow_ids, every source's
    stop within the run and its protection SPI in the SA list."""

    sas: tuple[SecurityAssociation, ...]
    rules: RuleTable
    sources: tuple[TrafficSource, ...]
    link: LinkConfig
    duration: float
    seed: int
    output: str | None = None

    def __post_init__(self) -> None:
        check_positive(self.duration, "duration")
        if not self.sources:
            raise ConfigError("needs at least one traffic source")
        spis = {sa.spi for sa in self.sas}
        if len(spis) != len(self.sas):
            raise ConfigError("duplicate SPI values")
        if len({src.flow_id for src in self.sources}) != len(self.sources):
            raise ConfigError("duplicate flow_id values")
        for src in self.sources:
            if src.stop is not None and not src.stop <= self.duration:
                raise ConfigError(f"source {src.flow_id}: stop {src.stop} is after "
                                  f"duration {self.duration}")
            if src.protection_spi is not None and src.protection_spi not in spis:
                raise ConfigError(f"source {src.flow_id}: protection SPI "
                                  f"{src.protection_spi:#x} not in the SA list")

    def build_sadb(self) -> Sadb:
        sadb = Sadb()
        for sa in self.sas:
            sadb.add_sa(replace(sa))
        return sadb

    def with_variant(self, variant: ProtocolVariant) -> "ExperimentConfig":
        """Every SA re-keyed to another protocol variant (for A/B runs)."""
        qesp = variant is ProtocolVariant.QESP
        return replace(self, sas=tuple(replace(sa, variant=variant,
                                               extended_auth=sa.extended_auth and qesp)
                                       for sa in self.sas))


def _build(where: str, cls, **fields):
    """cls(**fields), with the constructor's error prefixed by the object's path."""
    try:
        return cls(**fields)
    except QespLabError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _expect_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _take(obj, where: str, allowed: dict[str, bool]) -> dict:
    """obj as a JSON object with the allowed keys: all required ones, no unknown one."""
    obj = _expect_mapping(obj, where)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"{where}.{key}: missing required field")
    return obj


def _int_field(obj: dict, where: str, key: str, default: int | None = None) -> int:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{where}.{key}: missing required field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer")
    return value


def _num_field(obj: dict, where: str, key: str, default: float | None = None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{where}.{key}: missing required field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number")
    # json parses NaN and +-Infinity, and an int may overflow a float
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ConfigError(f"{where}.{key}: expected a finite number")
    return float(value)


def _str_field(obj: dict, where: str, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key}: expected a string")
    return value


def _addr(obj: dict, where: str, key: str) -> int:
    text = _str_field(obj, where, key)
    try:
        return addr_to_int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


def _hex_key(obj: dict, where: str, key: str) -> bytes:
    if key not in obj:
        return b""
    text = _str_field(obj, where, key)
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ConfigError(f"{where}.{key}: invalid hex string") from None


def _enum(obj: dict, where: str, key: str, enum_cls):
    text = _str_field(obj, where, key)
    try:
        return enum_cls(text)
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"{where}.{key}: {text!r} is not one of: {choices}") from None


def _ports(value, where: str) -> tuple[int, int] | None:
    if value is None or value == "any":
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value, value]
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        return tuple(value)
    raise ConfigError(f'{where}: expected "any", a port, or [lo, hi]')


def parse_selector(obj, where: str) -> Selector:
    obj = _take(obj, where, {"src": False, "dst": False, "protocol": False,
                             "src_ports": False, "dst_ports": False})

    def net(key: str) -> Ipv4Net:
        if key not in obj:
            return ANY_NET
        try:
            return Ipv4Net.parse(_str_field(obj, where, key))
        except (ValueError, QespLabError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None

    protocol = obj.get("protocol")
    if protocol == "any":
        protocol = None
    if protocol is not None and (isinstance(protocol, bool) or not isinstance(protocol, int)):
        raise ConfigError(f'{where}.protocol: expected "any" or an integer')
    return _build(where, Selector, src_net=net("src"), dst_net=net("dst"), protocol=protocol,
                  src_ports=_ports(obj.get("src_ports"), f"{where}.src_ports"),
                  dst_ports=_ports(obj.get("dst_ports"), f"{where}.dst_ports"))


def parse_sa(obj, where: str) -> SecurityAssociation:
    obj = _take(obj, where, {"spi": True, "variant": True, "mode": True,
                             "cipher": True, "cipher_key_hex": False,
                             "mac": True, "mac_key_hex": False,
                             "extended_auth": False, "selector": True,
                             "tunnel": False, "iv_seed": False})
    tunnel_src = tunnel_dst = None
    if "tunnel" in obj:
        tunnel = _take(obj["tunnel"], f"{where}.tunnel", {"src": True, "dst": True})
        tunnel_src = _addr(tunnel, f"{where}.tunnel", "src")
        tunnel_dst = _addr(tunnel, f"{where}.tunnel", "dst")
    extended = obj.get("extended_auth", False)
    if not isinstance(extended, bool):
        raise ConfigError(f"{where}.extended_auth: expected a boolean")
    return _build(where, SecurityAssociation,
                  spi=_int_field(obj, where, "spi"),
                  variant=_enum(obj, where, "variant", ProtocolVariant),
                  mode=_enum(obj, where, "mode", SaMode),
                  cipher=_enum(obj, where, "cipher", CipherAlg),
                  cipher_key=_hex_key(obj, where, "cipher_key_hex"),
                  mac=_enum(obj, where, "mac", MacAlg),
                  mac_key=_hex_key(obj, where, "mac_key_hex"),
                  selector=parse_selector(obj.get("selector"), f"{where}.selector"),
                  extended_auth=extended,
                  tunnel_src=tunnel_src, tunnel_dst=tunnel_dst,
                  iv_seed=_int_field(obj, where, "iv_seed", default=0))


def parse_rules(obj, where: str) -> RuleTable:
    obj = _take(obj, where, {"rules": False, "default_dscp": False})
    entries = obj.get("rules", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{where}.rules: expected a list")
    rules = []
    for i, entry in enumerate(entries):
        entry_where = f"{where}.rules[{i}]"
        entry = _take(entry, entry_where, {"selector": True, "dscp": True})
        rules.append(_build(entry_where, ClassifierRule,
                            selector=parse_selector(entry["selector"], f"{entry_where}.selector"),
                            dscp=_int_field(entry, entry_where, "dscp")))
    return _build(where, RuleTable, rules=tuple(rules),
                  default_dscp=_int_field(obj, where, "default_dscp", default=0))


def parse_source(obj, where: str) -> TrafficSource:
    obj = _take(obj, where, {"flow_id": True, "src": True, "dst": True, "protocol": True,
                             "src_port": False, "dst_port": False, "rate_pps": True,
                             "payload_size": True, "start": False, "stop": False,
                             "protection": False})
    five_tuple = _build(where, FiveTuple,
                        src_addr=_addr(obj, where, "src"),
                        dst_addr=_addr(obj, where, "dst"),
                        protocol=_int_field(obj, where, "protocol"),
                        src_port=_int_field(obj, where, "src_port", default=0),
                        dst_port=_int_field(obj, where, "dst_port", default=0))
    protection = obj.get("protection")
    if protection is not None:
        protection = _int_field(obj, where, "protection")
    stop = None
    if "stop" in obj:
        stop = _num_field(obj, where, "stop")
    return _build(where, TrafficSource,
                  flow_id=_str_field(obj, where, "flow_id"),
                  five_tuple=five_tuple,
                  rate_pps=_num_field(obj, where, "rate_pps"),
                  payload_size=_int_field(obj, where, "payload_size"),
                  start=_num_field(obj, where, "start", default=0.0),
                  stop=stop,
                  protection_spi=protection)


def parse_link(obj, where: str) -> LinkConfig:
    obj = _take(obj, where, {"capacity_bps": True, "queue_limit": True, "class_map": False})
    class_map = {}
    raw_map = _expect_mapping(obj.get("class_map", {}), f"{where}.class_map")
    for key in raw_map:
        try:
            dscp = parse_decimal(key)
        except ValueError:
            raise ConfigError(f"{where}.class_map: key {key!r} is not a DSCP value") from None
        if dscp in class_map:
            raise ConfigError(f"{where}.class_map: key {key!r} repeats DSCP {dscp}")
        class_map[dscp] = _int_field(raw_map, f"{where}.class_map", key)
    return _build(where, LinkConfig, capacity_bps=_num_field(obj, where, "capacity_bps"),
                  queue_limit=_int_field(obj, where, "queue_limit"), class_map=class_map)


def parse_config(obj, where: str = "config") -> ExperimentConfig:
    obj = _take(obj, where, {"sas": False, "rules": False, "sources": True, "link": True,
                             "duration": True, "seed": False, "output": False})
    sas_raw = obj.get("sas", [])
    if not isinstance(sas_raw, list):
        raise ConfigError(f"{where}.sas: expected a list")
    sas = tuple(parse_sa(sa, f"{where}.sas[{i}]") for i, sa in enumerate(sas_raw))
    sources_raw = obj["sources"]
    if not isinstance(sources_raw, list):
        raise ConfigError(f"{where}.sources: expected a list")
    sources = tuple(parse_source(s, f"{where}.sources[{i}]")
                    for i, s in enumerate(sources_raw))
    output = None
    if "output" in obj:
        output = _str_field(obj, where, "output")
    return _build(where, ExperimentConfig,
                  sas=sas,
                  rules=parse_rules(obj.get("rules", {}), f"{where}.rules"),
                  sources=sources,
                  link=parse_link(obj.get("link"), f"{where}.link"),
                  duration=_num_field(obj, where, "duration"),
                  seed=_int_field(obj, where, "seed", default=0),
                  output=output)


def load_config(path: str) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, over int()'s digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(raw)
