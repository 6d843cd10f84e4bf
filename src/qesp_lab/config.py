"""Experiment configuration: strict JSON schema -> validated objects.

This module reads JSON and defines no object class.  The schema is documented
in docs/config.md.  Each JSON object of it has one module-level key table,
{key: (reader, default)}, listing its keys in the order they are checked.
_fields refuses a non-object, an unknown key and a missing key whose default
is REQUIRED; it reads each present value with reader(value, path), which
checks JSON shape (type, finiteness, enum name, hex and address syntax) and
names the field ("config.link.capacity_bps: expected a number"), and returns
{key: value}, which each reader passes to the constructor by name.  Each
value range is checked once, by the constructor of the object that owns the
value; _build prefixes its error with that object's path ("config.link:
queue_limit must be >= 1, got 0").
"""

from __future__ import annotations

import json
import sys

from .classifier import ClassifierRule, RuleTable
from .crypto import CipherAlg, MacAlg
from .errors import ConfigError, QespLabError
from .netsim import ExperimentConfig, LinkConfig, TrafficSource
from .sadb import (
    ANY_NET,
    FiveTuple,
    Ipv4Net,
    ProtocolVariant,
    SaMode,
    SecurityAssociation,
    Selector,
)
from .wire import addr_to_int, parse_decimal

_FLOAT_MAX = sys.float_info.max


def _build(where: str, cls, **fields):
    """cls(**fields), with the constructor's error prefixed by the object's path."""
    try:
        return cls(**fields)
    except QespLabError as exc:
        raise ConfigError(f"{where}: {exc}") from None


REQUIRED = object()  # the default of a key that must be present


def _fields(obj, where: str, spec: dict) -> dict:
    """{key: value} in spec's key order, each value read as reader(value, "where.key").
    An absent key gets its default, called if callable: no two share a RuleTable."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = obj.keys() - spec.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    for key, (_, default) in spec.items():
        if default is REQUIRED and key not in obj:
            raise ConfigError(f"{where}.{key}: missing required field")
    return {key: reader(obj[key], f"{where}.{key}") if key in obj
            else default() if callable(default) else default
            for key, (reader, default) in spec.items()}


def _typed(cls, noun: str):
    """A reader of a JSON value of type cls exactly, so True is no integer."""
    def read(value, where: str):
        if type(value) is not cls:
            raise ConfigError(f"{where}: expected {noun}")
        return value
    return read


_int, _str, _bool = _typed(int, "an integer"), _typed(str, "a string"), _typed(bool, "a boolean")


def _num(value, where: str) -> float:
    if type(value) not in (int, float):
        raise ConfigError(f"{where}: expected a number")
    # json parses NaN and +-Infinity, and an int may overflow a float
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ConfigError(f"{where}: expected a finite number")
    return float(value)


def _text(parse, error: str = "{exc}"):
    """A reader of a string that parse turns into a value; a failure is reported as
    error, formatted with parse's exception as exc and the string as text."""
    def read(value, where: str):
        text = _str(value, where)
        try:
            return parse(text)
        except (ValueError, QespLabError) as exc:
            raise ConfigError(f"{where}: " + error.format(exc=exc, text=text)) from None
    return read


def _enum(enum_cls):
    return _text(enum_cls, "{text!r} is not one of: " + ", ".join(e.value for e in enum_cls))


_addr = _text(addr_to_int)
_net = _text(Ipv4Net.parse)
_hex = _text(bytes.fromhex, "invalid hex string")


def _list(parse_entry):
    """A reader of a list whose entry i parse_entry reads as "where[i]"."""
    def read(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list")
        return tuple(parse_entry(entry, f"{where}[{i}]") for i, entry in enumerate(value))
    return read


def _protocol(value, where: str) -> int | None:
    if value is None or value == "any":
        return None
    if type(value) is not int:
        raise ConfigError(f'{where}: expected "any" or an integer')
    return value


def _ports(value, where: str) -> tuple[int, int] | None:
    if value is None or value == "any":
        return None
    if type(value) is int:
        value = [value, value]
    if type(value) is list and len(value) == 2 and all(type(v) is int for v in value):
        return tuple(value)
    raise ConfigError(f'{where}: expected "any", a port, or [lo, hi]')


def _class_map(value, where: str) -> dict[int, int]:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
    class_map = {}
    for key, index in value.items():
        try:
            dscp = parse_decimal(key)
        except ValueError:
            raise ConfigError(f"{where}: key {key!r} is not a DSCP value") from None
        if dscp in class_map:
            raise ConfigError(f"{where}: key {key!r} repeats DSCP {dscp}")
        class_map[dscp] = _int(index, f"{where}.{key}")
    return class_map


_SELECTOR_KEYS = {"protocol": (_protocol, None), "src": (_net, ANY_NET), "dst": (_net, ANY_NET),
                  "src_ports": (_ports, None), "dst_ports": (_ports, None)}


def parse_selector(obj, where: str) -> Selector:
    f = _fields(obj, where, _SELECTOR_KEYS)
    return _build(where, Selector, src_net=f.pop("src"), dst_net=f.pop("dst"), **f)


_TUNNEL_KEYS = {"src": (_addr, REQUIRED), "dst": (_addr, REQUIRED)}
_SA_KEYS = {
    "tunnel": (lambda value, where: tuple(_fields(value, where, _TUNNEL_KEYS).values()),
               (None, None)),
    "extended_auth": (_bool, False), "spi": (_int, REQUIRED),
    "variant": (_enum(ProtocolVariant), REQUIRED), "mode": (_enum(SaMode), REQUIRED),
    "cipher": (_enum(CipherAlg), REQUIRED), "cipher_key_hex": (_hex, b""),
    "mac": (_enum(MacAlg), REQUIRED), "mac_key_hex": (_hex, b""),
    "selector": (parse_selector, REQUIRED), "iv_seed": (_int, 0)}


def parse_sa(obj, where: str) -> SecurityAssociation:
    f = _fields(obj, where, _SA_KEYS)
    tunnel_src, tunnel_dst = f.pop("tunnel")
    return _build(where, SecurityAssociation, tunnel_src=tunnel_src, tunnel_dst=tunnel_dst,
                  cipher_key=f.pop("cipher_key_hex"), mac_key=f.pop("mac_key_hex"), **f)


_RULE_KEYS = {"selector": (parse_selector, REQUIRED), "dscp": (_int, REQUIRED)}


def _rule(obj, where: str) -> ClassifierRule:
    return _build(where, ClassifierRule, **_fields(obj, where, _RULE_KEYS))


_RULES_KEYS = {"rules": (_list(_rule), ()), "default_dscp": (_int, 0)}


def parse_rules(obj, where: str) -> RuleTable:
    return _build(where, RuleTable, **_fields(obj, where, _RULES_KEYS))


_SOURCE_KEYS = {
    "flow_id": (_str, REQUIRED), "src": (_addr, REQUIRED), "dst": (_addr, REQUIRED),
    "protocol": (_int, REQUIRED), "src_port": (_int, 0), "dst_port": (_int, 0),
    "protection": (lambda value, where: None if value is None else _int(value, where), None),
    "stop": (_num, None), "rate_pps": (_num, REQUIRED), "payload_size": (_int, REQUIRED),
    "start": (_num, 0.0)}


def parse_source(obj, where: str) -> TrafficSource:
    f = _fields(obj, where, _SOURCE_KEYS)
    five_tuple = FiveTuple(*map(f.pop, ("src", "dst", "protocol", "src_port", "dst_port")))
    return _build(where, TrafficSource, five_tuple=five_tuple,
                  protection_spi=f.pop("protection"), **f)


_LINK_KEYS = {"class_map": (_class_map, dict), "capacity_bps": (_num, REQUIRED),
              "queue_limit": (_int, REQUIRED)}


def parse_link(obj, where: str) -> LinkConfig:
    return _build(where, LinkConfig, **_fields(obj, where, _LINK_KEYS))


_CONFIG_KEYS = {"sas": (_list(parse_sa), ()), "sources": (_list(parse_source), REQUIRED),
                "output": (_str, None), "rules": (parse_rules, RuleTable),
                "link": (parse_link, REQUIRED), "duration": (_num, REQUIRED), "seed": (_int, 0)}


def parse_config(obj, where: str = "config") -> ExperimentConfig:
    return _build(where, ExperimentConfig, **_fields(obj, where, _CONFIG_KEYS))


def load_config(path: str) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or digits; deep nesting
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(raw)
