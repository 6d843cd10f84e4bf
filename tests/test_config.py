"""Config schema: strictness, field-path diagnostics, SA materialization."""

from __future__ import annotations

import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_datagram
from qesp_lab import config, engine
from qesp_lab.config import (
    load_config,
    parse_config,
    parse_link,
    parse_rules,
    parse_sa,
    parse_source,
)
from qesp_lab.crypto import CipherAlg, MacAlg
from qesp_lab.errors import ConfigError
from qesp_lab.netsim import run_simulation
from qesp_lab.sadb import ProtocolVariant, SaMode

VALID = {
    "duration": 2.0,
    "seed": 9,
    "sas": [{
        "spi": 257,
        "variant": "qesp",
        "mode": "transport",
        "cipher": "aes-128-cbc",
        "cipher_key_hex": "00112233445566778899aabbccddeeff",
        "mac": "hmac-sha1-96",
        "mac_key_hex": "000102030405060708090a0b0c0d0e0f10111213",
        "extended_auth": True,
        "selector": {"src": "10.0.0.0/8", "protocol": 17, "dst_ports": [5060, 5060]},
        "iv_seed": 5,
    }],
    "rules": {
        "default_dscp": 0,
        "rules": [{"selector": {"protocol": 17, "dst_ports": 5060}, "dscp": 46}],
    },
    "sources": [{
        "flow_id": "voice",
        "src": "10.0.0.1", "dst": "10.0.9.9",
        "protocol": 17, "src_port": 4000, "dst_port": 5060,
        "rate_pps": 50, "payload_size": 200,
        "protection": 257,
    }],
    "link": {"capacity_bps": 1e6, "queue_limit": 16, "class_map": {"46": 1}},
}


def variant(**overrides) -> dict:
    cfg = copy.deepcopy(VALID)
    cfg.update(overrides)
    return cfg


class TestParsing:
    def test_valid_config(self):
        cfg = parse_config(VALID)
        assert cfg.duration == 2.0 and cfg.seed == 9
        sa = cfg.sas[0]
        assert (sa.spi, sa.variant, sa.mode) == (257, ProtocolVariant.QESP, SaMode.TRANSPORT)
        assert sa.cipher is CipherAlg.AES_128_CBC and sa.mac is MacAlg.HMAC_SHA1_96
        assert cfg.rules.rules[0].dscp == 46
        assert cfg.rules.rules[0].selector.dst_ports == (5060, 5060)
        assert cfg.sources[0].protection_spi == 257
        assert cfg.link.class_map == {46: 1}

    def test_build_sadb_fresh_state_per_run(self):
        cfg = parse_config(VALID)
        first = cfg.build_sadb().lookup_by_spi(257)
        first.next_seq()
        assert cfg.build_sadb().lookup_by_spi(257).seq_next == 1

        # the config's SAs are templates: using one leaks nothing into a run
        datagram = make_datagram()
        template = cfg.sas[0]
        for _ in range(3):
            engine.outbound(template, datagram)
        built = cfg.build_sadb().lookup_by_spi(257)
        assert built is not template and built.seq_next == 1
        unused = parse_config(VALID).build_sadb().lookup_by_spi(257)
        assert engine.outbound(built, datagram) == engine.outbound(unused, datagram)
        with pytest.raises(ValueError):
            replace(template, seq_next=5)  # state is never copied into an SA
        assert parse_config(VALID) == parse_config(VALID)
        assert (parse_config(VALID).with_variant(ProtocolVariant.ESP)
                == parse_config(VALID).with_variant(ProtocolVariant.ESP))

    def test_absent_rules_and_class_map_are_fresh_per_parse(self):
        """RuleTable memoizes per flow, so two configs must never share one."""
        cfg = copy.deepcopy(VALID)
        del cfg["rules"], cfg["link"]["class_map"]
        first, second = parse_config(cfg), parse_config(cfg)
        assert first.rules == second.rules and first.rules is not second.rules
        assert first.link.class_map == {} and first.link.class_map is not second.link.class_map

    def test_with_variant_flips_all_sas(self):
        cfg = parse_config(VALID).with_variant(ProtocolVariant.ESP)
        assert cfg.sas[0].variant is ProtocolVariant.ESP
        assert cfg.sas[0].extended_auth is False  # ESP never covers the outer header
        cfg.build_sadb()  # must construct cleanly

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(VALID))
        assert load_config(str(path)).sources[0].flow_id == "voice"


class TestDiagnostics:
    def test_missing_link_capacity_names_field(self):
        cfg = variant(link={"queue_limit": 16})
        with pytest.raises(ConfigError, match=r"config\.link\.capacity_bps"):
            parse_config(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(variant(extra_knob=1))

    def test_unknown_nested_key_rejected(self):
        cfg = copy.deepcopy(VALID)
        cfg["sas"][0]["selector"]["color"] = "blue"
        with pytest.raises(ConfigError, match=r"config\.sas\[0\]\.selector"):
            parse_config(cfg)

    def test_bad_cipher_name_lists_choices(self):
        cfg = copy.deepcopy(VALID)
        cfg["sas"][0]["cipher"] = "rot13"
        with pytest.raises(ConfigError, match="aes-128-cbc"):
            parse_config(cfg)

    def test_wrong_key_length_reported(self):
        cfg = copy.deepcopy(VALID)
        cfg["sas"][0]["cipher_key_hex"] = "aabb"
        with pytest.raises(ConfigError, match=r"config\.sas\[0\]"):
            parse_config(cfg)

    def test_tunnel_mode_requires_endpoints(self):
        cfg = copy.deepcopy(VALID)
        cfg["sas"][0]["mode"] = "tunnel"
        with pytest.raises(ConfigError, match=r"config\.sas\[0\].*tunnel"):
            parse_config(cfg)

    @pytest.mark.parametrize("spi", [999, 0, -1, 2 ** 32])
    def test_protection_must_name_an_sa(self, spi):
        """ExperimentConfig, which holds both lists, refuses it at load."""
        with pytest.raises(ConfigError, match=rf"^config: source voice: protection SPI "
                                              rf"{spi:#x} not in the SA list$"):
            parse_config(with_number(("sources", 0), "protection", spi))
        with pytest.raises(ConfigError, match="protection SPI 0x101 not in the SA list"):
            replace(parse_config(VALID), sas=())

    @pytest.mark.parametrize("spi", [0, 2 ** 32])
    def test_spi_range_names_the_sa(self, spi):
        cfg = copy.deepcopy(VALID)
        cfg["sas"][0]["spi"] = spi
        with pytest.raises(ConfigError, match=r"config\.sas\[0\].*spi"):
            parse_config(cfg)

    def test_duplicate_spi_rejected(self):
        assert_duplicate_rejected("sas", "duplicate SPI values")

    def test_duplicate_flow_id_rejected(self):
        assert_duplicate_rejected("sources", "duplicate flow_id values")

    def test_no_source_rejected(self):
        with pytest.raises(ConfigError, match="^config: needs at least one traffic source$"):
            parse_config(variant(sources=[]))
        with pytest.raises(ConfigError, match="^needs at least one traffic source$"):
            replace(parse_config(VALID), sources=())

    @pytest.mark.parametrize("key,value,top", [
        ("protocol", 256, 255), ("protocol", -1, 255), ("src_port", -1, 65535),
        ("dst_port", 70000, 65535)])
    def test_source_five_tuple_range(self, key, value, top):
        with pytest.raises(ConfigError, match=re.escape(
                f"config.sources[0]: {key} must be an int in 0..{top}, got {value}")):
            parse_config(with_number(("sources", 0), key, value))

    def test_port_range_validation(self):
        cfg = copy.deepcopy(VALID)
        cfg["sas"][0]["selector"]["dst_ports"] = [90, 10]
        with pytest.raises(ConfigError, match="not well-ordered"):
            parse_config(cfg)

    def test_nonobject_config_rejected(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config([1, 2, 3])

    def test_bad_json_file(self, tmp_path):
        # a syntax error, an integer past int()'s digit limit, bytes that are not UTF-8
        for content in (b"{nope", b"[" + b"1" * 5000 + b"]", b"\xff{}"):
            path = tmp_path / "broken.json"
            path.write_bytes(content)
            with pytest.raises(ConfigError, match="not valid JSON"):
                load_config(str(path))

    @pytest.mark.parametrize("class_map,message", [
        ({"\u00b2": 1}, "key '\u00b2' is not a DSCP value"),  # isdigit() but not int()
        ({"\u0664\u0666": 1}, "key '\u0664\u0666' is not a DSCP value"),  # int() reads 46
        ({"046": 1, "46": 0}, "key '46' repeats DSCP 46")], ids=["superscript", "arabic", "repeat"])
    def test_class_map_keys_are_ascii_decimal_once_each(self, class_map, message):
        cfg = copy.deepcopy(VALID)
        cfg["link"]["class_map"] = class_map
        with pytest.raises(ConfigError, match="^" + re.escape(f"config.link.class_map: {message}")):
            parse_config(cfg)
        cfg["link"]["class_map"] = {"046": 1}
        assert parse_config(cfg).link.class_map == {46: 1}

    def test_class_map_key_exits_with_config_code(self, tmp_path, capsys):
        from qesp_lab.cli import main
        cfg = copy.deepcopy(VALID)
        cfg["link"]["class_map"] = {"\u00b2": 1}
        path = tmp_path / "superscript.json"
        path.write_text(json.dumps(cfg))
        assert main(["priority", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ConfigError: config.link.class_map:")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/does/not/exist.json")


# Every float field of the schema, as (path into the config, field name).
FLOAT_FIELDS = [((), "duration"), (("link",), "capacity_bps"),
                (("sources", 0), "rate_pps"), (("sources", 0), "start"),
                (("sources", 0), "stop")]
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10 ** 400]


def edited(where: tuple, edit, base: dict = VALID) -> dict:
    """A copy of base whose object at where edit has changed in place."""
    cfg = copy.deepcopy(base)
    obj = cfg
    for step in where:
        obj = obj[step]
    edit(obj)
    return cfg


def with_number(where: tuple, key: str, value) -> dict:
    return edited(where, lambda obj: obj.update({key: value}))


def path_of(where: tuple) -> str:
    return "config" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where)


def assert_duplicate_rejected(field: str, message: str) -> None:
    """ExperimentConfig refuses a repeated entry, so a config built in code does too."""
    cfg = copy.deepcopy(VALID)
    cfg[field].append(copy.deepcopy(cfg[field][0]))
    with pytest.raises(ConfigError, match=f"^config: {message}$"):
        parse_config(cfg)
    built = parse_config(VALID)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        replace(built, **{field: getattr(built, field) * 2})


class TestFiniteNumbers:
    """json parses NaN and +-Infinity; no float field may hold one, nor an
    integer too large for a float."""

    @pytest.mark.parametrize("where,key", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf", "1e400"])
    def test_rejected_with_field_path(self, where, key, value):
        with pytest.raises(ConfigError, match=r"\." + key + ": expected a finite number"):
            parse_config(with_number(where, key, value))

    @pytest.mark.parametrize("where,key", FLOAT_FIELDS)
    def test_finite_values_still_accepted(self, where, key):
        assert parse_config(with_number(where, key, 1.5)) is not None

    def test_cli_exits_with_config_code(self, tmp_path, capsys):
        from qesp_lab.cli import main
        for where, key in FLOAT_FIELDS:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(with_number(where, key, float("nan"))))
            assert "NaN" in path.read_text()
            assert main(["priority", "--config", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ConfigError:") and key in err


class TestPositiveNumbers:
    @pytest.mark.parametrize("where,key", [((), "duration"), (("sources", 0), "rate_pps")])
    @pytest.mark.parametrize("value", [0, -1.5])
    def test_zero_and_negative_rejected(self, where, key, value):
        with pytest.raises(ConfigError, match=key + " must be finite and > 0"):
            parse_config(with_number(where, key, value))

    @pytest.mark.parametrize("where,key", [((), "duration"), (("sources", 0), "rate_pps")])
    def test_huge_but_finite_parses_and_is_refused_at_run_time(self, where, key, no_draws):
        """Parsing accepts any finite positive number; the per-run packet
        ceiling refuses the run before it builds a single emission."""
        cfg = parse_config(with_number(where, key, 1e300))
        with pytest.raises(ConfigError, match="packets in one run"):
            run_simulation(cfg)


class TestSourceWindow:
    """A source emits within [0, duration]: packets outside the run would be
    counted as offered and divided by the run's duration."""

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError, match="start must be >= 0"):
            parse_config(with_number(("sources", 0), "start", -0.5))

    def test_stop_after_duration_rejected(self):
        with pytest.raises(ConfigError, match="stop 2.5 is after duration 2.0"):
            parse_config(with_number(("sources", 0), "stop", VALID["duration"] + 0.5))

    def test_cli_exits_with_config_code(self, tmp_path, capsys):
        from qesp_lab.cli import main
        path = tmp_path / "late.json"
        path.write_text(json.dumps(with_number(("sources", 0), "stop", 5.0)))
        assert main(["priority", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ConfigError:")


class TestClassIndexBound:
    def test_index_63_accepted(self):
        cfg = copy.deepcopy(VALID)
        cfg["link"]["class_map"] = {"46": 63}
        assert parse_config(cfg).link.class_map == {46: 63}

    def test_index_64_rejected(self):
        cfg = copy.deepcopy(VALID)
        cfg["link"]["class_map"] = {"46": 64}
        with pytest.raises(ConfigError, match="46:64 out of range"):
            parse_config(cfg)


# Every value whose range a constructor checks, as (path to the owning object,
# key, bad JSON value, the same value as the object holds it).
OWNED_VALUES = [
    (("rules", "rules", 0), "dscp", -1, -1),
    (("rules", "rules", 0), "dscp", 64, 64),
    (("rules",), "default_dscp", 64, 64),
    (("link",), "queue_limit", 0, 0),
    (("sources", 0), "payload_size", 0, 0),
    (("sources", 0), "payload_size", 65001, 65001),
    (("sas", 0, "selector"), "dst_ports", [90, 10], (90, 10)),
    (("sas", 0, "selector"), "dst_ports", [0, 65536], (0, 65536)),
    (("sas", 0, "selector"), "protocol", 300, 300),
    (("sas", 0, "selector"), "protocol", -1, -1),
    (("link",), "class_map", {"46": 64}, {46: 64}),
    (("sources", 0), "rate_pps", 0, 0.0),
    (("link",), "capacity_bps", 0, 0.0),
    ((), "duration", 0, 0.0),
]
# A path component repeated after the object path names a location twice.
LOCATION = re.compile(r"config|link|source|rules|sas\b|selector")


class TestConstructorsOwnValues:
    """parse_* checks JSON shape; each value range is checked by its object's
    constructor alone, and parse_config only prefixes the object's path."""

    @pytest.mark.parametrize("where,key,value,held", OWNED_VALUES,
                             ids=[f"{key}={value}" for _, key, value, _ in OWNED_VALUES])
    def test_constructor_error_gets_the_object_path(self, where, key, value, held):
        with pytest.raises(ConfigError) as parsed:
            parse_config(with_number(where, key, value))
        prefix = path_of(where) + ": "
        message = str(parsed.value)
        assert message.startswith(prefix)
        assert not LOCATION.search(message[len(prefix):])

        owner = parse_config(VALID)
        for step in where:
            owner = owner[step] if isinstance(step, int) else getattr(owner, step)
        with pytest.raises(ConfigError) as direct:
            replace(owner, **{key: held})
        assert type(direct.value) is type(parsed.value)
        assert message == prefix + str(direct.value)

    @pytest.mark.parametrize("value", [100.5, True])
    def test_payload_size_type(self, value):
        """JSON's integer reader refuses these first; a source built in code
        meets the constructor's own type check, not a crash mid-run."""
        with pytest.raises(ConfigError, match=re.escape(
                "config.sources[0].payload_size: expected an integer")):
            parse_config(with_number(("sources", 0), "payload_size", value))
        source = parse_config(VALID).sources[0]
        with pytest.raises(ConfigError, match=re.escape(
                f"payload_size must be an int in 1..65000, got {value!r}")):
            replace(source, payload_size=value)


# VALID with the optional keys it lacks, so that FULL holds every key of the schema.
FULL = copy.deepcopy(VALID)
FULL["output"] = "unused.csv"
FULL["sas"][0]["tunnel"] = {"src": "192.0.2.1", "dst": "192.0.2.2"}
FULL["sas"][0]["selector"].update(dst="10.0.9.0/24", src_ports="any")
FULL["sources"][0].update(start=0.5, stop=1.5)

# The keys docs/config.md gives a default, by object (list indices dropped).
OPTIONAL = {
    "seed", "output", "sas", "rules",
    "sas.cipher_key_hex", "sas.mac_key_hex", "sas.extended_auth", "sas.tunnel", "sas.iv_seed",
    "sas.selector.src", "sas.selector.dst", "sas.selector.protocol", "sas.selector.src_ports",
    "sas.selector.dst_ports", "rules.default_dscp", "rules.rules",
    "rules.rules.selector.protocol", "rules.rules.selector.dst_ports",
    "sources.src_port", "sources.dst_port", "sources.start", "sources.stop",
    "sources.protection", "link.class_map"}
# Optional keys whose default FULL's other values refuse, with the refusal.
NEEDED = {
    "sas": "config: source voice: protection SPI 0x101 not in the SA list",
    "sas.cipher_key_hex": "config.sas[0]: aes-128-cbc needs a 16-byte key, got 0",
    "sas.mac_key_hex": "config.sas[0]: hmac-sha1-96 needs a 20-byte key, got 0"}


def schema_objects(value, where: tuple = ()):
    """(where, object) for every JSON object of the schema in value; a
    class_map is a map from DSCP to class, not an object with keys of its own."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from schema_objects(item, where + (i,))
    elif isinstance(value, dict) and where[-1:] != ("class_map",):
        yield where, value
        for key, item in value.items():
            yield from schema_objects(item, where + (key,))


OBJECTS = [where for where, _ in schema_objects(FULL)]
KEYS = [(where, key, value) for where, obj in schema_objects(FULL) for key, value in obj.items()]


def exact(message: str) -> str:
    return "^" + re.escape(message) + "$"


class TestEveryKey:
    """Each key of each object of FULL: every message about it starts with its
    path, and removing it reports it missing only if docs/config.md gives it
    no default."""

    @pytest.mark.parametrize("where,key,value", KEYS,
                             ids=[f"{path_of(where)}.{key}" for where, key, _ in KEYS])
    def test_wrong_type_names_the_key_once(self, where, key, value):
        bad = [] if isinstance(value, dict) else {}
        with pytest.raises(ConfigError) as exc:
            parse_config(edited(where, lambda obj: obj.update({key: bad}), FULL))
        path = f"{path_of(where)}.{key}"
        message = str(exc.value)
        assert message.startswith(path + ": ") and path not in message[len(path):]

    @pytest.mark.parametrize("where,key,value", KEYS,
                             ids=[f"{path_of(where)}.{key}" for where, key, _ in KEYS])
    def test_removed_key_is_missing_or_defaulted(self, where, key, value):
        cfg = edited(where, lambda obj: obj.pop(key), FULL)
        kind = re.sub(r"\[\d+\]", "", f"{path_of(where)}.{key}").removeprefix("config.")
        if kind not in OPTIONAL:
            with pytest.raises(ConfigError, match=exact(f"{path_of(where)}.{key}: "
                                                        "missing required field")):
                parse_config(cfg)
        elif kind in NEEDED:
            with pytest.raises(ConfigError, match=exact(NEEDED[kind])):
                parse_config(cfg)
        else:
            assert parse_config(cfg) is not None

    def test_optional_list_names_keys_of_full(self):
        kinds = {re.sub(r"\[\d+\]", "", f"{path_of(where)}.{key}").removeprefix("config.")
                 for where, key, _ in KEYS}
        assert OPTIONAL <= kinds and NEEDED.keys() <= OPTIONAL

    @pytest.mark.parametrize("where", OBJECTS, ids=[path_of(where) for where in OBJECTS])
    def test_unknown_key_names_the_object(self, where):
        with pytest.raises(ConfigError, match=exact(f"{path_of(where)}: unknown key(s) ['bogus']")):
            parse_config(edited(where, lambda obj: obj.update(bogus=1), FULL))


DOC = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text(encoding="utf-8")
# The docs' sections on one JSON object, by the name in their heading.
SECTION_PARSERS = {"sas[]": parse_sa, "rules": parse_rules, "sources[]": parse_source,
                   "link": parse_link}


class TestDocsMatchParser:
    def test_object_examples_parse(self):
        parsed = set()
        for section in DOC.split("\n## ")[1:]:
            name = re.match(r"[^\n]*\(`([^`]+)`\)\n", section)
            for block in re.findall(r"```json\n(.*?)```", section, re.S):
                try:
                    example = json.loads(block)
                except ValueError:
                    continue  # an outline with "..." in it
                if isinstance(example, dict):
                    SECTION_PARSERS[name.group(1)](example, "example")
                    parsed.add(name.group(1))
        assert parsed == SECTION_PARSERS.keys()

    def test_every_table_key_is_documented(self):
        prose = re.sub(r"```.*?```", "", DOC, flags=re.S)
        documented = set(re.findall(r"`([^`\n]+)`", prose))
        tables = [table for name, table in vars(config).items() if name.endswith("_KEYS")]
        assert len(tables) == 8  # one per JSON object of the schema
        assert {key for table in tables for key in table} - documented == set()
