"""CLI surface: CSV outputs, exit codes, seed precedence, one-shot tools."""

from __future__ import annotations

import json
import statistics
from importlib import resources

import pytest

import oracle
from conftest import FIXTURES, make_datagram
from qesp_lab import cli, wire
from qesp_lab.cli import main
from qesp_lab.errors import BadChecksum, InvalidHeader, Truncated, UnsupportedOptions

CLI_CONFIG = {
    "duration": 1.0,
    "seed": 3,
    "sas": [{
        "spi": 257, "variant": "qesp", "mode": "transport",
        "cipher": "aes-128-cbc",
        "cipher_key_hex": "000102030405060708090a0b0c0d0e0f",
        "mac": "hmac-sha1-96",
        "mac_key_hex": "000102030405060708090a0b0c0d0e0f10111213",
        "extended_auth": True,
        "selector": {"protocol": 17, "dst_ports": [5060, 5060]},
        "iv_seed": 3735928559,
    }],
    "rules": {"default_dscp": 0, "rules": [
        {"selector": {"protocol": 17, "dst_ports": [5060, 5060]}, "dscp": 46}]},
    "sources": [{
        "flow_id": "one", "src": "10.0.0.1", "dst": "10.0.9.9", "protocol": 17,
        "src_port": 4000, "dst_port": 5060, "rate_pps": 20, "payload_size": 64,
        "protection": 257}],
    "link": {"capacity_bps": 1e6, "queue_limit": 16, "class_map": {"46": 1}},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CLI_CONFIG))
    return str(path)


@pytest.fixture
def packet_file(tmp_path):
    path = tmp_path / "packet.hex"
    path.write_text(make_datagram().hex())
    return str(path)


class TestThroughput:
    def test_csv_matches_rate_math(self, tmp_path, capsys):
        out = tmp_path / "tput.csv"
        assert main(["throughput", "--sizes", "64,1024", "--pps", "100",
                     "--variant", "both", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "size,variant,goodput_kbps,wire_kbps,overhead_bytes"
        rows = {(r[0], r[1]): r for r in (line.split(",") for line in lines[1:])}
        assert rows[("64", "qesp")][2] == "51.200"
        assert rows[("1024", "esp")][2] == "819.200"
        # wire exceeds goodput by overhead + plain headers on every row
        for row in rows.values():
            assert float(row[3]) > float(row[2])

    @pytest.mark.parametrize("mode", ["transport", "tunnel"])
    def test_single_variant_prints_its_rows_of_both(self, mode, capsys):
        argv = ["throughput", "--sizes", "64,1024", "--duration", "1", "--seed", "3",
                "--mode", mode, "--cipher", "3des-cbc", "--mac", "hmac-md5-96", "--variant"]
        out = {}
        for variant in ("both", "qesp", "esp"):
            assert main(argv + [variant]) == 0
            out[variant] = capsys.readouterr().out.splitlines()
        header, *rows = out["both"]
        for variant in ("qesp", "esp"):
            assert out[variant] == [header] + [r for r in rows if r.split(",")[1] == variant]

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["throughput", "--sizes", "256", "--seed", "5"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_sizes_flag(self, capsys):
        assert main(["throughput", "--sizes", "64,nope"]) == 3
        assert "error: ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["0", "65001"])
    def test_sizes_out_of_range(self, sizes, capsys):
        assert main(["throughput", "--sizes", sizes]) == 3
        assert capsys.readouterr().err == (
            "error: ConfigError: --sizes: values must be in [1, 65000]\n")

    def test_goodput_linear_in_size(self, tmp_path):
        """At a fixed 100 pps the sweep is a 0.8 Kbps/byte line."""
        out = tmp_path / "sweep.csv"
        main(["throughput", "--sizes", "128,512,2048", "--pps", "100",
              "--variant", "qesp", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            size, _, goodput = line.split(",")[:3]
            assert float(goodput) == pytest.approx(int(size) * 0.8)


class TestSimulationFlags:
    """Flags that reach the simulator go through the same checks as a config file."""

    @pytest.mark.parametrize("flag,value", [
        ("--duration", "0"), ("--duration", "-1"), ("--duration", "nan"),
        ("--duration", "inf"), ("--pps", "0"), ("--pps", "-5"), ("--pps", "nan"),
        ("--pps", "inf")])
    def test_not_finite_and_positive(self, flag, value, capsys, no_draws):
        assert main(["throughput", "--sizes", "64", flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "must be finite and > 0" in err

    @pytest.mark.parametrize("flags", [["--pps", "1e300"], ["--duration", "1e300"],
                                       ["--pps", "1e300", "--duration", "1e300"]])
    def test_unbounded_run_refused(self, flags, capsys, no_draws):
        assert main(["throughput", "--sizes", "64", *flags]) == 3
        assert "packets in one run" in capsys.readouterr().err


class TestPriority:
    def test_bundled_scenario(self, tmp_path, capsys):
        out = tmp_path / "prio.csv"
        assert main(["priority", "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("run,flow_id,")
        runs = {line.split(",")[0] for line in lines[1:]}
        assert runs == {"qesp", "esp"}
        summaries = capsys.readouterr().out.strip().splitlines()
        assert len(summaries) == 2 and all(s.startswith("# run=") for s in summaries)

    def test_missing_capacity_diagnostic(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CLI_CONFIG))
        del cfg["link"]["capacity_bps"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["priority", "--config", str(path)]) == 3
        assert "link.capacity_bps" in capsys.readouterr().err

    def test_seed_precedence(self, tmp_path, monkeypatch):
        # congested so that the jittered emission grid (seeded) shows up in
        # the drop pattern and latencies
        cfg = json.loads(json.dumps(CLI_CONFIG))
        cfg["sources"][0].update({"rate_pps": 200, "payload_size": 400})
        cfg["link"]["capacity_bps"] = 300_000
        config_file = tmp_path / "congested.json"
        config_file.write_text(json.dumps(cfg))

        def run(argv, env_seed=None):
            if env_seed is None:
                monkeypatch.delenv("QESP_LAB_SEED", raising=False)
            else:
                monkeypatch.setenv("QESP_LAB_SEED", env_seed)
            out = tmp_path / "out.csv"
            main(["priority", "--config", str(config_file), "--out", str(out)] + argv)
            return out.read_text()

        config_only = run([])
        env_differs = run([], env_seed="99")
        flag_beats_env = run(["--seed", "3"], env_seed="99")
        assert config_only != env_differs
        assert flag_beats_env == config_only  # flag 3 == config seed 3
        with monkeypatch.context() as m:
            m.setenv("QESP_LAB_SEED", "not-a-number")
            assert main(["priority", "--config", str(config_file),
                         "--out", str(tmp_path / "x.csv")]) == 3


class TestUnwritableOutput:
    """An output path that cannot be opened is a config error (exit 3), as an
    unreadable input is, not a traceback."""

    @pytest.mark.parametrize("argv", [["priority"], ["throughput", "--sizes", "64",
                                                     "--duration", "1"]])
    def test_out_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: cannot write") and str(out) in err

    def test_config_output_key(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**CLI_CONFIG, "output": str(out)}))
        assert main(["priority", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ConfigError: cannot write")


# TCP, protocol 47, plaintext and start/stop flows; a Q-ESP transport SA shared
# by two flows in two classes, and a tunnel SA.
MIXED = FIXTURES / "mixed_priority.json"


@pytest.mark.parametrize("fixture,argv", [
    ("cli_priority_seed1.txt", ["priority", "--seed", "1"]),
    ("cli_priority_seed2.txt", ["priority", "--seed", "2"]),
    ("cli_priority_seed7.txt", ["priority", "--seed", "7"]),
    ("cli_priority_mixed_seed3.txt", ["priority", "--config", str(MIXED), "--seed", "3"]),
    ("cli_priority_mixed_seed11.txt", ["priority", "--config", str(MIXED), "--seed", "11"]),
    ("cli_throughput_transport.csv", ["throughput", "--sizes", "64,1024", "--duration", "2",
                                      "--seed", "1", "--mode", "transport"]),
    ("cli_throughput_tunnel.csv", ["throughput", "--sizes", "64,1024", "--duration", "2",
                                   "--seed", "1", "--mode", "tunnel"]),
])
def test_output_byte_identical_to_recorded(fixture, argv, capsys):
    """CSV rows and summary lines stay byte-for-byte what the recorded run printed."""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / fixture).read_bytes()


class TestOneShotTools:
    def test_encap_decap_roundtrip(self, tmp_path, config_file, packet_file, capsys):
        assert main(["encap", "--config", config_file, "--in", packet_file]) == 0
        encapsulated = capsys.readouterr().out.strip()
        assert bytes.fromhex(encapsulated)[9] == 253

        enc_file = tmp_path / "enc.hex"
        enc_file.write_text(encapsulated)
        assert main(["decap", "--config", config_file, "--in", str(enc_file)]) == 0
        decapsulated = capsys.readouterr().out.strip()
        assert bytes.fromhex(decapsulated) == make_datagram()

    def test_encap_by_explicit_spi(self, config_file, packet_file, capsys):
        assert main(["encap", "--config", config_file, "--in", packet_file,
                     "--spi", "257"]) == 0
        assert main(["encap", "--config", config_file, "--in", packet_file,
                     "--spi", "0x101"]) == 0
        capsys.readouterr()

    def test_encap_spi_naming_no_sa(self, config_file, packet_file, capsys):
        assert main(["encap", "--config", config_file, "--in", packet_file,
                     "--spi", "0x999"]) == 5
        assert capsys.readouterr().err == (
            f"error: UnknownSpi: no SA with SPI 0x999 in {config_file}\n")

    def test_unreadable_input(self, tmp_path, config_file, capsys):
        missing = tmp_path / "missing.hex"
        assert main(["decap", "--config", config_file, "--in", str(missing)]) == 3
        assert capsys.readouterr().err.startswith(f"error: ConfigError: cannot read {missing}: ")

    def test_encap_no_matching_sa(self, tmp_path, config_file, capsys):
        other = tmp_path / "other.hex"
        other.write_text(make_datagram(dst_port=443).hex())
        assert main(["encap", "--config", config_file, "--in", str(other)]) == 12
        assert "NoMatchingSa" in capsys.readouterr().err

    def test_decap_tampered_is_auth_failure(self, tmp_path, config_file,
                                            packet_file, capsys):
        main(["encap", "--config", config_file, "--in", packet_file])
        raw = bytearray(bytes.fromhex(capsys.readouterr().out.strip()))
        raw[45] ^= 0x10  # inside the ciphertext
        bad = tmp_path / "bad.hex"
        bad.write_text(raw.hex())
        assert main(["decap", "--config", config_file, "--in", str(bad)]) == 6
        assert "AuthFailure" in capsys.readouterr().err

    def test_decap_replay_is_fresh_per_invocation(self, tmp_path, config_file,
                                                  packet_file, capsys):
        """Each CLI run loads fresh SA state; the same packet decaps twice."""
        main(["encap", "--config", config_file, "--in", packet_file])
        enc = tmp_path / "enc.hex"
        enc.write_text(capsys.readouterr().out.strip())
        assert main(["decap", "--config", config_file, "--in", str(enc)]) == 0
        capsys.readouterr()
        assert main(["decap", "--config", config_file, "--in", str(enc)]) == 0

    def test_classify_golden_fixture(self, tmp_path, config_file, capsys, monkeypatch):
        """The recorded Q-ESP packet classifies to EF under the voice rule,
        from one read of each header."""
        _, golden_out = oracle.dump_from_hex(
            (FIXTURES / "qesp_transport_aes128_sha1.hex").read_text())
        pkt = tmp_path / "golden.hex"
        pkt.write_text(golden_out.hex())
        reads = []
        for name in ("read_ipv4", "read_qesp_header"):
            read = getattr(wire, name)
            monkeypatch.setattr(wire, name, lambda *a, _n=name, _r=read: reads.append(_n) or _r(*a))
        assert main(["classify", "--config", config_file, "--in", str(pkt)]) == 0
        assert reads == ["read_ipv4", "read_qesp_header"]
        line = capsys.readouterr().out.strip()
        assert line == ("src=10.0.0.1 dst=10.0.9.9 protocol=17 "
                        "src_port=4000 dst_port=5060 dscp=46")

    def test_classify_esp_shows_no_ports(self, tmp_path, config_file, capsys):
        _, golden_out = oracle.dump_from_hex(
            (FIXTURES / "esp_transport_aes128_sha1.hex").read_text())
        pkt = tmp_path / "esp.hex"
        pkt.write_text(golden_out.hex())
        assert main(["classify", "--config", config_file, "--in", str(pkt)]) == 0
        line = capsys.readouterr().out.strip()
        assert "protocol=50 src_port=- dst_port=- dscp=0" in line

    def test_classify_rejects_reserved_set(self, capsys):
        """A Q-ESP voice packet whose clear header has reserved = 1: decap
        rejects the header, so the classifier does not mark it EF either."""
        bundled = str(resources.files("qesp_lab").joinpath("data/priority.json"))
        assert main(["classify", "--config", bundled,
                     "--in", str(FIXTURES / "qesp_reserved_set.hex")]) == 4
        assert capsys.readouterr().err.startswith("error: InvalidHeader: reserved must be 0")

    @pytest.mark.parametrize("command", ["classify", "decap"])
    def test_rejects_ports_under_portless_protocol(self, command, capsys):
        """A Q-ESP packet under the bundled voice SA, valid ICV, whose clear
        header names ICMP with ports 5/6: classify once printed it with no
        ports (exit 0) and decap raised FiveTupleMismatch (exit 9)."""
        bundled = str(resources.files("qesp_lab").joinpath("data/priority.json"))
        assert main([command, "--config", bundled,
                     "--in", str(FIXTURES / "qesp_portless_ports.hex")]) == 4
        assert capsys.readouterr().err == (
            "error: InvalidHeader: protocol 1 has no ports, got 5/6\n")

    @pytest.mark.parametrize("command", ["classify", "encap", "decap"])
    def test_dangling_protection_spi_is_a_config_error(self, command, tmp_path,
                                                       packet_file, capsys):
        dangling = tmp_path / "dangling.json"
        dangling.write_text(json.dumps({**CLI_CONFIG, "sources": [
            {**CLI_CONFIG["sources"][0], "protection": 999}]}))
        assert main([command, "--config", str(dangling), "--in", packet_file]) == 3
        assert capsys.readouterr().err.startswith("error: ConfigError: config: ")

    def test_malformed_hex_input(self, tmp_path, config_file, capsys):
        bad = tmp_path / "bad.hex"
        bad.write_text("zz not hex")
        assert main(["decap", "--config", config_file, "--in", str(bad)]) == 4


# The timing gates below compare two costs measured in the same process.  A
# best-of-N over the whole test swings with the machine (the first Cipher and
# hashlib objects, slow spells on a shared VM), so each gate warms up first,
# then takes the median of per-pair ratios over short interleaved runs whose
# order alternates within the pair.


class TestBenchCrypto:
    def test_csv_shape_and_null_wins(self, capsys):
        def qesp_costs(algs: str) -> dict[str, float]:
            assert main(["bench-crypto", "--sizes", "256", "--algs", algs,
                         "--iters", "30"]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[0] == "variant,cipher,mac,size,ns_per_packet,mbps"
            assert len(lines) == 1 + 2 * 2  # two variants x two alg pairs
            return {line.split(",")[1]: float(line.split(",")[4])
                    for line in lines[1:] if line.startswith("qesp,")}

        orders = ("null/null,aes-128-cbc/null", "aes-128-cbc/null,null/null")
        qesp_costs(orders[0])  # warm-up
        ratios = []
        for i in range(15):
            costs = qesp_costs(orders[i % 2])
            ratios.append(costs["null"] / costs["aes-128-cbc"])
        assert statistics.median(ratios) < 1, ratios

    def test_bad_algs_flag(self, capsys):
        assert main(["bench-crypto", "--algs", "caesar"]) == 3

    def test_unknown_algorithm(self, capsys):
        assert main(["bench-crypto", "--algs", "aes-128-cbc/md4"]) == 3
        assert capsys.readouterr().err == (
            "error: ConfigError: --algs: unknown algorithm in 'aes-128-cbc/md4'\n")

    def test_all_algorithms(self, capsys):
        assert main(["bench-crypto", "--algs", "all", "--sizes", "64", "--iters", "1"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "variant,cipher,mac,size,ns_per_packet,mbps"
        assert len(rows) == 18  # two variants x three ciphers x three MACs
        assert len({tuple(row.split(",")[:3]) for row in rows}) == 18

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_below_one(self, iters, capsys):
        assert main(["bench-crypto", "--sizes", "64", "--algs", "null/null",
                     "--iters", iters]) == 3
        assert "--iters: must be >= 1" in capsys.readouterr().err

    def test_variant_parity_at_equal_algorithms(self):
        """Q-ESP and ESP encapsulation cost stays within 5% at equal algs."""
        from qesp_lab.cli import bench_encapsulation
        from qesp_lab.crypto import CipherAlg, MacAlg
        from qesp_lab.sadb import ProtocolVariant

        def cost(variant: ProtocolVariant) -> float:
            # Best of five 10-packet rounds: a round is short enough to miss
            # most interruptions, and the best round drops the ones it meets.
            return bench_encapsulation(variant, CipherAlg.AES_128_CBC, MacAlg.HMAC_SHA1_96,
                                       size=1024, iters=10, repeats=5)

        variants = (ProtocolVariant.QESP, ProtocolVariant.ESP)
        for variant in variants:  # warm-up
            cost(variant)
        ratios = []
        for i in range(61):  # many short pairs: the median of 15 longer ones still swung 5 %
            order = variants if i % 2 == 0 else variants[::-1]
            costs = {variant: cost(variant) for variant in order}
            ratios.append(costs[ProtocolVariant.QESP] / costs[ProtocolVariant.ESP])
        assert abs(statistics.median(ratios) - 1) <= 0.05, ratios


class TestExitCodeTable:
    def test_codes_are_distinct_per_error_kind(self):
        codes = [code for _, code in cli.EXIT_CODES]
        # one row per code: every header read failure is a MalformedPacket (4)
        assert sorted(set(codes)) == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_one_row_per_code(self):
        codes = [code for _, code in cli.EXIT_CODES]
        assert len(codes) == len(set(codes))
        for kind in (Truncated, InvalidHeader, BadChecksum, UnsupportedOptions):
            assert cli.exit_code_for(kind("x")) == 4
