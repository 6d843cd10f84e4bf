"""CLI surface: CSV outputs, exit codes, seed precedence, one-shot tools."""

from __future__ import annotations

import contextlib
import fcntl
import io
import json
import os
import re
import statistics
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import oracle
from conftest import FIXTURES, make_datagram, make_sa
from qesp_lab import cli, crypto, engine, errors, wire
from qesp_lab.cli import main
from qesp_lab.config import load_config
from qesp_lab.crypto import CipherAlg
from qesp_lab.errors import (
    BadChecksum,
    BadKeyLength,
    InvalidHeader,
    QespLabError,
    Truncated,
    UnsupportedOptions,
)
from qesp_lab.netsim import build_datagram, run_simulation
from qesp_lab.sadb import ProtocolVariant

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

    @pytest.mark.parametrize("sizes", ["1_0", "+8", " 8", "\u0668", "64,+8", "1_0,+8, \u0668"])
    def test_sizes_are_ascii_decimal(self, sizes, capsys):
        """int() reads 1_0 as 10 and +8, " 8" and the Arabic-Indic ٨ as 8; seeds
        and config keys refuse them, and so does --sizes."""
        assert main(["throughput", "--sizes", sizes, "--cipher", "null", "--mac", "null",
                     "--duration", "0.1"]) == 3
        assert capsys.readouterr() == (
            "", f"error: ConfigError: --sizes: not an integer list: {sizes!r}\n")

    @pytest.mark.parametrize("sizes", ["0", "65001"])
    def test_sizes_out_of_range(self, sizes, capsys):
        assert main(["throughput", "--sizes", sizes]) == 3
        assert capsys.readouterr().err == (
            "error: ConfigError: --sizes: values must be in [1, 65000]\n")

    def test_sizes_at_the_range_ends(self, capsys):
        assert main(["throughput", "--sizes", "1,65000", "--cipher", "null", "--mac", "null",
                     "--duration", "0.01"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["1", "65000"]

    def test_overhead_is_measured_under_tail_drops(self, capsys):
        """overhead_bytes is wire minus plain bytes per delivered packet: a sweep
        that drops packets (20000 pps of 1400 B over 100 Mbps) prints what the
        uncongested one does, the bytes outbound adds (60 for Q-ESP, 52 for ESP
        under AES/SHA1 transport)."""
        columns = {}
        for pps in ("100", "20000"):
            assert main(["throughput", "--sizes", "1400", "--pps", pps, "--duration", "1"]) == 0
            rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
            columns[pps] = {variant: int(overhead) for _, variant, *_, overhead in rows}
            if pps == "20000":  # goodput below the offered 224000 Kbps: drops
                assert all(float(goodput) < 224_000 for _, _, goodput, *_ in rows)
        datagram = make_datagram(payload_len=1400)
        measured = {variant.value: len(engine.outbound(make_sa(variant=variant), datagram))
                    - len(datagram) for variant in ProtocolVariant}
        assert columns["20000"] == columns["100"] == measured

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

    def test_sweep_that_offers_no_packet_refused(self, tmp_path, capsys):
        """0.01 s at 1e-3 pps offers no packet: a goodput of 0 would measure nothing."""
        out = tmp_path / "tput.csv"
        assert main(["throughput", "--sizes", "64", "--pps", "1e-3", "--duration", "0.01",
                     "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: ConfigError: --pps 0.001 over --duration 0.01 offers no packet\n")
        assert not out.exists()

    def test_one_packet_sweep_runs(self, capsys):
        assert main(["throughput", "--sizes", "64", "--pps", "1", "--duration", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        # one 64-byte payload in one second is 0.512 Kbps of goodput
        assert [row.split(",")[:3] for row in rows] == [["64", "qesp", "0.512"],
                                                        ["64", "esp", "0.512"]]


class TestNumericFlagSyntax:
    """Numeric flags take ASCII numbers only, as --seed and --sizes do: int() and
    float() alone also take '_' separators, non-ASCII digits and padding."""

    # Each flag's command line and a value it accepts.
    FLAGS = {
        "--iters": (["bench-crypto", "--sizes", "64", "--algs", "null/null"], "10"),
        "--pps": (["throughput", "--sizes", "64", "--duration", "0.01"], "10"),
        "--duration": (["throughput", "--sizes", "64"], "10"),
        "--spi": (["encap", "--config", "{config}", "--in", "{packet}"], "257"),
    }

    @pytest.mark.parametrize("spoil", [
        lambda v: v[:1] + "_" + v[1:],
        lambda v: "".join(chr(0x660 + int(d)) for d in v),  # Arabic-Indic digits
        lambda v: f" {v}",
    ], ids=["underscore", "non-ascii", "padded"])
    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_refused_with_usage_exit(self, flag, spoil, config_file, packet_file, capsys):
        argv, value = self.FLAGS[flag]
        argv = [arg.format(config=config_file, packet=packet_file) for arg in argv]
        with pytest.raises(SystemExit) as exited:
            main([*argv, flag, spoil(value)])
        assert exited.value.code == 2
        assert (f"argument {flag}: invalid number value: {spoil(value)!r}"
                in capsys.readouterr().err)

    def test_hex_spi_and_exponent_pps_still_read(self, config_file, packet_file, capsys):
        assert main(["encap", "--config", config_file, "--in", packet_file,
                     "--spi", "0x101"]) == 0
        assert main(["throughput", "--sizes", "64", "--duration", "1000", "--pps", "1e-3"]) == 0
        capsys.readouterr()


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

    def test_seed_precedence(self, tmp_path, monkeypatch, capsys):
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
        # random.Random seeds by abs(n), so -5 once ran as seed 5
        negative = tmp_path / "negative.json"
        negative.write_text(json.dumps({**cfg, "seed": -5}))
        monkeypatch.delenv("QESP_LAB_SEED", raising=False)
        for argv, env_seed, where in ((["--seed", "-5"], None, "--seed"),
                                      ([], "-5", "QESP_LAB_SEED"),
                                      (["--config", str(negative)], None, "config: seed")):
            with monkeypatch.context() as m:
                if env_seed is not None:
                    m.setenv("QESP_LAB_SEED", env_seed)
                assert main(["priority", "--config", str(config_file)] + argv) == 3
            assert capsys.readouterr().err == (
                f"error: ConfigError: {where} must be an int in 0..{2 ** 64 - 1}, got -5\n")
        with monkeypatch.context() as m:
            m.setenv("QESP_LAB_SEED", "not-a-number")
            assert main(["priority", "--config", str(config_file),
                         "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("seed", ["-5", str(2 ** 64)])
    @pytest.mark.parametrize("command", ["priority", "throughput"])
    def test_seed_out_of_range(self, command, seed, monkeypatch, capsys):
        """Named as the seed, also where throughput's SA takes it as its iv_seed."""
        argv = [command] + (["--sizes", "64", "--duration", "1"] if command == "throughput" else [])
        monkeypatch.delenv("QESP_LAB_SEED", raising=False)
        assert main(argv + ["--seed", seed]) == 3
        assert capsys.readouterr().err == (
            f"error: ConfigError: --seed must be an int in 0..{2 ** 64 - 1}, got {seed}\n")
        monkeypatch.setenv("QESP_LAB_SEED", seed)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: ConfigError: QESP_LAB_SEED must be an int in 0..{2 ** 64 - 1}, got {seed}\n")
        assert main(argv + ["--seed", str(2 ** 64 - 1), "--out", "-"]) == 0

    # int() reads each of these as a seed: "١" as 1, "1_0" as 10, " 3" as 3.
    @pytest.mark.parametrize("text", ["١", "1_0", " 3", "+3", "3 ", "", "-", "--3", "0x3"])
    def test_seed_is_ascii_decimal(self, text, monkeypatch, capsys):
        monkeypatch.setenv("QESP_LAB_SEED", text)
        assert main(["priority"]) == 3
        assert f"error: ConfigError: QESP_LAB_SEED is not an integer: {text!r}" in (
            capsys.readouterr().err)
        monkeypatch.delenv("QESP_LAB_SEED")
        assert main(["priority", f"--seed={text}"]) == 3
        assert f"error: ConfigError: --seed is not an integer: {text!r}" in (
            capsys.readouterr().err)


def test_config_nested_too_deep_to_parse(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["priority", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: ConfigError: {path} is not valid JSON: ")


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


class TestClosedOutput:
    """A stdout that takes no more output ends the run with a documented exit
    code, whether stdout is buffered or not: a reader that leaves early
    (`| head -1`) gives exit 13 and nothing on stderr, a full device exit 3
    and one `error:` line."""

    @staticmethod
    def child_env(unbuffered):
        """The environment of a fresh interpreter that imports this checkout's
        qesp_lab, with an unbuffered stdout or a buffered one."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH"))))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    def run_into_pipe(self, argv, lines_read, unbuffered=False):
        """Run qesp-lab in a fresh interpreter whose stdout is a one-page pipe;
        read lines_read lines, or none with the read end closed from the start,
        then close the read end.  Returns (exit code, stderr, pipe capacity)."""
        read_fd, write_fd = os.pipe()
        capacity = fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, 4096)
        with os.fdopen(read_fd, "rb", buffering=0) as reader:
            if not lines_read:
                reader.close()
            proc = subprocess.Popen([sys.executable, "-m", "qesp_lab.cli", *argv],
                                    stdout=write_fd, stderr=subprocess.PIPE,
                                    env=self.child_env(unbuffered))
            os.close(write_fd)
            for _ in range(lines_read):
                assert reader.readline()
        return proc.wait(timeout=60), proc.stderr.read().decode(), capacity

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_leaves_after_one_line(self, unbuffered):
        """The CSV is several times the pipe's capacity, so its write is still
        blocked when the reader leaves."""
        sizes = ",".join(str(size) for size in range(1, 513))  # 27558 bytes of CSV
        code, err, capacity = self.run_into_pipe(
            ["throughput", "--sizes", sizes, "--duration", "0.01", "--cipher", "null",
             "--mac", "null"], 1, unbuffered)
        assert capacity <= 8192
        assert (code, err) == (QespLabError.exit_code, "")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_summary_lines_find_no_reader(self, tmp_path, unbuffered):
        """With the CSV in a file, the first write to stdout is a summary line."""
        code, err, _ = self.run_into_pipe(
            ["priority", "--seed", "1", "--out", str(tmp_path / "out.csv")], 0, unbuffered)
        assert (code, err) == (QespLabError.exit_code, "")
        recorded = (FIXTURES / "cli_priority_seed1.txt").read_text().splitlines(keepends=True)
        assert (tmp_path / "out.csv").read_text() == "".join(recorded[:-2])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ["priority", "--seed", "1"],
        ["priority", "--seed", "1", "--out", "{tmp}/out.csv"],
        ["throughput", "--sizes", "64,1024", "--duration", "2", "--seed", "1"],
    ], ids=["priority", "priority-csv-in-file", "throughput"])
    def test_full_device(self, tmp_path, argv, unbuffered):
        """Every write to a full device fails: the CSV's, or with the CSV in a
        file, the summary lines'.  One diagnostic, no traceback."""
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "qesp_lab.cli", *(a.format(tmp=tmp_path) for a in argv)],
                stdout=full, stderr=subprocess.PIPE, env=self.child_env(unbuffered), timeout=60)
        (line,) = proc.stderr.decode().splitlines()
        assert (proc.returncode, line.split(" [Errno")[0]) == (
            3, "error: ConfigError: cannot write stdout:")


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
    ("cli_throughput_null_null_tunnel.csv", ["throughput", "--cipher", "null", "--mac", "null",
                                             "--mode", "tunnel", "--sizes", "64,1024",
                                             "--duration", "2", "--seed", "1"]),
    ("cli_throughput_null_sha1_transport.csv", ["throughput", "--cipher", "null",
                                                "--mac", "hmac-sha1-96", "--mode", "transport",
                                                "--sizes", "64,1024", "--duration", "2",
                                                "--seed", "1"]),
])
def test_output_byte_identical_to_recorded(fixture, argv, capsys):
    """CSV rows and summary lines stay byte-for-byte what the recorded run printed."""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / fixture).read_bytes()


def test_text_only_stdout_takes_the_same_output():
    """A stdout with no byte layer, such as io.StringIO, gets the text itself."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["priority", "--seed", "1"]) == 0
    assert out.getvalue().encode() == (FIXTURES / "cli_priority_seed1.txt").read_bytes()


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

    @pytest.mark.parametrize("spi", ["-1", "0", "0x100000000"])
    def test_encap_spi_out_of_range(self, spi, config_file, packet_file, capsys):
        """SPI 0 means 'no SA' and an SPI is 32 bits: a config error, not UnknownSpi."""
        assert main(["encap", "--config", config_file, "--in", packet_file,
                     "--spi", spi]) == 3
        assert capsys.readouterr() == ("", (
            f"error: ConfigError: --spi must be an int in 1..4294967295, got {int(spi, 0)}\n"))

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
        assert capsys.readouterr().err == ("error: ConfigError: config: source one: "
                                           "protection 999, but the SA selectors pick 257\n")

    def test_encap_picks_the_sa_the_simulator_used(self, tmp_path, capsys, monkeypatch):
        """encap without --spi and run_simulation follow one policy: a datagram
        of each mixed-fixture flow encaps under the SA the run sent it through,
        and a flow the run left in clear has no SA (exit 12)."""
        cfg = load_config(str(MIXED))
        used, real_outbound = {}, engine.outbound

        def outbound(sa, datagram):
            used[engine.five_tuple_of(datagram)] = sa.spi
            return real_outbound(sa, datagram)
        monkeypatch.setattr(engine, "outbound", outbound)
        run_simulation(cfg)
        monkeypatch.undo()

        picked = {}
        for src in cfg.sources:
            datagram = build_datagram(src.five_tuple, bytes(src.payload_size), 7)
            packet = tmp_path / f"{src.flow_id}.hex"
            packet.write_text(datagram.hex())
            spi = picked[src.flow_id] = used.get(engine.five_tuple_of(datagram))
            if spi is None:
                assert main(["encap", "--config", str(MIXED), "--in", str(packet)]) == 12
                assert "NoMatchingSa" in capsys.readouterr().err
            else:
                assert main(["encap", "--config", str(MIXED), "--in", str(packet)]) == 0
                expected = engine.outbound(cfg.build_sadb().lookup_by_spi(spi), datagram)
                assert capsys.readouterr().out == expected.hex() + "\n"
        assert picked == {"voice": 769, "video": 769, "web": 770, "gre": None, "plain": None}

    @pytest.mark.parametrize("selector,protection,verdict", [
        ({"protocol": 47, "dst_ports": [0, 0]}, 771, "error: ConfigError: config: source gre: "
                                                     "protection 771, but the SA selectors "
                                                     "pick None\n"),
        ({"protocol": 47, "dst_ports": [0, 0]}, None, None),
        ({"protocol": 47}, 771, 771),
        ({"protocol": 47}, None, "error: ConfigError: config: source gre: protection None, "
                                 "but the SA selectors pick 771\n"),
    ], ids=["ports-771", "ports-clear", "any-771", "any-clear"])
    def test_portless_flow_is_selected_on_the_ports_it_shows(self, selector, protection,
                                                              verdict, tmp_path, capsys):
        """A GRE datagram shows no ports, so no port constraint selects its
        flow, whatever ports the source configures (0/0 by default): the run
        and encap protect it under the same SA, or both leave it in clear."""
        spec = json.loads(MIXED.read_text())
        spec["sas"].append({"spi": 771, "variant": "esp", "mode": "transport",
                            "cipher": "null", "cipher_key_hex": "", "mac": "null",
                            "mac_key_hex": "", "selector": selector})
        gre = next(src for src in spec["sources"] if src["flow_id"] == "gre")
        gre["protection"] = protection
        config = tmp_path / "gre.json"
        config.write_text(json.dumps(spec))
        if isinstance(verdict, str):
            assert main(["priority", "--config", str(config)]) == 3
            assert capsys.readouterr().err == verdict
            return
        assert main(["priority", "--config", str(config)]) == 0
        cfg = load_config(str(config))
        stats = next(s for s in run_simulation(cfg) if s.flow_id == "gre")
        assert stats.delivered_packets > 0
        protected = stats.delivered_wire_bytes > stats.delivered_plain_bytes
        assert protected is (verdict is not None)
        five_tuple = next(src.five_tuple for src in cfg.sources if src.flow_id == "gre")
        datagram = tmp_path / "gre.hex"
        datagram.write_text(build_datagram(five_tuple, bytes(500), 7).hex())
        assert main(["encap", "--config", str(config), "--in", str(datagram)]) == (
            0 if protected else 12)

    def test_esp_encap_rejects_a_segment_short_of_its_ports(self, tmp_path, capsys):
        """The mixed fixture's SA 770 is ESP: its outbound reads the ports as
        Q-ESP outbound and SA selection do, so a 2-byte UDP segment is malformed."""
        short = tmp_path / "short.hex"
        short.write_text(wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_UDP, 1, 2, b"\x12\x34").hex())
        assert main(["encap", "--config", str(MIXED), "--in", str(short), "--spi", "770"]) == 4
        assert capsys.readouterr().err == (
            "error: Truncated: transport segment too short for ports: 2\n")

    def test_decap_rejects_esp_spi_zero(self, tmp_path, capsys):
        packet = tmp_path / "spi0.hex"
        packet.write_text(wire.pack_ipv4(0, 1, 0, 64, wire.IPPROTO_ESP, 1, 2,
                                         wire.pack_esp_header(0, 1) + bytes(40)).hex())
        assert main(["decap", "--config", str(MIXED), "--in", str(packet)]) == 4
        assert capsys.readouterr().err == "error: InvalidHeader: spi 0 is reserved for 'no SA'\n"

    def test_decap_rejects_esp_tunnel_content_that_is_not_ip_in_ip(self, capsys):
        """An ESP tunnel packet under the mixed fixture's SA 770, valid ICV
        and pad, whose next_header is 17: its content is not an IPv4
        datagram, a malformed packet (exit 4), not a padding failure (exit 8).
        The receiver model gives the same verdict."""
        fixture = FIXTURES / "esp_tunnel_next_header_17.hex"
        sa = json.loads(MIXED.read_text())["sas"][1]
        packet = bytes.fromhex("".join(fixture.read_text().split()))
        assert oracle.decap(packet, variant="esp", mode="tunnel", cipher=sa["cipher"],
                            cipher_key=bytes.fromhex(sa["cipher_key_hex"]), mac=sa["mac"],
                            mac_key=bytes.fromhex(sa["mac_key_hex"]), spi=sa["spi"],
                            seen=set()) == "InvalidHeader"
        assert main(["decap", "--config", str(MIXED), "--in", str(fixture)]) == 4
        assert capsys.readouterr().err == (
            "error: InvalidHeader: tunnel-mode next_header 17 is not IP-in-IP\n")

    @pytest.mark.parametrize("command", ["classify", "encap", "decap"])
    @pytest.mark.parametrize("content", [b"zz not hex", b"\xff\xfe45"],
                             ids=["not-hex", "not-utf8"])
    def test_malformed_hex_input(self, command, content, tmp_path, config_file, capsys):
        """Bytes that are not UTF-8 hex text are a malformed packet (exit 4);
        undecodable bytes once escaped as a UnicodeDecodeError traceback."""
        bad = tmp_path / "bad.hex"
        bad.write_bytes(content)
        assert main([command, "--config", config_file, "--in", str(bad)]) == 4
        assert capsys.readouterr().err == (
            f"error: MalformedPacket: {bad} is not a hex-encoded packet\n")

    @pytest.mark.parametrize("command", ["classify", "encap", "decap"])
    @pytest.mark.parametrize("key,message", [
        ("cipher_key_hex", "aes-128-cbc needs a 16-byte key, got 2"),
        ("mac_key_hex", "hmac-sha1-96 needs a 20-byte key, got 2")])
    def test_wrong_key_length_exits_at_load(self, command, key, message, tmp_path,
                                            packet_file, capsys):
        """A key is checked when its SA is built, not when it first ciphers or
        MACs a packet: even the keyless classify refuses the config."""
        config = tmp_path / "short_key.json"
        sa = {**CLI_CONFIG["sas"][0], key: "aabb"}
        config.write_text(json.dumps({**CLI_CONFIG, "sas": [sa]}))
        assert main([command, "--config", str(config), "--in", packet_file]) == 3
        assert capsys.readouterr().err == f"error: ConfigError: config.sas[0]: {message}\n"


def test_only_a_ciphering_sa_opens_cbc_contexts(monkeypatch, capsys):
    """Loading the bundled config, building SADBs from it and re-varianting it
    open no CBC context; one priority A/B run opens one pair per SA that
    carries a packet (2 SAs x 2 runs) and prints the recorded output."""
    opened, open_cbc = [], crypto._open_cbc
    monkeypatch.setattr(crypto, "_open_cbc",
                        lambda state: opened.append(state.alg) or open_cbc(state))
    cfg = load_config(str(resources.files("qesp_lab").joinpath("data/priority.json")))
    cfg.build_sadb()
    for variant in ProtocolVariant:
        cfg.with_variant(variant).build_sadb()
    assert opened == []
    assert main(["priority", "--seed", "1"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "cli_priority_seed1.txt").read_bytes()
    assert opened == [CipherAlg.AES_128_CBC] * 4


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
        assert capsys.readouterr().err == (
            "error: ConfigError: --algs: expected cipher/mac pairs, got 'caesar'\n")

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
        from qesp_lab.crypto import MacAlg

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
    ERROR_CLASSES = [value for value in vars(errors).values()
                     if isinstance(value, type) and issubclass(value, QespLabError)]

    def test_codes_are_three_to_thirteen(self):
        assert {cls.exit_code for cls in self.ERROR_CLASSES} == set(range(3, 14))

    def test_header_failures_share_the_malformed_code(self):
        for kind in (Truncated, InvalidHeader, BadChecksum, UnsupportedOptions):
            assert kind.exit_code == 4

    def test_unmapped_error_exits_other(self, monkeypatch, capsys):
        """A QespLabError that sets no code of its own inherits 13, not None."""
        assert BadKeyLength.exit_code == 13

        def fail(args):
            raise BadKeyLength("unmapped")
        monkeypatch.setattr(cli, "cmd_classify", fail)
        assert main(["classify", "--config", "unused.json", "--in", "unused.hex"]) == 13
        assert capsys.readouterr().err == "error: BadKeyLength: unmapped\n"

    def test_readme_lists_each_code_once(self):
        """The README table has a row for success (0), argparse's usage exit (2)
        and each class's code, and no other."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n## Exit codes\n")[1].split("\n## ")[0]
        rows = [int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.M)]
        assert rows == sorted({0, 2} | {cls.exit_code for cls in self.ERROR_CLASSES})
