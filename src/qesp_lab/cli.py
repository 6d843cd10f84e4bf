"""Command-line harness for the lab.

Subcommands::

    throughput    single-flow goodput sweep over packet sizes (CSV)
    priority      congested-link A/B experiment: Q-ESP vs ESP (CSV + summary)
    bench-crypto  wall-clock encapsulation microbenchmark (CSV)
    encap         encapsulate one datagram from a hex file
    decap         decapsulate one datagram from a hex file
    classify      print extracted fields and DSCP for one datagram

Every failure exits with its class's documented ``exit_code`` (see errors)
and a one-line ``error: <Kind>: <detail>`` diagnostic on stderr, a stdout that
fails (a full device) included; a closed stdout (a reader such as ``head``
that left early) exits QespLabError.exit_code silently.  Seed precedence
for simulations: --seed flag, then QESP_LAB_SEED, then the config file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from importlib import resources
from typing import Callable

from . import classifier, engine
from .classifier import RuleTable
from .config import load_config
from .crypto import CipherAlg, MacAlg
from .errors import ConfigError, MalformedPacket, NoMatchingSa, QespLabError, UnknownSpi, check_int
from .netsim import (
    MAX_PAYLOAD_SIZE, ExperimentConfig, FlowStats, LinkConfig, TrafficSource, build_datagram,
    run_simulation,
)
from .sadb import SEED_MAX, FiveTuple, ProtocolVariant, SaMode, SecurityAssociation, Selector
from .wire import IPPROTO_UDP, int_to_addr, parse_decimal


DEFAULT_SIZES = "64,128,256,512,1024,2048,4096"
DEFAULT_PPS = 100.0
DEFAULT_DURATION = 10.0
THROUGHPUT_CAPACITY_BPS = 100e6  # far above any swept flow: uncongested
# The flow that throughput sweeps and bench-crypto encapsulates.
SWEEP_FLOW = FiveTuple(src_addr=0x0A000001, dst_addr=0x0A000909,
                       protocol=IPPROTO_UDP, src_port=4000, dst_port=5060)

FLOW_STATS_COLUMNS = ("flow_id", "offered_bytes", "delivered_bytes",
                      "delivered_packets", "dropped_packets",
                      "mean_latency_s", "throughput_kbps")


def resolve_seed(flag_seed: str | None, config_seed: int) -> int:
    """Seed precedence: flag > QESP_LAB_SEED environment > config.  A flag or
    environment seed is ASCII decimal digits, optionally '-'-led, in 0..SEED_MAX."""
    env = os.environ.get("QESP_LAB_SEED")
    for where, text in (("--seed", flag_seed), ("QESP_LAB_SEED", env)):
        if text is not None:
            try:
                seed = -parse_decimal(text[1:]) if text[:1] == "-" else parse_decimal(text)
            except ValueError:
                raise ConfigError(f"{where} is not an integer: {text!r}") from None
            check_int(seed, where, 0, SEED_MAX)
            return seed
    return config_seed


def _read_hex_file(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        return bytes.fromhex("".join(raw.decode("utf-8").split()))
    except ValueError:  # UnicodeDecodeError included
        raise MalformedPacket(f"{path} is not a hex-encoded packet") from None


def _write_stdout(text: str) -> None:
    """Write text to stdout whole and flush it: the byte layer takes it in a loop,
    as an unbuffered one may take part, so a reader that has left raises
    BrokenPipeError.  Any other failure is a ConfigError."""
    stdout = sys.stdout
    buffer = getattr(stdout, "buffer", None)
    if buffer is None:  # a text-only stream, e.g. io.StringIO under redirect_stdout
        stdout.write(text)
        return
    data = memoryview(text.encode(stdout.encoding, stdout.errors))
    try:
        stdout.flush()
        while data:
            data = data[buffer.write(data):]
        buffer.flush()
    except OSError as exc:  # devnull takes the final flush ("Note on SIGPIPE", signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise ConfigError(f"cannot write stdout: {exc}") from None


def _write_out(path: str, text: str) -> None:
    if path == "-":
        _write_stdout(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _ascii_number(read: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse type for a numeric flag: refuse the non-ASCII digits, '_'
    separators and surrounding whitespace that int() and float() take, then read."""
    def number(text: str) -> float:
        if not text.isascii() or "_" in text or text.strip() != text:
            raise ValueError(f"not an ASCII number: {text!r}")
        return read(text)
    return number


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [parse_decimal(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigError(f"--sizes: not an integer list: {text!r}") from None
    if not sizes or any(s < 1 or s > MAX_PAYLOAD_SIZE for s in sizes):
        raise ConfigError(f"--sizes: values must be in [1, {MAX_PAYLOAD_SIZE}]")
    return sizes


def _flow_stats_row(stats: FlowStats) -> str:
    return (f"{stats.flow_id},{stats.offered_bytes},{stats.delivered_bytes},"
            f"{stats.delivered_packets},{stats.dropped_packets},"
            f"{stats.mean_latency_s:.6f},{stats.throughput_kbps:.3f}")


# --- throughput --------------------------------------------------------------

def _sweep_config(size: int, cipher: CipherAlg, mac: MacAlg, mode: SaMode, pps: float,
                  duration: float, seed: int) -> ExperimentConfig:
    """One Q-ESP-protected flow on an uncongested link; with_variant gives ESP."""
    sa = SecurityAssociation(
        spi=0x101, variant=ProtocolVariant.QESP, mode=mode, cipher=cipher,
        cipher_key=bytes(range(cipher.key_len)), mac=mac, mac_key=bytes(range(mac.key_len)),
        selector=Selector(), extended_auth=True,
        tunnel_src=SWEEP_FLOW.src_addr if mode is SaMode.TUNNEL else None,
        tunnel_dst=SWEEP_FLOW.dst_addr if mode is SaMode.TUNNEL else None,
        iv_seed=seed)
    source = TrafficSource(
        flow_id=f"sweep-{size}", payload_size=size, rate_pps=pps,
        five_tuple=SWEEP_FLOW, protection_spi=0x101)
    return ExperimentConfig(
        sas=(sa,), rules=RuleTable(), sources=(source,),
        link=LinkConfig(capacity_bps=THROUGHPUT_CAPACITY_BPS, queue_limit=64),
        duration=duration, seed=seed)


def cmd_throughput(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    variants = list(ProtocolVariant) if args.variant == "both" else [ProtocolVariant(args.variant)]
    cipher = CipherAlg(args.cipher)
    mac = MacAlg(args.mac)
    mode = SaMode(args.mode)
    seed = resolve_seed(args.seed, 1)

    lines = ["size,variant,goodput_kbps,wire_kbps,overhead_bytes"]
    for size in sizes:
        cfg = _sweep_config(size, cipher, mac, mode, args.pps, args.duration, seed)
        for variant in variants:
            stats = run_simulation(cfg.with_variant(variant))[0]
            if stats.offered_packets == 0:  # a zero goodput that measured nothing
                raise ConfigError(f"--pps {args.pps!r} over --duration {args.duration!r} "
                                  "offers no packet")
            # Every packet of the flow has one size, and the first finds the link
            # idle, so the division is exact and never by zero.
            overhead = ((stats.delivered_wire_bytes - stats.delivered_plain_bytes)
                        // stats.delivered_packets)
            lines.append(f"{size},{variant.value},{stats.throughput_kbps:.3f},"
                         f"{stats.wire_kbps:.3f},{overhead}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


# --- priority ----------------------------------------------------------------

def _bundled_priority_config() -> str:
    return str(resources.files("qesp_lab").joinpath("data/priority.json"))


def cmd_priority(args: argparse.Namespace) -> int:
    path = args.config or _bundled_priority_config()
    cfg = load_config(path)
    seed = resolve_seed(args.seed, cfg.seed)

    lines = ["run," + ",".join(FLOW_STATS_COLUMNS)]
    summaries = []
    for variant in ProtocolVariant:
        run_cfg = replace(cfg.with_variant(variant), seed=seed)
        run_stats = run_simulation(run_cfg)
        for stats in run_stats:
            lines.append(f"{variant.value},{_flow_stats_row(stats)}")
        offered = sum(s.offered_packets for s in run_stats)
        delivered = sum(s.delivered_packets for s in run_stats)
        dropped = sum(s.dropped_packets for s in run_stats)
        summaries.append(
            f"# run={variant.value} seed={seed} offered_packets={offered} "
            f"delivered_packets={delivered} dropped_packets={dropped}")

    out = args.out if args.out is not None else (cfg.output or "-")
    _write_out(out, "\n".join(lines) + "\n")
    _write_stdout("".join(line + "\n" for line in summaries))
    return 0


# --- bench-crypto ------------------------------------------------------------

def _parse_algs(text: str) -> list[tuple[CipherAlg, MacAlg]]:
    if text == "all":
        return [(c, m) for c in CipherAlg for m in MacAlg]
    pairs = []
    for part in text.split(","):
        cipher_name, slash, mac_name = part.partition("/")
        if not slash:
            raise ConfigError(f"--algs: expected cipher/mac pairs, got {part!r}")
        try:
            pairs.append((CipherAlg(cipher_name), MacAlg(mac_name)))
        except ValueError:
            raise ConfigError(f"--algs: unknown algorithm in {part!r}") from None
    return pairs


def bench_encapsulation(variant: ProtocolVariant, cipher: CipherAlg, mac: MacAlg,
                        size: int, iters: int, repeats: int = 3) -> float:
    """Best-of-repeats mean ns per outbound encapsulation, each repeat on a
    fresh SA whose first, untimed packet opens its CBC contexts.  timeit pauses
    GC around the timed loop, so allocation debt from the surrounding process
    does not land inside the measurement.
    """
    import timeit  # here, not at module level: `qesp-lab priority` never needs it

    template = SecurityAssociation(
        spi=0x200, variant=variant, mode=SaMode.TRANSPORT, cipher=cipher,
        cipher_key=bytes(range(cipher.key_len)), mac=mac, mac_key=bytes(range(mac.key_len)),
        selector=Selector(), extended_auth=False, iv_seed=7)
    datagram = build_datagram(SWEEP_FLOW, bytes(size))

    best = float("inf")
    for _ in range(repeats):
        sa = replace(template)
        engine.outbound(sa, datagram)  # its first packet opens the CBC contexts
        best = min(best, timeit.timeit(functools.partial(engine.outbound, sa, datagram),
                                       number=iters))
    return best / iters * 1e9


def cmd_bench_crypto(args: argparse.Namespace) -> int:
    if args.iters < 1:
        raise ConfigError(f"--iters: must be >= 1, got {args.iters}")
    sizes = _parse_sizes(args.sizes)
    pairs = _parse_algs(args.algs)
    lines = ["variant,cipher,mac,size,ns_per_packet,mbps"]
    for variant in ProtocolVariant:
        for cipher, mac in pairs:
            for size in sizes:
                ns = bench_encapsulation(variant, cipher, mac, size, args.iters)
                mbps = size * 8 * 1000 / ns  # payload megabits per wall second
                lines.append(f"{variant.value},{cipher.value},{mac.value},{size},"
                             f"{ns:.0f},{mbps:.2f}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


# --- one-shot packet utilities ------------------------------------------------

def cmd_encap(args: argparse.Namespace) -> int:
    if args.spi is not None:
        check_int(args.spi, "--spi", 1, 0xFFFFFFFF)
    cfg = load_config(args.config)
    sadb = cfg.build_sadb()
    datagram = _read_hex_file(args.infile)
    if args.spi is not None:
        sa = sadb.lookup_by_spi(args.spi)
        if sa is None:
            raise UnknownSpi(f"no SA with SPI 0x{args.spi:x} in {args.config}")
    else:
        sa = sadb.lookup_outbound(engine.five_tuple_of(datagram))
        if sa is None:
            raise NoMatchingSa("no SA selector matches this packet; pass --spi")
    _write_out(args.out, engine.outbound(sa, datagram).hex() + "\n")
    return 0


def cmd_decap(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sadb = cfg.build_sadb()
    datagram = _read_hex_file(args.infile)
    _write_out(args.out, engine.inbound(sadb, datagram).hex() + "\n")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    packet = _read_hex_file(args.infile)
    fields = classifier.extract_fields(packet)
    dscp = cfg.rules.dscp_for(fields)
    ports = (("-" if fields.src_port is None else str(fields.src_port)),
             ("-" if fields.dst_port is None else str(fields.dst_port)))
    _write_stdout(f"src={int_to_addr(fields.src_addr)} dst={int_to_addr(fields.dst_addr)} "
                  f"protocol={fields.protocol} src_port={ports[0]} dst_port={ports[1]} "
                  f"dscp={dscp}\n")
    return 0


# --- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qesp-lab",
        description="Q-ESP/ESP encapsulation experiments at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="goodput sweep over packet sizes")
    p.add_argument("--sizes", default=DEFAULT_SIZES,
                   help="comma-separated payload sizes in bytes")
    p.add_argument("--pps", type=_ascii_number(float), default=DEFAULT_PPS)
    p.add_argument("--variant", choices=[v.value for v in ProtocolVariant] + ["both"],
                   default="both")
    p.add_argument("--cipher", choices=[c.value for c in CipherAlg],
                   default=CipherAlg.AES_128_CBC.value)
    p.add_argument("--mac", choices=[m.value for m in MacAlg],
                   default=MacAlg.HMAC_SHA1_96.value)
    p.add_argument("--mode", choices=[m.value for m in SaMode], default="transport")
    p.add_argument("--duration", type=_ascii_number(float), default=DEFAULT_DURATION)
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("priority", help="Q-ESP vs ESP on a congested link")
    p.add_argument("--config", default=None,
                   help="experiment config JSON (default: bundled scenario)")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_priority)

    p = sub.add_parser("bench-crypto", help="encapsulation microbenchmark")
    p.add_argument("--sizes", default="64,256,1024,4096")
    p.add_argument("--algs", default="all",
                   help='"all" or comma list of cipher/mac pairs')
    p.add_argument("--iters", type=_ascii_number(int), default=200)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench_crypto)

    p = sub.add_parser("encap", help="encapsulate one datagram")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="HEXFILE")
    p.add_argument("--spi", type=_ascii_number(lambda s: int(s, 0)), default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_encap)

    p = sub.add_parser("decap", help="decapsulate one datagram")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="HEXFILE")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_decap)

    p = sub.add_parser("classify", help="classify one datagram")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="HEXFILE")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)  # every stdout write is flushed by _write_stdout
    except QespLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # the reader has left; _write_stdout silenced stdout
        return QespLabError.exit_code


if __name__ == "__main__":
    sys.exit(main())
