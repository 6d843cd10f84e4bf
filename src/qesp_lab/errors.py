"""Exception hierarchy shared by all qesp_lab modules.

Every failure raised by this package derives from QespLabError, so callers
(and the simulator's drop accounting) can catch one base class.  Parsers are
total: arbitrary input bytes may only ever raise these, never anything else.

Each class carries the exit code the CLI returns for it (README, "Exit
codes") as ``exit_code``; a subclass that sets none inherits its parent's.
Every header read fails with a MalformedPacket subclass that names the
reason (Truncated, InvalidHeader, BadChecksum, UnsupportedOptions), so the
classifier, SA selection, encap and decap reject a packet with the same class
and the CLI exits 4 for them all.
"""


class QespLabError(Exception):
    """Base class for all errors raised by qesp_lab; a closed stdout exits 13 too."""

    exit_code = 13


# --- wire format ---

class MalformedPacket(QespLabError):
    """A header cannot be read; the subclasses below name the reason."""

    exit_code = 4


class Truncated(MalformedPacket):
    """Input buffer is shorter than the structure it claims to contain."""


class InvalidHeader(MalformedPacket):
    """A header field violates the format's invariants."""


class BadChecksum(MalformedPacket):
    """IPv4 header checksum does not verify."""


class UnsupportedOptions(MalformedPacket):
    """IPv4 header carries options (ihl != 5), which this lab does not model."""


# --- crypto ---

class BadKeyLength(QespLabError):
    """Key length does not match the algorithm's required key size."""


class BadIvLength(QespLabError):
    """IV length does not match the cipher's IV size."""


class BadBlockAlignment(QespLabError):
    """Plaintext/ciphertext length is not a multiple of the cipher block."""


# --- security association database ---

class DuplicateSpi(QespLabError):
    """An SA with this SPI is already registered."""


class SequenceExhausted(QespLabError):
    """Outbound sequence counter reached its ceiling; the SA needs rekeying."""

    exit_code = 10


# --- encapsulation engine ---

class UnknownSpi(QespLabError):
    """Inbound SPI does not select any SA of the right protocol variant."""

    exit_code = 5


class NoMatchingSa(QespLabError):
    """encap found no SA for the packet (no --spi and no selector match)."""

    exit_code = 12


class AuthFailure(QespLabError):
    """Integrity check value does not verify."""

    exit_code = 6


class ReplayRejected(QespLabError):
    """Sequence number is a duplicate or fell behind the anti-replay window."""

    exit_code = 7


class BadPadding(QespLabError):
    """Decrypted trailer padding is inconsistent."""

    exit_code = 8


class FiveTupleMismatch(QespLabError):
    """Cleartext port/protocol copies disagree with the decrypted payload."""

    exit_code = 9


class OversizePacket(QespLabError):
    """Encapsulation result would exceed the 65535-byte IPv4 limit."""

    exit_code = 11


# --- configuration ---

class ConfigError(QespLabError):
    """Experiment configuration is malformed; message names the field.  The CLI
    raises it for an unreadable or unwritable file too, stdout included."""

    exit_code = 3


def check_int(value, name: str, lo: int, hi: int) -> None:
    """Refuse a value that is not an int (a bool is not one) in lo..hi."""
    if type(value) is not int or not lo <= value <= hi:
        raise ConfigError(f"{name} must be an int in {lo}..{hi}, got {value!r}")
