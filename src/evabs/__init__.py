"""Authenticated street-charging sessions for electric vehicles.

A self-contained simulator of a three-party charging protocol: vehicles
authenticate to a curbside terminal over an open radio link, the terminal
consults a billing server over a protected line, charging time is measured
on both sides, and the server invoices per started second. The open link
runs through a scriptable message-level adversary so the protocol's
defenses (and its known weak spot) can be exercised deterministically.

Layout:
  errors        the exception classes; the one check of a byte-string and
                of an integer argument
  crypto        block cipher, MAC, XOR, seedable nonce stream; binds a kernel
  _osslkernels  the fast kernel: AES-256 from the host's libcrypto
  _pykernels    the reference kernel: AES-256 and xorshift128+ in Python
  wire          tagged fixed-width frames for both links, each message's
                layout stated once
  protocol      handshake steps and the vehicle/terminal/server agents
  registry      enrolled vehicles, replay bookkeeping, invoices, persistence
  channel       simulated links, shared clock, transcript, adversary scripting
  scenario      declarative runs: sessions, attacks, expectations
  cli           the `evabs` command
"""

from evabs.crypto import BACKEND

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
