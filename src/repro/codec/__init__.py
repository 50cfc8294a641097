"""Machine-independent state representation (the SNOW memory-graph codec).

:func:`encode` / :func:`decode` turn a Python object graph into a
self-describing byte stream and back, across simulated architectures that
differ in endianness and word size. Shared references and cycles are
preserved. :func:`decode_owned` is the consuming variant of ``decode``:
it restores arrays as views over a writable buffer the caller gives up.
"""

from repro.codec.arch import ARM64, MIPS32, NATIVE, SPARC32, X86_64, Architecture
from repro.codec.memgraph import (
    decode,
    decode_owned,
    encode,
    encode_parts,
    encoded_size,
    peek_arch,
)
from repro.codec.xdr import Reader, Writer

__all__ = [
    "ARM64",
    "Architecture",
    "MIPS32",
    "NATIVE",
    "Reader",
    "SPARC32",
    "Writer",
    "X86_64",
    "decode",
    "decode_owned",
    "encode",
    "encode_parts",
    "encoded_size",
    "peek_arch",
]
