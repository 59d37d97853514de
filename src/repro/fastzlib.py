"""CRC-32 and zlib inflate through the host's libdeflate, else :mod:`zlib`.

Both return what zlib returns -- DEFLATE decoding is deterministic and
CRC-32 is one polynomial -- in about half the time for a frame inflate
and a fifth for a chunk checksum.  The library is the system's
``libdeflate.so.0`` (Debian ``libdeflate0``), loaded by soname; where it
is absent both functions are plain zlib.  Every libdeflate failure
re-runs ``zlib.decompress``, so each error and its message stay zlib's.
Compression stays ``zlib.compressobj``: every stored byte depends on
zlib's Huffman-only stream, and libdeflate's compressor emits others.
"""

from __future__ import annotations

import ctypes
import threading
import zlib

import numpy as np

__all__ = ["backend", "crc32", "inflate"]


def _load():
    try:
        lib = ctypes.CDLL("libdeflate.so.0")  # ctypes.CDLL releases the GIL
    except OSError:
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    for name, restype, argtypes in (
        ("libdeflate_alloc_decompressor", ptr, []),
        ("libdeflate_free_decompressor", None, [ptr]),
        ("libdeflate_zlib_decompress", ctypes.c_int,
         [ptr, ptr, size, ptr, size, ctypes.POINTER(size)]),
        ("libdeflate_crc32", ctypes.c_uint32, [ctypes.c_uint32, ptr, size]),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


#: The binding, or ``None`` where the library is absent.
_LIB = _load()
_local = threading.local()


class _Decompressor:
    """One thread's libdeflate decompressor, freed with the thread
    (libdeflate's are not thread-safe, and the ingest read-ahead inflates
    off the caller's thread)."""

    def __init__(self, lib):
        self.handle = lib.libdeflate_alloc_decompressor()
        if not self.handle:
            raise MemoryError("libdeflate_alloc_decompressor failed")
        self.produced = ctypes.c_size_t()
        self._free = lib.libdeflate_free_decompressor

    def __del__(self):
        if self.handle:
            self._free(self.handle)


def _buffer(data):
    """``(pointer, nbytes, pin)`` for ``data``: ``bytes`` pass as
    themselves, any other contiguous buffer by its address (no copy),
    ``pin`` keeping it exported, so unresizable, while the caller holds it
    through the GIL-free call."""
    if type(data) is bytes:
        return data, len(data), None
    view = np.frombuffer(data, np.uint8)
    return view.ctypes.data, view.size, view


def backend() -> str:
    """``"libdeflate"`` or ``"zlib"``: what inflates and checksums here."""
    return "zlib" if _LIB is None else "libdeflate"


#: Below this many bytes zlib's loop beats the cost of a ctypes call.
_CRC_MIN_NBYTES = 8192


def crc32(data) -> int:
    """``zlib.crc32(data)``."""
    if _LIB is None or len(data) < _CRC_MIN_NBYTES:
        return zlib.crc32(data)
    src, nbytes, _pin = _buffer(data)
    return _LIB.libdeflate_crc32(0, src, nbytes)


def inflate(payload, max_nbytes: int):
    """``zlib.decompress(payload)``, as a ``bytearray`` when libdeflate
    inflates it into a fresh buffer of ``max_nbytes``.  A stream that
    does not fit, and every stream libdeflate rejects, goes to
    ``zlib.decompress``, which returns its bytes or raises its error."""
    lib = _LIB
    if lib is None:
        return zlib.decompress(payload)
    state = getattr(_local, "decompressor", None)
    if state is None:
        state = _local.decompressor = _Decompressor(lib)
    out = bytearray(max_nbytes)
    src, nbytes, _pin = _buffer(payload)
    status = lib.libdeflate_zlib_decompress(
        state.handle, src, nbytes,
        ctypes.addressof(ctypes.c_char.from_buffer(out)) if out else None,
        max_nbytes, ctypes.byref(state.produced),
    )
    if status:  # not LIBDEFLATE_SUCCESS
        return zlib.decompress(payload)
    del out[state.produced.value:]
    return out
