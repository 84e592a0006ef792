"""The thread count of the OpenBLAS that numpy loaded, lowered around small products.

OpenBLAS splits a product over its threads and keeps the extra threads
spinning between calls.  On a product of a few MFLOP the split gains no wall
time, and the spinning thread doubles the CPU time of an image.

numpy's wheels bundle OpenBLAS under a suffixed name: ``numpy.libs`` on
Linux, ``numpy/.dylibs`` on macOS.  Its thread-count getter and setter are
found there by symbol name; with another BLAS, or a numpy built without a
bundled OpenBLAS, :func:`single_thread` does nothing.
"""
from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# (getter, setter) names: numpy >= 2 wheels (scipy-openblas), then numpy 1.x
# wheels (64-bit-integer OpenBLAS)
SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)

_lock = threading.Lock()
_holders = 0
_saved = 1


@cache
def _api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The bundled OpenBLAS's (get, set) thread-count functions, or None."""
    package = Path(np.__file__).resolve().parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in SYMBOLS:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def found() -> bool:
    """Whether the thread-count setter of numpy's OpenBLAS was found."""
    return _api() is not None


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block on one BLAS thread, then restore the caller's count.

    The count is only ever lowered: a caller already on one thread (say,
    ``OPENBLAS_NUM_THREADS=1``) keeps it.  The count is process-wide, so
    the first holder lowers it and the last one to leave restores it,
    whichever threads they run on; blocks may nest.
    """
    api = _api()
    if api is None:
        yield
        return
    get, set_ = api
    global _holders, _saved
    with _lock:
        if _holders == 0:
            _saved = get()
            if _saved > 1:
                set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _saved > 1:
                set_(_saved)
