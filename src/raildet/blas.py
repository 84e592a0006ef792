"""The worker threads of the OpenBLAS that numpy loaded: fewer around small
products, stopped after large ones.

OpenBLAS splits a product over its threads and keeps the extra threads
spinning for ~0.1 s after every threaded call, so a second core stays busy
between images.  On a product of a few MFLOP the split gains no wall time:
:func:`single_thread` runs such a block on one thread.  A larger product
gains from the split: :func:`stop_workers_after` keeps the caller's count,
starts the workers as the block begins and stops them when it ends.
OpenBLAS would also start them again by itself at its next threaded
product, as it does after a ``fork``.

numpy's wheels bundle OpenBLAS under a suffixed name: ``numpy.libs`` on
Linux, ``numpy/.dylibs`` on macOS.  Its thread-count getter and setter, and
its worker start and shutdown, are found there by symbol name; with another
BLAS, or a numpy built without a bundled OpenBLAS, both context managers do
nothing.

Concurrency limit: the shutdown joins the workers, so it must never run
while another thread is inside a threaded OpenBLAS product.  The last
:func:`stop_workers_after` block to exit stops them, so concurrent blocks
are safe with each other; a threaded product outside any block, running
on another thread at that moment, is not.  raildet runs threads only in
``preprocess``, which calls no BLAS.
"""
from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

# (getter, setter) names: numpy >= 2 wheels (scipy-openblas), then numpy 1.x
# wheels (64-bit-integer OpenBLAS)
SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)
# (start, shutdown) of the worker threads: numpy 2.4's OpenBLAS 0.3.31
# exports them unprefixed
WORKERS = ("blas_thread_init", "blas_thread_shutdown_")

_lock = threading.Lock()
_holders = 0  # inside single_thread()
_saved = 1
_stoppers = 0  # inside stop_workers_after()


class Api(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]
    # both None unless both worker symbols are found
    start: Callable[[], int] | None
    stop: Callable[[], int] | None


@cache
def _api() -> Api | None:
    """The bundled OpenBLAS's thread-count and worker functions, or None."""
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
                    start, stop = (getattr(lib, name, None) for name in WORKERS)
                    if start is None or stop is None:
                        start = stop = None
                    else:
                        start.argtypes, start.restype = [], ctypes.c_int
                        stop.argtypes, stop.restype = [], ctypes.c_int
                    return Api(get, set_, start, stop)
    return None


def found() -> bool:
    """Whether the thread-count setter of numpy's OpenBLAS was found."""
    return _api() is not None


def workers_found() -> bool:
    """Whether the worker start and shutdown of numpy's OpenBLAS were found."""
    api = _api()
    return api is not None and api.stop is not None


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
    get, set_ = api.get, api.set
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


@contextmanager
def stop_workers_after() -> Iterator[None]:
    """Run the block on the caller's thread count, then stop the workers.

    The workers are started on entry, so that they are running by the
    block's first product instead of starting inside it.  The last block to
    exit stops them, also on an exception, so blocks may nest and overlap
    across threads.  Nothing is started or stopped while a
    :func:`single_thread` holder is inside or when the count is 1, and
    nothing at all without the worker symbols.
    """
    api = _api()
    if api is None or api.stop is None:
        yield
        return
    global _stoppers
    with _lock:
        _stoppers += 1
        if _holders == 0 and api.get() > 1:
            api.start()  # returns at once when they are running
    try:
        yield
    finally:
        with _lock:
            _stoppers -= 1
            if _stoppers == 0 and _holders == 0 and api.get() > 1:
                api.stop()
