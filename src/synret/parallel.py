"""Process-wide native settings, and the pool that runs a gallery's chunks.

OpenBLAS's thread count and glibc's malloc settings belong to the process,
not to a caller: each is reached through `ctypes`, and where its symbol is
missing the setting is left alone. numpy's OpenBLAS is found through the
extension module that links it.

`in_order` runs one call per chunk on a few threads. numpy releases the
interpreter lock inside its array loops and BLAS, so chunks overlap there.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

_M_ARENA_MAX = -8  # mallopt's parameter number, from glibc's malloc.h


def _symbol(library: str | None, name: str, argtypes: list, restype):
    try:
        fn = getattr(ctypes.CDLL(library), name)
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


try:
    from numpy._core import _multiarray_umath as _links_blas
except ImportError:  # numpy 1.x: searched for in the process's global symbols
    _links_blas = None
_BLAS = getattr(_links_blas, "__file__", None)

malloc_trim = _symbol("libc.so.6", "malloc_trim", [ctypes.c_size_t], ctypes.c_int)
_mallopt = _symbol("libc.so.6", "mallopt", [ctypes.c_int, ctypes.c_int], ctypes.c_int)
_blas_get = _symbol(_BLAS, "scipy_openblas_get_num_threads64_", [], ctypes.c_int)
_blas_set = _symbol(_BLAS, "scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
BLAS_PINNABLE = _blas_get is not None and _blas_set is not None


@contextmanager
def blas_threads(n: int):
    """OpenBLAS runs on `n` threads inside the block and on as many as before
    after it. The count is process-wide: a block entered while another
    thread's is open changes that thread's BLAS calls too. A GEMM can round
    differently at another thread count, so code whose bytes must not depend
    on the machine runs inside `blas_threads(1)`. Nothing happens where the
    count cannot be set, or when it is `n` already."""
    before = _blas_get() if BLAS_PINNABLE else n
    if before == n:
        yield
        return
    _blas_set(n)
    try:
        yield
    finally:
        _blas_set(before)


def usable_cpus() -> int:
    """The CPUs this process may run on (`taskset` narrows them)."""
    return len(os.sched_getaffinity(0))


def in_order(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items] on up to `workers` threads, through
    `ThreadPoolExecutor.map`: the results come back in item order, and the
    error raised is that of the first item that failed, in item order, so
    neither depends on `workers`; items not yet started when it is raised
    are cancelled. Each call runs in its own copy of the caller's context,
    taken on the caller's thread, where numpy keeps its error state
    (`np.errstate`): a new thread would otherwise start from the defaults.

    BLAS is held to one thread, on one worker too, so that the workers do
    not oversubscribe the cores and no byte depends on the count; where it
    cannot be held, the calls run on the caller's thread, one after another.
    Before the first thread starts, glibc is held to one malloc arena: each
    thread would otherwise get an arena of its own, and the memory they keep
    after the calls return would add to the peak of what the process runs next."""
    workers = min(workers, len(items))
    if workers <= 1 or not BLAS_PINNABLE:
        with blas_threads(1):
            return [fn(item) for item in items]
    if _mallopt is not None:
        _mallopt(_M_ARENA_MAX, 1)
    contexts = [contextvars.copy_context() for _ in items]
    with blas_threads(1), ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda context, item: context.run(fn, item), contexts, items))
