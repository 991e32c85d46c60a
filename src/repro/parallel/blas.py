"""A BLAS thread budget for forked solve processes.

numpy and scipy each bundle an OpenBLAS (``libscipy_openblas64_``,
``libscipy_openblas``), and each starts one thread per usable CPU in
every process.  A parent that forks ``k`` solving children would run
``k · nproc`` BLAS threads on ``nproc`` CPUs, and the solves contend
instead of running side by side.  So each solving child is given a
budget of ``max(1, base // slots)`` threads, where ``base`` is the
forking process's own BLAS count: in a fresh process that is the
usable CPU count, and in a budgeted child it is the child's budget,
so the budget nests.

Only children that run solves are budgeted (executor slots, fleet
shards).  Formation children (PyMP, elastic, MPI) make BLAS calls too
small for OpenBLAS to thread, so they never start a pool by default;
capping them would force one.  The forking parent's own pool is never
touched.

The loaded OpenBLAS images are found in ``/proc/self/maps`` and their
thread setters resolved with ctypes in the parent, before it forks
(:func:`resolve`); the child only calls the C function.  Everything
here is a no-op where there is no ``/proc`` or no setter.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, NamedTuple

#: Exported thread setters, most specific first: the wheels' prefixed
#: ILP64 and LP64 builds, then plain system builds.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


class _Openblas(NamedTuple):
    """The thread setter and getter of one loaded OpenBLAS image."""

    set: Callable[[int], None]
    get: Callable[[], int]


#: Images found by the last :func:`resolve`; None until the first call.
_loaded: tuple[_Openblas, ...] | None = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, else the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _bind(path: str) -> _Openblas | None:
    """Setter/getter pair exported by the already-loaded image ``path``."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError:
        return None
    for name in _SETTERS:
        setter = getattr(lib, name, None)
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return _Openblas(setter, getter)
    return None


def resolve() -> tuple[_Openblas, ...]:
    """Find the loaded OpenBLAS images and bind their thread setters.

    Call in the parent before it forks: the children inherit the bound
    functions and never read ``/proc`` themselves.
    """
    global _loaded
    paths: dict[str, None] = {}
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in fields[5]:
                    paths[fields[5].strip()] = None
    except OSError:
        pass
    _loaded = tuple(lib for lib in map(_bind, paths) if lib is not None)
    return _loaded


def _libraries() -> tuple[_Openblas, ...]:
    return resolve() if _loaded is None else _loaded


def threads() -> int | None:
    """The largest thread count of any loaded OpenBLAS, read back now.

    None when no image with a setter is loaded.
    """
    return max((lib.get() for lib in _libraries()), default=None)


def budget(slots: int) -> int:
    """Threads each of ``slots`` forked children may use: ``base // slots``.

    ``base`` is this process's own BLAS count (the usable CPUs when no
    OpenBLAS is loaded), and the floor is 1.
    """
    return max(1, (threads() or usable_cpus()) // slots)


def apply(count: int) -> None:
    """Cap every loaded OpenBLAS at ``count`` threads (in a forked child).

    An image already at or below ``count`` is left alone: calling the
    setter with the current value re-initialises the pool OpenBLAS
    rebuilt after the fork, and its worker then spins.
    When any image is capped, ``OPENBLAS_NUM_THREADS`` is set too, so
    an image loaded later starts within the budget.
    """
    capped = False
    for lib in _libraries():
        if count < lib.get():
            lib.set(count)
            capped = True
    if capped:
        os.environ["OPENBLAS_NUM_THREADS"] = str(count)
