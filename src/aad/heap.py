"""The process's malloc policy: freed memory stays mapped for reuse.

Every ``aad`` command sets it once, before it dispatches (``cli.main``), and
``training.train`` sets it too, for library callers. It changes no result,
only where freed memory goes.
"""

from __future__ import annotations

import ctypes
from functools import cache

__all__ = ["keep_freed_memory"]

# glibc mallopt parameters, and the most its dynamic mmap threshold ever grows to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


@cache
def keep_freed_memory() -> None:
    """Fix glibc malloc's thresholds at the ceiling of its own dynamic adjustment.

    Training frees each step's tape and gradients as soon as they are used,
    and ``aad stream`` frees about 0.9 MB of STFT temporaries per window,
    most of them while it computes the next window's frames.
    With thresholds that follow the largest block a run happens to have
    freed, malloc hands that memory back to the OS after a step or window
    and faults it in again in the next: tens of thousands of page faults per
    training run at small feature sizes, about a fifth of its time, and
    about a third of each stream window's. Fixed thresholds keep up to
    64 MiB of freed memory mapped for reuse. The setting holds for the rest
    of the process; C libraries without ``mallopt`` are left as they are.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to load by that name
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
