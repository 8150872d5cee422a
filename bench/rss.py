"""Peak resident memory of *this* process over a region it chooses.

``ru_maxrss`` survives ``exec`` on Linux, so a freshly launched child
of a large parent reports the parent's high-water mark before it has
allocated anything (ROADMAP open item (a)).  The kernel's per-``mm``
high-water mark does not have that problem and can be reset: writing
``5`` to ``/proc/self/clear_refs`` sets ``VmHWM`` back to the current
RSS.  ``reset_peak`` does that and says which method is in force;
``peak_mib`` reads the mark back and folds in the largest waited-for
child (rank processes are forked, so their own mark starts at their
RSS at fork time, not at an inherited peak).
"""

from __future__ import annotations

import resource
import sys

VMHWM = "vmhwm"
RU_MAXRSS = "ru_maxrss"


def _ru_maxrss_kib(who: int) -> float:
    peak = resource.getrusage(who).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    return peak / 1024 if sys.platform == "darwin" else float(peak)


def _vmhwm_kib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def reset_peak() -> str:
    """Start a measured region; returns the method ``peak_mib`` must
    be called with.  The portable fallback cannot reset anything: it
    is only honest in a fresh child of a thin parent, and results that
    used it are flagged ``rss_method: "ru_maxrss"``."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        _vmhwm_kib()
    except OSError:
        return RU_MAXRSS
    return VMHWM


def peak_mib(method: str) -> float:
    """High-water RSS in MiB since ``reset_peak``: this process, or
    its largest waited-for child if that was bigger."""
    own = (
        _vmhwm_kib()
        if method == VMHWM
        else _ru_maxrss_kib(resource.RUSAGE_SELF)
    )
    return max(own, _ru_maxrss_kib(resource.RUSAGE_CHILDREN)) / 1024
