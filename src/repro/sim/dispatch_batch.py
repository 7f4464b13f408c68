"""Batch earliest-finish dispatch through the native k-wide kernel.

The scalar engines in :mod:`repro.sim.serving` retire one request per
loop iteration; at a million requests the interpreter overhead dwarfs
the arithmetic.  This module hands whole stretches of the SoA trace to
the compiled exact loop in :mod:`repro.sim._native`, which makes the
scan's decisions bit for bit at any partition width:

* :func:`dispatch_vectorized` — a fault-free trace, flushed in exact
  ``chunk_size`` blocks, the same boundaries the scalar engines flush
  at, so streaming summaries stay bit-identical;
* :func:`dispatch_segment` — one fault segment (the stretch between
  two schedule transitions, clean or degraded), cut where the scalar
  fault loop must take over.

Both need the kernel.  Without it (:func:`native_available` is False)
``dispatch="auto"`` runs the portable ``table`` engine and an explicit
``dispatch="vectorized"`` fails through :func:`require_native` — never
a silent fallback.
"""

from __future__ import annotations

import math

from repro.sim import _native

# the pure-Python mirror the kernel is checked against
from repro.sim._native import _reference_dispatch  # noqa: F401
from repro.sim._native import dispatch_exact as _native_dispatch


def native_available() -> bool:
    """Whether the compiled exact loop is in use (read dynamically, so
    tests that monkeypatch :data:`_native_dispatch` flip this too)."""
    return _native_dispatch is not None


def require_native(dispatch: str) -> None:
    """Raise the ``ValueError`` an explicit ``dispatch`` mode gets when
    the kernel is unavailable, naming the reason."""
    if _native_dispatch is None:
        reason = _native.UNAVAILABLE_REASON or "disabled in this process"
        raise ValueError(
            f"dispatch={dispatch!r} needs the native k-wide dispatch kernel, "
            f"which is unavailable ({reason}); use dispatch='auto' or "
            f"'table' for the portable engine"
        )


def dispatch_vectorized(arrivals, class_ids, services, free, flush, chunk_size):
    """Dispatch a fault-free trace through the kernel.

    ``services`` is a ``(width, classes)`` float64 matrix with ``inf``
    marking infeasible pairs; ``free`` is the mutable per-accelerator
    clock list shared with the scalar engines.  Each ``chunk_size``
    block is one kernel call followed by ``flush(base, accs, starts,
    fins)`` with NumPy arrays.
    """
    n = int(arrivals.size)
    for lo in range(0, n, chunk_size):
        hi = lo + chunk_size
        accepted, accs, starts, fins = _native_dispatch(
            arrivals[lo:hi], class_ids[lo:hi], services, free, math.inf
        )
        size = min(hi, n) - lo
        if accepted < size:
            # only an infinite finish can stop an unbounded chunk; the
            # service specs reject those, so this is a broken invariant
            raise RuntimeError(
                f"dispatch kernel accepted {accepted} of {size} requests "
                f"in the chunk at {lo} (infinite service time?)"
            )
        flush(lo, accs, starts, fins)


def dispatch_segment(times, class_ids, services, free, limit, next_downs):
    """Dispatch one fault segment (all times below ``limit``, the next
    transition); used by the fault loop between transitions.

    ``services`` is the segment's window state as a service matrix
    (``inf`` for down or unresolvable lanes).  ``next_downs[order]`` is the first down-window start after the
    segment opens (``inf`` when none): any admission whose start would
    reach ``limit`` or whose finish would cross its accelerator's next
    down window is left to the scalar fault loop, which owns the kill
    and requeue bookkeeping.  Returns ``(accepted, accs, starts, fins)``
    for the dispatched prefix.
    """
    return _native_dispatch(times, class_ids, services, free, limit, next_downs)
