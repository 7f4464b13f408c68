"""Optional C kernel for the vectorized dispatch engine.

The exact earliest-finish recurrence is irreducibly sequential — each
admission updates the free time the next admission reads — and in
CPython it costs two orders of magnitude more than the arithmetic it
performs.  This module compiles it as a few dozen lines of C once per
process (system ``cc``, a temp directory, no build system) and exposes
it through :data:`dispatch_exact`.

The kernel mirrors the scan loop bit for bit at any partition width —
same ``arrival if arrival > free else free`` start rule, same strict
first-minimum winner over the ``(width, classes)`` service matrix, same
fault-segment ``limit`` / per-accelerator next-down cut conditions as
:func:`_reference_dispatch`.  The clocks are copied into a local array
and every pointer is ``restrict``, so the output stores cannot alias
them and the compiler need not reload them after each store — which is
what lets one kernel serve narrow partitions (the paper's C5+C3) as
well as wide ones.
``inf`` service entries (infeasible accelerator/class pairs) are safe:
an infinite candidate finish can never win a strict-less comparison,
and the next-down check only ever tests the winner.  Plain ``-O2``
keeps IEEE semantics (no ``-ffast-math``, no FMA contraction
opportunities in pure add/compare code), and a self-check against the
Python reference guards the build before it is trusted.

Any failure — no compiler, a compile error, a self-check mismatch —
leaves :data:`dispatch_exact` ``None``, logs the reason (also kept in
:data:`UNAVAILABLE_REASON`), and ``dispatch="auto"`` uses the portable
``table`` engine instead.  Set ``REPRO_NO_NATIVE=1`` to disable the
build explicitly (CI exercises it so the table path stays covered).
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import shutil
import subprocess
import tempfile

import numpy as np

_LOG = logging.getLogger("repro.sim.native")

_SOURCE = r"""
#include <stdint.h>

/* The exact earliest-finish loop: svc is the row-major (k, classes)
 * service matrix, nd the per-accelerator next-down array.  Winner =
 * first strict minimum finish in lane order (np.argmin semantics); any
 * lane whose start reaches `limit` cuts the segment before a commit. */
int64_t repro_dispatch_k(const double *restrict arrivals,
                         const int64_t *restrict cids,
                         const double *restrict svc, int64_t k,
                         int64_t classes, int64_t n, double limit,
                         const double *restrict nd, double *restrict state,
                         int64_t *restrict acc, double *restrict start,
                         double *restrict fin)
{
    double clock[k];
    for (int64_t i = 0; i < k; ++i)
        clock[i] = state[i];
    int64_t j = 0;
    for (; j < n; ++j) {
        double a = arrivals[j];
        int64_t c = cids[j];
        int64_t best = 0;
        double best_st = 0.0;
        double best_e = 0.0;
        int cut = 0;
        for (int64_t i = 0; i < k; ++i) {
            double f = clock[i];
            double st = a > f ? a : f;
            if (st >= limit) {
                cut = 1;
                break;
            }
            double e = st + svc[i * classes + c];
            if (i == 0 || e < best_e) {
                best = i;
                best_st = st;
                best_e = e;
            }
        }
        if (cut || best_e > nd[best])
            break;
        clock[best] = best_e;
        acc[j] = best;
        start[j] = best_st;
        fin[j] = best_e;
    }
    for (int64_t i = 0; i < k; ++i)
        state[i] = clock[i];
    return j;
}
"""

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)

_ARGTYPES = [
    _DOUBLE_P,  # arrivals
    _INT64_P,  # class ids
    _DOUBLE_P,  # (k, classes) service matrix
    ctypes.c_int64,  # k
    ctypes.c_int64,  # classes
    ctypes.c_int64,  # n
    ctypes.c_double,  # limit
    _DOUBLE_P,  # next-down per accelerator
    _DOUBLE_P,  # free clocks (in/out)
    _INT64_P,  # accelerator per request (out)
    _DOUBLE_P,  # start per request (out)
    _DOUBLE_P,  # finish per request (out)
]

#: how much of a failing compiler's stderr the unavailability reason keeps
_STDERR_TAIL = 400


def _reference_dispatch(arrivals, cids, rows, state, limit, nds):
    """Pure-Python mirror of the scan loop with the kernel's cut rules."""
    out = []
    for a, c in zip(arrivals, cids):
        starts = [a if a > f else f for f in state]
        if any(st >= limit for st in starts):
            break
        fins = [st + row[c] for st, row in zip(starts, rows)]
        best = 0
        for i in range(1, len(fins)):
            if fins[i] < fins[best]:
                best = i
        if fins[best] > nds[best]:
            break
        state[best] = fins[best]
        out.append((best, starts[best], fins[best]))
    return out


def _call(kernel, arrivals, class_ids, services, state, limit, nds):
    """Run ``kernel`` over contiguous inputs; ``(accepted, acc, start, fin)``."""
    n = arrivals.size
    acc = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.float64)
    fins = np.empty(n, dtype=np.float64)
    q = kernel(
        arrivals.ctypes.data_as(_DOUBLE_P),
        class_ids.ctypes.data_as(_INT64_P),
        services.ctypes.data_as(_DOUBLE_P),
        services.shape[0],
        services.shape[1],
        n,
        limit,
        nds.ctypes.data_as(_DOUBLE_P),
        state.ctypes.data_as(_DOUBLE_P),
        acc.ctypes.data_as(_INT64_P),
        starts.ctypes.data_as(_DOUBLE_P),
        fins.ctypes.data_as(_DOUBLE_P),
    )
    return q, acc[:q], starts[:q], fins[:q]


def _self_check(kernel) -> str | None:
    """The first case where ``kernel`` disagrees with the reference, or None."""
    inf = math.inf
    arrivals = [0.0, 0.1, 0.15, 0.2, 1.0, 1.05, 1.5, 2.0]
    cids = [0, 1, 0, 1, 0, 0, 1, 1]
    # four lanes, one infeasible (inf) entry: an infinite candidate
    # must never win a strict-less comparison
    rows = [[0.3, 0.5], [0.4, 0.5], [0.35, inf], [0.25, 0.45]]
    cases = [
        (1, inf, (inf,)),
        (1, 0.9, (0.7,)),
        (2, inf, (inf, inf)),
        (2, 1.2, (inf, inf)),
        (2, inf, (1.4, inf)),
        (2, inf, (inf, 0.6)),
        (3, inf, (inf, inf, inf)),
        (3, 1.3, (inf, inf, inf)),
        (3, inf, (inf, 0.8, inf)),
        (4, inf, (inf, inf, inf, inf)),
        (4, 1.1, (inf, inf, inf, 0.9)),
        (4, inf, (0.6, inf, inf, inf)),
    ]
    for width, limit, nds in cases:
        state = [0.05, 0.0, 0.02, 0.01][:width]
        ref_state = list(state)
        expect = _reference_dispatch(
            arrivals, cids, rows[:width], ref_state, limit, nds
        )
        clocks = np.asarray(state)
        _, acc, starts, fins = _call(
            kernel,
            np.asarray(arrivals),
            np.asarray(cids, dtype=np.int64),
            np.asarray(rows[:width]),
            clocks,
            limit,
            np.asarray(nds),
        )
        got = list(zip(acc.tolist(), starts.tolist(), fins.tolist()))
        # the committed prefix must also leave the reference's clocks
        if got != expect or clocks.tolist() != ref_state:
            return f"width {width}, limit {limit}, next-downs {nds}"
    return None


def _compile(source: str, lib_path: str) -> str | None:
    """Build ``source`` into ``lib_path``; None on success, else the reason."""
    compilers = [name for name in ("cc", "gcc", "clang") if shutil.which(name)]
    if not compilers:
        return "no C compiler found (tried cc, gcc, clang)"
    failures = []
    for compiler in compilers:
        try:
            subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", "-o", lib_path, source],
                check=True,
                capture_output=True,
                text=True,
                timeout=120,
            )
            return None
        except subprocess.CalledProcessError as exc:
            tail = (exc.stderr or "").strip()[-_STDERR_TAIL:]
            failures.append(f"{compiler} exited {exc.returncode}: {tail}")
        except (subprocess.SubprocessError, OSError) as exc:
            failures.append(f"{compiler}: {exc}")
    return "compile failed: " + "; ".join(failures)


def _build():
    """Compile and self-check the kernel: ``(kernel, None)`` or ``(None, reason)``.

    Failures are logged — a warning, except for an explicit
    ``REPRO_NO_NATIVE`` — so a host silently losing the fast path shows
    up in its logs with the cause.
    """
    if os.environ.get("REPRO_NO_NATIVE"):
        reason = "REPRO_NO_NATIVE is set"
        _LOG.info("%s: dispatch='auto' uses the table engine", reason)
        return None, reason
    tmp = None
    try:
        tmp = tempfile.mkdtemp(prefix="repro-native-")
        source = os.path.join(tmp, "dispatch.c")
        lib_path = os.path.join(tmp, "libreprodispatch.so")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(_SOURCE)
        reason = _compile(source, lib_path)
        if reason is None:
            kernel = ctypes.CDLL(lib_path).repro_dispatch_k
            kernel.restype = ctypes.c_int64
            kernel.argtypes = _ARGTYPES
            mismatch = _self_check(kernel)
            if mismatch is None:
                _LOG.info("native k-wide dispatch kernel compiled")
                return kernel, None
            reason = f"self-check mismatch against the Python reference ({mismatch})"
    except Exception as exc:  # sandboxed filesystem, unloadable library, ...
        reason = f"build error: {exc!r}"
    finally:
        # the loaded .so stays mapped; the directory entry can go
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    _LOG.warning(
        "native dispatch kernel unavailable (%s): dispatch='auto' uses the "
        "table engine (slower, same results)",
        reason,
    )
    return None, reason


_KERNEL, UNAVAILABLE_REASON = _build()

#: whether the compiled kernel passed the self-check and is in use
NATIVE_AVAILABLE = _KERNEL is not None


def _dispatch_exact_native(arrivals, class_ids, services, free, limit, nds=None):
    """Exact earliest-finish dispatch over one clean stretch.

    ``services`` is the engine's ``(width, classes)`` float64 matrix
    (any width; ``inf`` marks infeasible pairs); ``free`` is the
    mutable per-accelerator clock list, updated in place; ``nds`` the
    per-accelerator next-down array (``None`` = unconstrained).
    Returns ``(accepted, accs, starts, fins)`` — the maximal prefix
    satisfying the ``limit`` / next-down constraints, with per-request
    results bit-identical to the scan loop.
    """
    width = services.shape[0]
    state = np.asarray(free, dtype=np.float64)
    result = _call(
        _KERNEL,
        np.ascontiguousarray(arrivals, dtype=np.float64),
        np.ascontiguousarray(class_ids, dtype=np.int64),
        np.ascontiguousarray(services, dtype=np.float64),
        state,
        limit,
        np.asarray((math.inf,) * width if nds is None else nds, dtype=np.float64),
    )
    free[:] = state.tolist()
    return result


#: the compiled kernel's entry point, or ``None`` when it is unavailable
dispatch_exact = _dispatch_exact_native if NATIVE_AVAILABLE else None
