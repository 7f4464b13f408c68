"""Three-level GEMM tiling: DRAM -> PL memory -> AIE memory (Fig. 2).

A workload is padded to a multiple of the configuration's *native size*
(the AIE-level tile).  The PL holds a *PL tile* — an integer multiple
``(am, ak, an)`` of the native size per dimension — which is streamed
native-tile by native-tile into the AIE array.  C partial sums accumulate
in PL across the K dimension, so the canonical loop order is::

    for (m_tile, n_tile) in DRAM tiles of C:
        for k_tile in DRAM tiles of K:
            load A(m_tile, k_tile), B(k_tile, n_tile)   # from DRAM
            stream native tiles through the AIE array    # accumulate C
        write C(m_tile, n_tile)                          # to DRAM

which makes the DRAM traffic:

* A is re-read once per N-direction tile: ``bytes_A * ceil(N / Tn)``
* B is re-read once per M-direction tile: ``bytes_B * ceil(M / Tm)``
* C is written exactly once.

The excess over reading everything once is the *tiling overhead*
(Section IV-A); it is what pushes the Fig. 15 workloads left on the
roofline.  Larger PL tiles reduce it but must fit the usable PL memory,
double-buffered when DRAM-PL double buffering is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hw.specs import DeviceSpec, VCK5000
from repro.kernels.precision import Precision
from repro.workloads.gemm import GemmShape

#: default ceiling on each PL-tile multiple ``(am, ak, an)``
MAX_TILE_MULTIPLE = 16

#: problems searched per chunk: bounds the transient (chunk, 16, 16, 16)
#: grids of :func:`search_tilings` to a few MB regardless of batch size
_SEARCH_CHUNK = 128


@dataclass(frozen=True)
class TrafficSummary:
    """DRAM traffic of a tile plan, in bytes."""

    read_a: int
    read_b: int
    write_c: int
    minimal: int  # read A and B once, write C once

    @property
    def total(self) -> int:
        return self.read_a + self.read_b + self.write_c

    @property
    def total_reads(self) -> int:
        return self.read_a + self.read_b

    @property
    def tiling_overhead(self) -> float:
        """Ratio of actual to minimal traffic (1.0 = no overhead)."""
        return self.total / self.minimal


@dataclass(frozen=True)
class TilePlan:
    """A complete 3-level tiling decision for one workload."""

    workload: GemmShape
    native: GemmShape
    precision: Precision
    multiples: tuple[int, int, int]  # (am, ak, an): PL tile in native units
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if any(x < 1 for x in self.multiples):
            raise ValueError("PL-tile multiples must be >= 1")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def padded(self) -> GemmShape:
        return self.workload.padded_to(self.native)

    @property
    def pl_tile(self) -> GemmShape:
        am, ak, an = self.multiples
        return self.native.scaled(am, ak, an)

    @property
    def dram_tile_counts(self) -> tuple[int, int, int]:
        return self.padded.tile_counts(self.pl_tile)

    @property
    def num_dram_tiles(self) -> int:
        tm, tk, tn = self.dram_tile_counts
        return tm * tk * tn

    @property
    def pl_tiles_per_dram_tile(self) -> int:
        """Native-size tiles streamed to the AIEs per DRAM tile."""
        am, ak, an = self.multiples
        return am * ak * an

    @property
    def total_native_tiles(self) -> int:
        return self.padded.num_tiles(self.native)

    # ------------------------------------------------------------------
    # PL memory footprint
    # ------------------------------------------------------------------
    def pl_footprint_bytes(self) -> int:
        """PL buffer bytes the plan needs.

        Inputs and the C accumulator are double buffered when DRAM-PL
        double buffering is on (Section IV-A); single buffering halves
        all of them, trading overlap for capacity (Section V-G).
        """
        eb = self.precision.element_bytes
        tile = self.pl_tile
        factor = 2 if self.double_buffered else 1
        inputs = tile.bytes_a(eb) + tile.bytes_b(eb)
        output = tile.bytes_c(eb)
        return factor * (inputs + output)

    def fits(self, device: DeviceSpec = VCK5000, budget_bytes: int | None = None) -> bool:
        """Does the plan fit the usable PL memory?

        ``budget_bytes`` overrides the device default — designs with many
        PLIOs reserve part of the PL memory for per-stream FIFOs (see
        :meth:`repro.mapping.charm.CharmDesign.pl_budget_bytes`).
        """
        budget = device.pl_usable_bytes if budget_bytes is None else budget_bytes
        return self.pl_footprint_bytes() <= budget

    # ------------------------------------------------------------------
    # DRAM traffic
    # ------------------------------------------------------------------
    def traffic(self) -> TrafficSummary:
        eb = self.precision.element_bytes
        padded = self.padded
        tm, tk, tn = self.dram_tile_counts
        return TrafficSummary(
            read_a=padded.bytes_a(eb) * tn,
            read_b=padded.bytes_b(eb) * tm,
            write_c=padded.bytes_c(eb),
            minimal=padded.total_io_bytes(eb),
        )

    def effective_operational_intensity(self) -> float:
        """Ops per DRAM byte *including* tiling overhead (Fig. 15, green)."""
        return self.workload.flops / self.traffic().total

    # ------------------------------------------------------------------
    # Per-DRAM-tile transfer sizes (inputs of the analytical model)
    # ------------------------------------------------------------------
    def dram_tile_bytes(self) -> tuple[int, int, int]:
        """(A, B, C) bytes moved per DRAM-tile iteration.

        C moves only once per (m, n) tile, i.e. every ``tk``-th
        iteration; the analytical model accounts for that via
        :meth:`c_write_fraction`.
        """
        eb = self.precision.element_bytes
        tile = self.pl_tile
        return tile.bytes_a(eb), tile.bytes_b(eb), tile.bytes_c(eb)

    @property
    def c_write_fraction(self) -> float:
        """Fraction of DRAM-tile iterations that write a C tile back."""
        _, tk, _ = self.dram_tile_counts
        return 1.0 / tk


def search_tilings(
    workloads: np.ndarray,
    natives: np.ndarray,
    precision: Precision,
    double_buffered: np.ndarray,
    budget_bytes: np.ndarray,
    max_multiple: int = MAX_TILE_MULTIPLE,
    objective: Callable[[TilePlan], float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Choose PL-tile multiples for a batch of tiling problems at once.

    Row ``i`` of the ``(N, 3)`` integer arrays ``workloads`` and
    ``natives`` is one ``(m, k, n)`` problem, planned with
    ``double_buffered[i]`` against ``budget_bytes[i]`` of PL memory.
    Every ``(am, ak, an)`` cell up to ``min(max_multiple, padded //
    native)`` per dimension is scored at once: the objective (total DRAM
    traffic by default; ``objective`` evaluated on the fitting cells'
    :class:`TilePlan` objects otherwise) is minimised, fewest DRAM tiles
    breaks ties, and the first cell in ``(am, ak, an)`` loop order breaks
    the rest.  Returns ``(multiples, found)``: the ``(N, 3)`` chosen
    multiples and a mask that is False where not even ``(1, 1, 1)`` fits
    (those rows hold ``(1, 1, 1)``).
    """
    if max_multiple < 1:
        raise ValueError(f"max_multiple must be >= 1, got {max_multiple}")
    workloads = np.asarray(workloads, dtype=np.int64)
    natives = np.asarray(natives, dtype=np.int64)
    double_buffered = np.asarray(double_buffered, dtype=bool)
    budget_bytes = np.asarray(budget_bytes)
    n = workloads.shape[0]
    multiples = np.ones((n, 3), dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    for start in range(0, n, _SEARCH_CHUNK):
        rows = slice(start, min(start + _SEARCH_CHUNK, n))
        multiples[rows], found[rows] = _search_chunk(
            workloads[rows],
            natives[rows],
            precision,
            double_buffered[rows],
            budget_bytes[rows],
            max_multiple,
            objective,
        )
    return multiples, found


def _search_chunk(workloads, natives, precision, double_buffered, budget_bytes,
                  max_multiple, objective):
    """:func:`search_tilings` over one chunk of rows."""
    c = workloads.shape[0]
    eb = precision.element_bytes
    padded = -(-workloads // natives) * natives
    limits = np.minimum(max_multiple, padded // natives)
    shape = tuple(int(x) for x in limits.max(axis=0))
    am = np.arange(1, shape[0] + 1, dtype=np.int64)[None, :, None, None]
    ak = np.arange(1, shape[1] + 1, dtype=np.int64)[None, None, :, None]
    an = np.arange(1, shape[2] + 1, dtype=np.int64)[None, None, None, :]

    def per(column: np.ndarray) -> np.ndarray:
        return column[:, None, None, None]

    def cells(values: np.ndarray) -> np.ndarray:
        return np.broadcast_to(values, (c, *shape)).reshape(c, -1)

    pm, pk, pn = (per(padded[:, i]) for i in range(3))
    tile_m = per(natives[:, 0]) * am
    tile_k = per(natives[:, 1]) * ak
    tile_n = per(natives[:, 2]) * an
    # TilePlan.fits
    footprint = np.where(per(double_buffered), 2, 1) * (
        (tile_m * tile_k + tile_k * tile_n + tile_m * tile_n) * eb
    )
    valid = cells(
        (am <= per(limits[:, 0]))
        & (ak <= per(limits[:, 1]))
        & (an <= per(limits[:, 2]))
        & (footprint <= per(budget_bytes))
    )
    # TilePlan.dram_tile_counts and TilePlan.traffic
    tm = -(-pm // tile_m)
    tk = -(-pk // tile_k)
    tn = -(-pn // tile_n)
    if objective is None:
        traffic = (pm * pk * eb) * tn + (pk * pn * eb) * tm + pm * pn * eb
        score = np.where(valid, cells(traffic.astype(np.float64)), np.inf)
    else:
        score = np.full(valid.shape, np.inf)
        row, cell = np.nonzero(valid)  # loop order within each row
        score[row, cell] = [
            objective(
                TilePlan(
                    GemmShape(*workloads[i].tolist()),
                    GemmShape(*natives[i].tolist()),
                    precision,
                    (ia + 1, ik + 1, in_ + 1),
                    bool(double_buffered[i]),
                )
            )
            for i, ia, ik, in_ in zip(
                row.tolist(), *(x.tolist() for x in np.unravel_index(cell, shape))
            )
        ]
    tied = valid & (score == score.min(axis=1, keepdims=True))
    tiles = np.where(tied, cells(tm * tk * tn), np.iinfo(np.int64).max)
    # argmax finds the first cell on both keys: the one a loop with a
    # strict ``<`` keeps, since it never replaces an equal key (and cell
    # 0, i.e. (1, 1, 1), on a row where nothing fits)
    first = (tied & (tiles == tiles.min(axis=1, keepdims=True))).argmax(axis=1)
    return np.stack(np.unravel_index(first, shape), axis=1) + 1, valid.any(axis=1)


def plan_tiling(
    workload: GemmShape,
    native: GemmShape,
    precision: Precision,
    device: DeviceSpec = VCK5000,
    double_buffered: bool = True,
    objective: Callable[[TilePlan], float] | None = None,
    max_multiple: int = MAX_TILE_MULTIPLE,
    budget_bytes: int | None = None,
) -> TilePlan:
    """Choose PL-tile multiples minimising ``objective`` within PL memory.

    The default objective is total DRAM traffic (with tile count as the
    tie-breaker), which is what CHARM's DSE optimises for memory-bound
    workloads.  Raises if even the minimal (1, 1, 1) plan does not fit.
    A batch of one for :func:`search_tilings`.
    """
    budget = device.pl_usable_bytes if budget_bytes is None else budget_bytes
    multiples, found = search_tilings(
        np.array([[workload.m, workload.k, workload.n]]),
        np.array([[native.m, native.k, native.n]]),
        precision,
        np.array([double_buffered]),
        np.array([budget]),
        max_multiple,
        objective,
    )
    if not found[0]:
        minimal = TilePlan(workload, native, precision, (1, 1, 1), double_buffered)
        raise ValueError(
            f"no tile plan fits: native {native} needs "
            f"{minimal.pl_footprint_bytes()} B, budget is {budget} B"
        )
    am, ak, an = multiples[0].tolist()
    return TilePlan(workload, native, precision, (am, ak, an), double_buffered)
