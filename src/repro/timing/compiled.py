"""Level-compiled array program for the vectorized STA engine.

The reference engine in :mod:`repro.timing.sta` is vectorized over Monte
Carlo samples but still walks the netlist gate by gate in Python: for an
ISCAS-scale circuit that is thousands of interpreter iterations, dict
lookups and small-array temporaries per run — and it dominates the
wall-clock of the paper's Table 1 / Fig. 6 experiments ahead of the
(disk-cached) eigensolve.

This module flattens the levelized netlist **once, at compile time** into
contiguous numpy arrays so that :meth:`CompiledTimingProgram.execute`
evaluates an entire topological level with a handful of batched array
operations:

- **gather** the level's fanin arrivals/slews from a slot arena with
  precomputed integer indices,
- **affine** delay/slew evaluation from packed per-gate model coefficient
  columns (extracted from :class:`~repro.timing.library.GateTimingModel`
  via :func:`~repro.timing.library.pack_gate_models`), broadcast over
  fanin-width groups,
- **statistical scale** via the rank-one projection ``u = wᵀp``
  (``1 + k₁u + k₂u²``, clipped like the reference), folded into the
  per-gate affine coefficients,
- **fanin max** over each gate's pins with a masked strictly-greater
  update over the fanin axis — bitwise the same winner as the reference
  loop's sequential ``if arrival > best`` update — so the output slew
  follows the winning pin,
- **scatter** the level's outputs back into the arena.

Performance comes from four structural decisions:

1. **Sample blocking.**  ``execute`` streams the sample axis in blocks
   sized (``BLOCK_BYTE_BUDGET``) so the arenas, the per-level
   temporaries and the per-block ``u`` projection all stay
   cache-resident; every sample matrix element is read from main memory
   exactly once.  Per-sample results are independent, so blocked and
   unblocked runs are bitwise identical.
2. **Fused projection.**  Each parameter arrives as a value matrix plus
   an optional gate→column map: per-gate ``(N, N_g)`` samples (no map,
   the identity) or Algorithm 2's ``(N, n_t)`` triangle values with each
   gate's containing-triangle column (the MLMC levels hand their
   triangle values over the same way).  The native kernel computes
   ``u = Σ_j w_j p_j[col_j]`` itself, per gate and lane, from a packed
   ``(K, B)`` block — every parameter's ``K_j`` value columns side by
   side, each column's ``B`` sample lanes contiguous like the arenas —
   and the per-row column/weight tables (``u_col``/``u_w``) that
   :meth:`CompiledTimingProgram._pack_images` writes into the kernel's
   program images once per :meth:`~CompiledTimingProgram.execute`
   call, next to the slot schedule and the gate coefficients.  The
   projection therefore threads with the lanes and stays bitwise under
   every lane partition.  Neither the gathered ``(N, N_g)`` samples nor
   ``u`` is ever materialized; the gather costs 4 loads per gate per
   sample (Algorithm 2 reads ``4·n_t`` values per sample instead of
   ``4·N_g``).  ``sta_run`` validates both images and every buffer
   length before it starts, so a mis-sized table or arena is a
   :class:`~repro.timing.native.NativeKernelError`, not memory
   corruption.  The numpy path gathers each block's columns with
   ``np.take`` and accumulates ``u`` per block, bitwise as on
   pre-gathered samples.
3. **Fanin grouping.**  Gates within a level are reordered by fanin
   count so each group is a regular ``(N_b, G, k)`` reshape *view*
   (no ragged segments, no ``reduceat``), and per-gate coefficients
   broadcast along the fanin axis with zero gather copies.
4. **Zero allocation in the hot loop.**  A fresh >128 KiB numpy
   temporary is an ``mmap`` + page-fault round trip (~10× the cost of
   the arithmetic at these sizes), so every per-level array — pin
   temporaries, scale factors, winner masks — is a view of a scratch
   buffer allocated once per ``execute`` and every ufunc writes through
   ``out=``; gathers use ``np.take(..., out=...)``.

Memory: the arrival/slew arenas are indexed by *slot*, not net.  The slot
schedule is computed at compile time by simulating the traversal with
per-net refcounts (a net's slot is released after its last fanin read and
reused by later levels), so the arena width is the peak number of live
nets — the same reclamation the reference engine does with dict pops,
but with zero per-sample bookkeeping at run time.  ``keep_all_arrivals``
switches to an identity (net-indexed) schedule.

The wire-variation extension compiles the same way: per-pin
``R·C_wire/2`` and ``R·C_pin`` constants plus per-pin *net column*
indices turn the reference's per-pin closures into gathers from the
``(N, num_nets)`` scale matrices.

Differential testing: the statistical scale is distributed over the
affine delay coefficients (one multiply instead of three), so compiled
results match the reference to floating-point reassociation error — the
test suite asserts ``rtol=1e-12`` across circuits, modes and chunkings;
chunked and unchunked compiled runs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.levelize import LevelizedCircuit
from repro.circuit.netlist import Netlist
from repro.timing import native
from repro.timing.library import GateTimingModel, pack_gate_models
from repro.timing.wire import LN9, WireModel, pack_wire_models

#: Byte budget for the per-block working set (the ``(N_b, N_g)``
#: projection accumulator plus both arenas).  Kept well under typical
#: last-level cache sizes so the hot loop runs out of cache instead of
#: main memory; the sample matrices themselves are streamed and never
#: counted against the budget.
BLOCK_BYTE_BUDGET = 96 * 1024 * 1024

#: Byte budget for the native kernel's per-block working set: the packed
#: ``(K, N_b)`` value block (``K`` = summed value columns, ``4·n_t`` for
#: Algorithm 2, ``4·N_g`` for per-gate samples), both arenas and the
#: per-worker scratch.  The program images (slot schedule, coefficients,
#: ``u_col``/``u_w``) are read once per gate, not per lane, and are not
#: counted.  Much tighter than the numpy budget: the kernel
#: reads each gate's value columns at scattered offsets, so the packed
#: block should stay cache-resident.  On s15850/N=2000 (2-core Xeon,
#: 4 MiB L2 per core) the Algorithm 2 sweep was flat within run-to-run
#: noise from 1 to 24 MiB.  With ``T`` kernel threads the budget is
#: divided by ``T``: each worker owns ``1/T`` of the block's lanes plus
#: a private scratch block, and the per-core caches it runs out of don't
#: grow with the team size.
NATIVE_BLOCK_BYTE_BUDGET = 12 * 1024 * 1024

#: One parameter's input to :meth:`CompiledTimingProgram.execute`:
#: ``(values, columns, weights)`` — an ``(N, K)`` value matrix, the
#: ``(N_g,)`` int64 gate→column map into it (``None`` for per-gate
#: ``(N, N_g)`` values) and the per-gate sensitivity weight column.
ParameterTerm = Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FaninGroup:
    """Gates of one level that share a fanin count ``k``.

    ``gate_start:gate_end`` slices the level's gate-indexed arrays;
    ``pin_start:pin_end`` slices its pin-indexed arrays, and because the
    group's pins are a contiguous run of ``(gate_end-gate_start) × k``
    entries, a pin array slice reshapes to ``(N_b, G, k)`` as a view.
    """

    fanin: int
    gate_start: int
    gate_end: int
    pin_start: int
    pin_end: int


@dataclass(frozen=True)
class CompiledLevel:
    """One topological level, flattened to contiguous arrays.

    Gate-indexed arrays have shape ``(W,)`` (level width, gates ordered
    by fanin group); pin-indexed arrays have shape ``(P,)`` (total fanin
    pins of the level, grouped per gate).
    """

    gate_ids: np.ndarray        # (W,) indices into netlist.gates (u gather)
    out_cols: np.ndarray        # (W,) net column of each gate's output
    out_slots: np.ndarray       # (W,) arena slot (compact schedule)
    groups: Tuple[FaninGroup, ...]
    pin_cols: np.ndarray        # (P,) net column of each pin's source net
    pin_slots: np.ndarray       # (P,) arena slot of the source net (compact)
    pin_gate: np.ndarray        # (P,) level-local gate position of each pin
    pin_wire_delay: np.ndarray  # (P,) nominal Elmore delay constants
    pin_step2: np.ndarray       # (P,) squared Bakoglu slew steps (ln9·t)²
    pin_rc_half: np.ndarray     # (P,) R·C_wire/2 split term
    pin_r_pin: np.ndarray       # (P,) R·C_pin split term
    pin_d_slew: np.ndarray      # (P,) d_slew of the pin's gate
    pin_s_slew: np.ndarray      # (P,) s_slew of the pin's gate
    pin_base_delay: np.ndarray  # (P,) base_delay of the pin's gate
    pin_base_slew: np.ndarray   # (P,) base_slew of the pin's gate
    d0: np.ndarray              # (W,) affine model coefficients
    d_slew: np.ndarray
    d_load: np.ndarray
    s0: np.ndarray
    s_slew: np.ndarray
    s_load: np.ndarray
    k1: np.ndarray              # (W,) statistical delay coefficients
    k2: np.ndarray
    m1: np.ndarray              # (W,) statistical slew coefficients
    m2: np.ndarray
    total_cap: np.ndarray       # (W,) nominal driver load
    pin_cap: np.ndarray         # (W,) device-pin share of the load
    wire_cap: np.ndarray        # (W,) metal share of the load
    base_delay: np.ndarray      # (W,) d0 + d_load·total_cap (nominal load)
    base_slew: np.ndarray       # (W,) s0 + s_load·total_cap


@dataclass(frozen=True)
class CompiledRunOutput:
    """Raw arrays produced by one :meth:`CompiledTimingProgram.execute`."""

    end_arrivals: Dict[str, np.ndarray]
    worst_delay: np.ndarray
    num_samples: int


def _view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Contiguous ``(rows, cols)`` view of a flat scratch buffer."""
    return buffer[: rows * cols].reshape(rows, cols)


def _image(
    header: Sequence[int],
    sections: Dict[str, np.ndarray],
    order: Sequence[str],
    dtype: type,
) -> np.ndarray:
    """One native program image: ``header``, the offset of each section
    in ``order``, then those sections back to back (the layout
    ``sta_kernel.c`` reads)."""
    parts = [sections[name] for name in order]
    start = len(header) + len(parts)
    sizes = [part.size for part in parts]
    image = np.empty(start + sum(sizes), dtype=dtype)
    image[: len(header)] = header
    image[len(header) : start] = start + np.cumsum([0] + sizes[:-1])
    np.concatenate(parts, out=image[start:])
    return image


class _Scratch:
    """Flat scratch buffers reused by every level of every sample block.

    Allocating per-level temporaries costs more than computing on them
    (>128 KiB numpy allocations are ``mmap`` + page faults), so one pool
    sized for the widest level is allocated per :meth:`execute` call and
    sliced down with :func:`_view`.  Only the leading ``rows × width``
    elements of each buffer are ever touched, so the cache footprint
    tracks the *current* level, not the widest one.
    """

    def __init__(
        self,
        block: int,
        max_pins: int,
        max_gates: int,
        num_ends: int,
        *,
        statistical: bool,
        wire: bool,
    ):
        pins = block * max(max_pins, 1)
        gates = block * max(max_gates, 1)
        self.pin_a = np.empty(pins)      # pin arrival → candidate arrival
        self.pin_s = np.empty(pins)      # pin slew → delay contribution
        self.pin_d = np.empty(pins)      # wire-delay / output-slew scratch
        self.best_a = np.empty(gates)    # winning arrival per gate
        self.best_s = np.empty(gates)    # winning slew per gate
        self.mask = np.empty(gates, dtype=bool)
        self.ends = np.empty(block * max(num_ends, 1))
        if wire:
            self.pin_r = np.empty(pins)
            self.pin_c = np.empty(pins)
        if statistical or wire:
            # Pin-expanded per-sample factors (scales or scaled affine
            # coefficients) and per-gate intermediates.
            self.pin_t1 = np.empty(pins)
            self.pin_t2 = np.empty(pins)
            self.g_u = np.empty(gates)
            self.g_uu = np.empty(gates)
            self.g_t = np.empty(gates)
            self.g_scd = np.empty(gates)
            self.g_scs = np.empty(gates)
            self.g_bd = np.empty(gates)
            self.g_bs = np.empty(gates)


class CompiledTimingProgram:
    """A placed netlist compiled to per-level array operations.

    Parameters
    ----------
    netlist / levelized:
        The circuit and its topological levelization.
    models:
        Per-gate timing models in ``netlist.gates`` order.
    wires:
        Net name → precomputed :class:`~repro.timing.wire.WireModel`.
    net_order:
        Net column convention (the engine's :meth:`STAEngine.net_order`),
        shared with the ``wire_scales`` matrices.
    """

    def __init__(
        self,
        netlist: Netlist,
        levelized: LevelizedCircuit,
        models: Sequence[GateTimingModel],
        wires: Dict[str, WireModel],
        net_order: Sequence[str],
    ):
        self.netlist = netlist
        self.levelized = levelized
        self.net_order = list(net_order)
        self.num_nets = len(self.net_order)
        self._packed_models = pack_gate_models(models)
        self._packed_wires = pack_wire_models(wires, self.net_order)
        net_col = {net: i for i, net in enumerate(self.net_order)}
        gate_row = {g.name: i for i, g in enumerate(netlist.gates)}

        # Flat per-(gate, pin) wire indices: slot k of a net's sink list
        # lives at packed.sink_offset[net_col] + k.
        pin_flat: Dict[Tuple[str, int], int] = {}
        pin_col: Dict[Tuple[str, int], int] = {}
        for col, net in enumerate(self.net_order):
            offset = int(self._packed_wires.sink_offset[col])
            for slot, (gate, pin) in enumerate(netlist.sinks_of(net)):
                pin_flat[(gate.name, pin)] = offset + slot
                pin_col[(gate.name, pin)] = col

        # Group the topological order into levels, preserving gate order,
        # then stably reorder each level by fanin count so every fanin
        # group is a regular (G, k) block.
        level_groups: Dict[int, List] = {}
        for gate in levelized.gates_in_order:
            level_groups.setdefault(
                levelized.level_of_gate[gate.name], []
            ).append(gate)

        # --- compact slot schedule -------------------------------------
        # Reference semantics: a net's array is released once its last
        # combinational fanin pin has read it, unless it is a timing end
        # point.  Slots freed by a level's reads become reusable only at
        # the *next* level (level-barrier semantics): a level's output
        # slots then never alias a slot still being read by that level,
        # which keeps the schedule valid both for the array path (gather
        # everything, then scatter) and for the native kernel's
        # gate-sequential evaluation.
        reads_left: Dict[int, int] = {}
        for gates in level_groups.values():
            for gate in gates:
                for net in gate.inputs:
                    col = net_col[net]
                    reads_left[col] = reads_left.get(col, 0) + 1
        end_cols = {net_col[n] for n in levelized.end_nets}
        slot_of = np.full(self.num_nets, -1, dtype=np.int64)
        free_slots: List[int] = []
        pending_free: List[int] = []
        slot_counter = 0

        def allocate(col: int) -> int:
            nonlocal slot_counter
            if free_slots:
                slot = free_slots.pop()
            else:
                slot = slot_counter
                slot_counter += 1
            slot_of[col] = slot
            return slot

        pi_cols = np.array(
            [net_col[n] for n in netlist.primary_inputs], dtype=np.int64
        )
        pi_slots = np.array(
            [allocate(int(c)) for c in pi_cols], dtype=np.int64
        )

        dffs = netlist.sequential_gates()
        dff_out_cols = np.array(
            [net_col[d.output] for d in dffs], dtype=np.int64
        )
        dff_out_slots = np.array(
            [allocate(int(c)) for c in dff_out_cols], dtype=np.int64
        )
        dff_gate_ids = np.array(
            [gate_row[d.name] for d in dffs], dtype=np.int64
        )

        packed = self._packed_models
        pw = self._packed_wires
        levels: List[CompiledLevel] = []
        for level_key in sorted(level_groups):
            gates = sorted(
                level_groups[level_key], key=lambda g: g.num_inputs
            )
            gate_ids = np.array(
                [gate_row[g.name] for g in gates], dtype=np.int64
            )
            out_cols = np.array(
                [net_col[g.output] for g in gates], dtype=np.int64
            )
            flat_pins: List[int] = []
            cols: List[int] = []
            slots: List[int] = []
            groups: List[FaninGroup] = []
            for pos, gate in enumerate(gates):
                fanin = gate.num_inputs
                if not groups or groups[-1].fanin != fanin:
                    groups.append(
                        FaninGroup(fanin, pos, pos, len(flat_pins), 0)
                    )
                for pin, net in enumerate(gate.inputs):
                    key = (gate.name, pin)
                    flat_pins.append(pin_flat[key])
                    col = pin_col[key]
                    cols.append(col)
                    slots.append(int(slot_of[col]))
                    reads_left[col] -= 1
                    if reads_left[col] == 0 and col not in end_cols:
                        pending_free.append(int(slot_of[col]))
                groups[-1] = FaninGroup(
                    fanin,
                    groups[-1].gate_start,
                    pos + 1,
                    groups[-1].pin_start,
                    len(flat_pins),
                )
            out_slots = np.array(
                [allocate(int(c)) for c in out_cols], dtype=np.int64
            )
            free_slots.extend(pending_free)
            pending_free.clear()
            flat = np.array(flat_pins, dtype=np.int64)
            wire_delay = pw.sink_delay_ps[flat]
            step = LN9 * wire_delay
            total_cap = pw.total_cap_ff[out_cols]
            d0 = packed.d0[gate_ids]
            d_load = packed.d_load[gate_ids]
            s0 = packed.s0[gate_ids]
            s_load = packed.s_load[gate_ids]
            d_slew = packed.d_slew[gate_ids]
            s_slew = packed.s_slew[gate_ids]
            base_delay = d0 + d_load * total_cap
            base_slew = s0 + s_load * total_cap
            pin_gate = np.repeat(
                np.arange(len(gates), dtype=np.int64),
                [g.num_inputs for g in gates],
            )
            levels.append(
                CompiledLevel(
                    gate_ids=gate_ids,
                    out_cols=out_cols,
                    out_slots=out_slots,
                    groups=tuple(groups),
                    pin_cols=np.array(cols, dtype=np.int64),
                    pin_slots=np.array(slots, dtype=np.int64),
                    pin_gate=pin_gate,
                    pin_wire_delay=wire_delay,
                    pin_step2=step * step,
                    pin_rc_half=pw.sink_rc_half[flat],
                    pin_r_pin=pw.sink_r_pin[flat],
                    pin_d_slew=d_slew[pin_gate],
                    pin_s_slew=s_slew[pin_gate],
                    pin_base_delay=base_delay[pin_gate],
                    pin_base_slew=base_slew[pin_gate],
                    d0=d0,
                    d_slew=d_slew,
                    d_load=d_load,
                    s0=s0,
                    s_slew=s_slew,
                    s_load=s_load,
                    k1=packed.k1[gate_ids],
                    k2=packed.k2[gate_ids],
                    m1=packed.m1[gate_ids],
                    m2=packed.m2[gate_ids],
                    total_cap=total_cap,
                    pin_cap=pw.pin_cap_ff[out_cols],
                    wire_cap=pw.wire_cap_ff[out_cols],
                    base_delay=base_delay,
                    base_slew=base_slew,
                )
            )
        self.levels = levels
        self.num_slots = slot_counter
        self._pi_cols = pi_cols
        self._pi_slots = pi_slots

        # --- flattened program for the native kernel --------------------
        # Concatenate the per-level arrays in level-major, gate-major
        # order (pins grouped per gate), which is exactly the traversal
        # order of sta_kernel.c's sequential pin counter.
        def _cat(parts: List[np.ndarray], dtype: type) -> np.ndarray:
            if parts:
                return np.concatenate(parts).astype(dtype, copy=False)
            return np.zeros(0, dtype=dtype)

        self._k_fanin = _cat(
            [
                np.bincount(lv.pin_gate, minlength=lv.gate_ids.size)
                for lv in levels
            ],
            np.int64,
        )
        self._k_out_slot = _cat([lv.out_slots for lv in levels], np.int64)
        self._k_out_col = _cat([lv.out_cols for lv in levels], np.int64)
        self._k_gid = _cat([lv.gate_ids for lv in levels], np.int64)
        self._k_bd = _cat([lv.base_delay for lv in levels], np.float64)
        self._k_dsl = _cat([lv.d_slew for lv in levels], np.float64)
        self._k_bs = _cat([lv.base_slew for lv in levels], np.float64)
        self._k_ssl = _cat([lv.s_slew for lv in levels], np.float64)
        self._k_k1 = _cat([lv.k1 for lv in levels], np.float64)
        self._k_k2 = _cat([lv.k2 for lv in levels], np.float64)
        self._k_m1 = _cat([lv.m1 for lv in levels], np.float64)
        self._k_m2 = _cat([lv.m2 for lv in levels], np.float64)
        self._k_p_slot = _cat([lv.pin_slots for lv in levels], np.int64)
        self._k_p_col = _cat([lv.pin_cols for lv in levels], np.int64)
        self._k_p_wd = _cat(
            [lv.pin_wire_delay for lv in levels], np.float64
        )
        self._k_p_step2 = _cat([lv.pin_step2 for lv in levels], np.float64)
        self._num_pins = int(self._k_fanin.sum())
        #: Whether the most recent :meth:`execute` used the native
        #: kernel (for benchmark reporting); ``None`` before any run.
        self.last_run_native: Optional[bool] = None
        self._dff_out_cols = dff_out_cols
        self._dff_out_slots = dff_out_slots
        self._dff_gate_ids = dff_gate_ids
        # Netlist gate index of each kernel projection row: the DFFs,
        # then the scheduled gates — the row order of the u_col / u_w
        # tables sta_kernel.c walks.
        self._proj_gid = np.concatenate([dff_gate_ids, self._k_gid])
        self._dff_d0 = packed.d0[dff_gate_ids]
        self._dff_d_load = packed.d_load[dff_gate_ids]
        self._dff_s0 = packed.s0[dff_gate_ids]
        self._dff_s_load = packed.s_load[dff_gate_ids]
        self._dff_k1 = packed.k1[dff_gate_ids]
        self._dff_k2 = packed.k2[dff_gate_ids]
        self._dff_m1 = packed.m1[dff_gate_ids]
        self._dff_m2 = packed.m2[dff_gate_ids]
        self._dff_total_cap = pw.total_cap_ff[dff_out_cols]
        self._dff_pin_cap = pw.pin_cap_ff[dff_out_cols]
        self._dff_wire_cap = pw.wire_cap_ff[dff_out_cols]
        self._dff_dnom = self._dff_d0 + self._dff_d_load * self._dff_total_cap
        self._dff_snom = self._dff_s0 + self._dff_s_load * self._dff_total_cap
        # Unique end nets, first-appearance order (matches the reference
        # result dict, which deduplicates implicitly).
        unique_ends = list(dict.fromkeys(levelized.end_nets))
        self._end_names = unique_ends
        self._end_cols = np.array(
            [net_col[n] for n in unique_ends], dtype=np.int64
        )
        self._end_slots = slot_of[self._end_cols]

    def resident_bytes(self) -> int:
        """Approximate bytes held resident by this compiled program.

        Sums the numpy arrays owned directly by the program, its levels,
        and the packed model/wire tables.  Execution arenas and scratch
        are allocated per :meth:`execute` call and are *not* counted —
        this is the steady-state cost of keeping the artifact warm, which
        the service's artifact registry reports for eviction accounting.
        """
        total = 0
        containers: List[object] = [self, self._packed_models, self._packed_wires]
        containers.extend(self.levels)
        for container in containers:
            for value in vars(container).values():
                if isinstance(value, np.ndarray):
                    total += int(value.nbytes)
        return total

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def block_size(
        self, num_samples: int, width: Optional[int] = None
    ) -> int:
        """Cache-friendly sample block size for this circuit.

        The per-block working set is the ``u`` projection accumulator
        (``2 × N_g`` doubles per sample, with its build temporary) plus
        the two arenas (``2 × width``); per-level scratch only adds the
        current level's width on top.  The block is sized so that set
        fits in :data:`BLOCK_BYTE_BUDGET`.
        """
        if width is None:
            width = self.num_slots
        per_sample = 8 * (
            2 * self._packed_models.num_gates + 2 * max(width, 1) + 64
        )
        return max(32, min(num_samples, BLOCK_BYTE_BUDGET // per_sample))

    def _native_block_size(
        self,
        num_samples: int,
        width: int,
        threads: int = 1,
        value_columns: int = 0,
    ) -> int:
        """Sample block size for the native kernel (see the budget note).

        The per-sample working set is the lane's ``K`` packed values
        (``value_columns``, every parameter's columns side by side), its
        arena slots and its share of the scratch.
        ``threads`` divides the byte budget so each worker's share of
        the block — its lane slice of the arenas and values, plus its
        private ``4 × B`` scratch block — still fits the per-core cache
        it actually runs out of.
        """
        per_sample = 8 * (
            max(value_columns, 0)
            + 2 * max(width, 1)
            + 4 * max(threads, 1)
            + 4
        )
        budget = NATIVE_BLOCK_BYTE_BUDGET // max(threads, 1)
        # Whole 64-byte lines per arena row: the kernel cuts the lane
        # partition at line boundaries, which needs every row to share
        # the base's line phase.
        lanes = budget // per_sample // 8 * 8
        return max(32, min(num_samples, lanes))

    def native_scratch_bytes(
        self, threads: int = 1, value_columns: int = 0
    ) -> int:
        """Transient bytes one native ``execute`` holds at ``threads``.

        The arenas, the per-worker scratch blocks, and the packed
        ``(K, B)`` value block for a full-sized (budget-bound) block,
        where ``K = value_columns`` is the summed width of the value
        matrices a run passes (``P·N_g`` for per-gate samples, ``Σ n_t``
        for Algorithm 2's triangle values).  Not part of
        :meth:`resident_bytes` — these buffers live only for the
        duration of a run — but the service accounts them so a
        thread-count change shows up in capacity planning.
        """
        threads = max(int(threads), 1)
        value_columns = max(int(value_columns), 0)
        width = self.num_slots
        block = self._native_block_size(
            NATIVE_BLOCK_BYTE_BUDGET, width, threads, value_columns
        )
        per_block = 2 * width + 4 * threads + value_columns
        return 8 * block * per_block

    def execute(
        self,
        num_samples: int,
        *,
        parameter_products: Optional[Sequence[ParameterTerm]] = None,
        r_scales: Optional[np.ndarray] = None,
        c_scales: Optional[np.ndarray] = None,
        input_slew_ps: float,
        keep_all_arrivals: bool = False,
        native_threads: Optional[int] = None,
    ) -> CompiledRunOutput:
        """Run the compiled program for ``num_samples`` MC samples.

        Parameters
        ----------
        parameter_products:
            ``(values, columns, weights)`` terms (:data:`ParameterTerm`),
            one per parameter, whose gathered, weighted values accumulate
            into the rank-one projection ``u = wᵀp`` in sequence order.
            Maps are trusted here (the engine validates them).  ``None``
            runs a nominal analysis.
        r_scales / c_scales:
            Optional ``(N, num_nets)`` wire R/C scale matrices in
            ``net_order`` column order (already validated by the engine).
        input_slew_ps:
            Slew applied at primary inputs.
        keep_all_arrivals:
            Use the identity (net-indexed) arena so every net's arrival
            survives to the result.
        native_threads:
            Worker count for the native kernel's sample-parallel entry
            point; ``None`` defers to ``REPRO_NATIVE_THREADS``.  Results
            are bitwise identical for every value — only speed changes.
        """
        keep_all = bool(keep_all_arrivals)
        width = self.num_nets if keep_all else self.num_slots
        num_gates = self._packed_models.num_gates
        block = self.block_size(num_samples, width)
        wire = r_scales is not None or c_scales is not None

        if not wire:
            kernel = native.load_kernel()
            if kernel is not None:
                self.last_run_native = True
                return self._execute_native(
                    kernel,
                    num_samples,
                    parameter_products,
                    float(input_slew_ps),
                    keep_all,
                    native.resolve_thread_count(native_threads),
                )
        self.last_run_native = False

        arrival = np.empty((block, width))
        slew = np.empty((block, width))
        u_buffer = tmp_buffer = None
        if parameter_products:
            u_buffer = np.empty((block, num_gates))
            tmp_buffer = np.empty((block, num_gates))

        worst_idx = self._end_cols if keep_all else self._end_slots
        scratch = _Scratch(
            block,
            max((lv.pin_cols.size for lv in self.levels), default=1),
            max((lv.gate_ids.size for lv in self.levels), default=1),
            worst_idx.size,
            statistical=bool(parameter_products),
            wire=wire,
        )

        out_names = self.net_order if keep_all else self._end_names
        end_out = np.empty((len(out_names), num_samples))
        worst = np.empty(num_samples)

        pi_idx = self._pi_cols if keep_all else self._pi_slots
        dff_idx = self._dff_out_cols if keep_all else self._dff_out_slots

        for start in range(0, num_samples, block):
            stop = min(start + block, num_samples)
            rows = stop - start
            arr = arrival[:rows]
            slw = slew[:rows]
            u = None
            if parameter_products:
                u = u_buffer[:rows]
                tmp = tmp_buffer[:rows]
                for j, (values, columns, weights) in enumerate(
                    parameter_products
                ):
                    term = u if j == 0 else tmp
                    part = values[start:stop]
                    if columns is not None:
                        # The gather is a copy, so the product below is
                        # bitwise the one on pre-gathered samples.
                        np.take(part, columns, axis=1, out=term, mode="clip")
                        part = term
                    np.multiply(part, weights, out=term)
                    if j:
                        u += tmp
            rb = None if r_scales is None else r_scales[start:stop]
            cb = None if c_scales is None else c_scales[start:stop]

            arr[:, pi_idx] = 0.0
            slw[:, pi_idx] = float(input_slew_ps)
            if self._dff_gate_ids.size:
                self._init_dffs(arr, slw, dff_idx, u, cb)
            for level in self.levels:
                self._execute_level(
                    level, arr, slw, u, rb, cb, keep_all, scratch
                )

            if worst_idx.size:
                ends = _view(scratch.ends, rows, worst_idx.size)
                np.take(arr, worst_idx, axis=1, out=ends, mode="clip")
                np.max(ends, axis=1, out=worst[start:stop])
            else:
                worst[start:stop] = -np.inf
            if keep_all:
                end_out[:, start:stop] = arr.T
            elif worst_idx.size:
                # The end gather above is exactly the per-end output.
                end_out[:, start:stop] = ends.T

        end_arrivals = {
            net: end_out[i] for i, net in enumerate(out_names)
        }
        return CompiledRunOutput(
            end_arrivals=end_arrivals,
            worst_delay=worst,
            num_samples=num_samples,
        )

    def _execute_native(
        self,
        kernel: Any,
        num_samples: int,
        parameter_products: Optional[Sequence[ParameterTerm]],
        input_slew_ps: float,
        keep_all: bool,
        threads: int = 1,
    ) -> CompiledRunOutput:
        """Drive ``sta_kernel.c``'s ``sta_run`` over sample blocks.

        The numpy side packs the program images once per call
        (:meth:`_pack_images`), packs each block's parameter values as
        ``(K, B)`` value columns — every parameter's columns side by
        side, each column's sample lanes contiguous — and reads back the
        end arrivals.  The projection ``u`` and everything after it live
        in the kernel's fused per-gate loop.  The packed block and the
        arenas are flat ``(rows × B)`` buffers, so partial trailing
        blocks simply use a shorter sample stride — per-sample results
        are independent of the blocking, keeping chunked runs bitwise
        identical.

        With ``threads > 1`` the block's sample lanes are partitioned
        across the kernel's worker team; each worker gets a private
        ``4 × B`` scratch block inside ``kscratch``.  Per-lane arithmetic
        is identical under every partition, so results are bitwise
        independent of ``threads``.  The kernel validates the images and
        every buffer length on entry and a rejected call raises
        :class:`~repro.timing.native.NativeKernelError`.
        """
        threads = max(int(threads), 1)
        width = self.num_nets if keep_all else self.num_slots
        products = list(parameter_products or ())
        prog, coef = self._pack_images(keep_all, products, input_slew_ps)
        value_cols = sum(values.shape[1] for values, _, _ in products)
        block = self._native_block_size(
            num_samples, width, threads, value_cols
        )

        worst_idx = self._end_cols if keep_all else self._end_slots
        out_names = self.net_order if keep_all else self._end_names
        end_out = np.empty((len(out_names), num_samples))
        worst = np.empty(num_samples)

        arena_a = np.empty(width * block)
        arena_s = np.empty(width * block)
        kscratch = np.empty(4 * block * threads)
        packed = np.empty(block * value_cols) if products else None

        for start in range(0, num_samples, block):
            stop = min(start + block, num_samples)
            rows = stop - start
            if packed is not None:
                lanes = packed[: value_cols * rows].reshape(value_cols, rows)
                offset = 0
                for values, _, _ in products:
                    cols = values.shape[1]
                    lanes[offset : offset + cols] = values[start:stop].T
                    offset += cols
            native.run_kernel(
                kernel, prog, coef, packed, arena_a, arena_s, kscratch,
                rows, threads,
            )
            av = arena_a[: width * rows].reshape(width, rows)
            ends = None
            if worst_idx.size:
                ends = av[worst_idx]
                np.max(ends, axis=0, out=worst[start:stop])
            else:
                worst[start:stop] = -np.inf
            if keep_all:
                end_out[:, start:stop] = av
            elif ends is not None:
                end_out[:, start:stop] = ends

        end_arrivals = {
            net: end_out[i] for i, net in enumerate(out_names)
        }
        return CompiledRunOutput(
            end_arrivals=end_arrivals,
            worst_delay=worst,
            num_samples=num_samples,
        )

    def _pack_images(
        self,
        keep_all: bool,
        products: Sequence[ParameterTerm],
        input_slew_ps: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel's int64 ``prog`` and float64 ``coef`` images.

        The layout (header counts, section offsets, section order) is
        documented in ``sta_kernel.c``; the section names are
        :data:`~repro.timing.native.PROG_SECTIONS` and
        :data:`~repro.timing.native.COEF_SECTIONS`.  The headers record
        where each section actually landed, and the kernel checks every
        extent against the counts, so a section packed short or long is
        a :class:`~repro.timing.native.NativeKernelError`, never an
        out-of-bounds access.
        """
        u_col, u_w = self._projection_tables(products)
        pi_idx = self._pi_cols if keep_all else self._pi_slots
        dff_idx = self._dff_out_cols if keep_all else self._dff_out_slots
        counts = {
            "num_pi": pi_idx.size,
            "num_dff": dff_idx.size,
            "num_gates": self._k_fanin.size,
            "num_pins": self._num_pins,
            "width": self.num_nets if keep_all else self.num_slots,
            "num_params": len(products),
            "num_value_cols": sum(v.shape[1] for v, _, _ in products),
        }
        prog = _image(
            [native.STA_MAGIC] + [counts[name] for name in native.PROG_COUNTS],
            {
                "pi_slot": pi_idx,
                "dff_slot": dff_idx,
                "g_fanin": self._k_fanin,
                "g_out_slot": (
                    self._k_out_col if keep_all else self._k_out_slot
                ),
                "p_slot": self._k_p_col if keep_all else self._k_p_slot,
                "u_col": u_col,
            },
            native.PROG_SECTIONS,
            np.int64,
        )
        coef = _image(
            [native.STA_MAGIC],
            {
                "input_slew": np.array([input_slew_ps]),
                "dff_dnom": self._dff_dnom,
                "dff_snom": self._dff_snom,
                "dff_k1": self._dff_k1,
                "dff_k2": self._dff_k2,
                "dff_m1": self._dff_m1,
                "dff_m2": self._dff_m2,
                "g_bd": self._k_bd,
                "g_dsl": self._k_dsl,
                "g_bs": self._k_bs,
                "g_ssl": self._k_ssl,
                "g_k1": self._k_k1,
                "g_k2": self._k_k2,
                "g_m1": self._k_m1,
                "g_m2": self._k_m2,
                "p_wd": self._k_p_wd,
                "p_step2": self._k_p_step2,
                "u_w": u_w,
            },
            native.COEF_SECTIONS,
            np.float64,
        )
        return prog, coef

    def _projection_tables(
        self, products: Sequence[ParameterTerm]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel's per-row value columns and weights, flattened.

        Row ``r`` (a DFF, then a scheduled gate; see ``_proj_gid``)
        holds, for each parameter ``j`` in order, the packed-block column
        of that gate's value — parameter ``j``'s offset plus its map
        entry (the gate index itself for per-gate values) — and the
        gate's weight for ``j``.
        """
        rows = self._proj_gid
        u_col = np.empty((rows.size, len(products)), dtype=np.int64)
        u_w = np.empty((rows.size, len(products)))
        offset = 0
        for j, (values, columns, weights) in enumerate(products):
            gate_cols = rows if columns is None else np.take(columns, rows)
            u_col[:, j] = gate_cols + offset
            u_w[:, j] = np.take(weights, rows)
            offset += values.shape[1]
        return u_col.ravel(), u_w.ravel()

    def _init_dffs(
        self,
        arr: np.ndarray,
        slw: np.ndarray,
        dff_idx: np.ndarray,
        u: Optional[np.ndarray],
        cb: Optional[np.ndarray],
    ) -> None:
        """Launch clock→Q arrivals at every sequential start point."""
        if cb is None:
            load = self._dff_total_cap
        else:
            load = self._dff_pin_cap + cb[:, self._dff_out_cols] * (
                self._dff_wire_cap
            )
        delay = self._dff_d0 + self._dff_d_load * load
        out_slew = self._dff_s0 + self._dff_s_load * load
        if u is not None:
            ud = u[:, self._dff_gate_ids]
            uu = ud * ud
            scale = 1.0 + self._dff_k1 * ud + self._dff_k2 * uu
            np.maximum(scale, 0.05, out=scale)
            delay = delay * scale
            scale = 1.0 + self._dff_m1 * ud + self._dff_m2 * uu
            np.maximum(scale, 0.05, out=scale)
            out_slew = out_slew * scale
        arr[:, dff_idx] = delay
        slw[:, dff_idx] = out_slew

    def _execute_level(
        self,
        level: CompiledLevel,
        arr: np.ndarray,
        slw: np.ndarray,
        u: Optional[np.ndarray],
        rb: Optional[np.ndarray],
        cb: Optional[np.ndarray],
        keep_all: bool,
        s: _Scratch,
    ) -> None:
        """Evaluate one topological level in place on the arenas."""
        rows = arr.shape[0]
        num_pins = level.pin_cols.size
        num_gates = level.gate_ids.size
        pin_idx = level.pin_cols if keep_all else level.pin_slots
        # Gather all fanin inputs before scattering any outputs — the
        # compile-time slot schedule relies on this ordering.
        A = _view(s.pin_a, rows, num_pins)  # pin arrival → candidate
        S = _view(s.pin_s, rows, num_pins)  # pin slew → delay term
        D = _view(s.pin_d, rows, num_pins)  # wire delay → output slew
        np.take(arr, pin_idx, axis=1, out=A, mode="clip")
        np.take(slw, pin_idx, axis=1, out=S, mode="clip")

        if rb is None and cb is None:
            np.add(A, level.pin_wire_delay, out=A)
            np.multiply(S, S, out=S)
            np.add(S, level.pin_step2, out=S)
            np.sqrt(S, out=S)
        else:
            # wire_delay = r·c·(R·C_wire/2) + r·(R·C_pin), built in D.
            if rb is not None and cb is not None:
                R = _view(s.pin_r, rows, num_pins)
                C = _view(s.pin_c, rows, num_pins)
                np.take(rb, level.pin_cols, axis=1, out=R, mode="clip")
                np.take(cb, level.pin_cols, axis=1, out=C, mode="clip")
                np.multiply(R, C, out=D)
                np.multiply(D, level.pin_rc_half, out=D)
                np.multiply(R, level.pin_r_pin, out=R)
                np.add(D, R, out=D)
            elif rb is not None:
                R = _view(s.pin_r, rows, num_pins)
                np.take(rb, level.pin_cols, axis=1, out=R, mode="clip")
                np.multiply(R, level.pin_rc_half + level.pin_r_pin, out=D)
            else:
                C = _view(s.pin_c, rows, num_pins)
                np.take(cb, level.pin_cols, axis=1, out=C, mode="clip")
                np.multiply(C, level.pin_rc_half, out=D)
                np.add(D, level.pin_r_pin, out=D)
            np.add(A, D, out=A)
            np.multiply(D, LN9, out=D)
            np.multiply(D, D, out=D)
            np.multiply(S, S, out=S)
            np.add(S, D, out=S)
            np.sqrt(S, out=S)

        # Affine delay/slew evaluation on contiguous pin-flat arrays.
        # The reference's per-gate model evaluation
        #     delay = (d0 + d_slew·slew + d_load·load) · scale
        # becomes, with compile-time pin-expanded constants,
        #     D = (S·pin_s_slew + pin_base_slew) · scs[pin_gate]
        #     S = (S·pin_d_slew + pin_base_delay) · scd[pin_gate]
        #     A += S
        # so every op is a contiguous 2-D ufunc (3-D fanin-group
        # broadcasts have a fanin-length inner loop and run ~5× slower);
        # the only per-sample gate→pin expansion is one `take` per
        # scale factor.
        statistical = u is not None
        if statistical:
            ug = _view(s.g_u, rows, num_gates)
            uu = _view(s.g_uu, rows, num_gates)
            t = _view(s.g_t, rows, num_gates)
            scd = _view(s.g_scd, rows, num_gates)
            scs = _view(s.g_scs, rows, num_gates)
            np.take(u, level.gate_ids, axis=1, out=ug, mode="clip")
            np.multiply(ug, ug, out=uu)
            np.multiply(uu, level.k2, out=scd)
            np.multiply(ug, level.k1, out=t)
            np.add(scd, t, out=scd)
            np.add(scd, 1.0, out=scd)
            np.maximum(scd, 0.05, out=scd)
            np.multiply(uu, level.m2, out=scs)
            np.multiply(ug, level.m1, out=t)
            np.add(scs, t, out=scs)
            np.add(scs, 1.0, out=scs)
            np.maximum(scs, 0.05, out=scs)
        if cb is None:
            # Output slew per pin into D (from the original pin slew),
            # then the delay contribution in place of S.
            np.multiply(S, level.pin_s_slew, out=D)
            np.add(D, level.pin_base_slew, out=D)
            np.multiply(S, level.pin_d_slew, out=S)
            np.add(S, level.pin_base_delay, out=S)
            if statistical:
                T1 = _view(s.pin_t1, rows, num_pins)
                np.take(scs, level.pin_gate, axis=1, out=T1, mode="clip")
                np.multiply(D, T1, out=D)
                np.take(scd, level.pin_gate, axis=1, out=T1, mode="clip")
                np.multiply(S, T1, out=S)
        else:
            # Per-sample loads: the base coefficients vary per gate, so
            # build (and scale) them in gate space, then pin-expand.
            load = _view(s.g_t, rows, num_gates)
            np.take(cb, level.out_cols, axis=1, out=load, mode="clip")
            np.multiply(load, level.wire_cap, out=load)
            np.add(load, level.pin_cap, out=load)
            bd = _view(s.g_bd, rows, num_gates)
            np.multiply(load, level.d_load, out=bd)
            np.add(bd, level.d0, out=bd)
            bs = _view(s.g_bs, rows, num_gates)
            np.multiply(load, level.s_load, out=bs)
            np.add(bs, level.s0, out=bs)
            T1 = _view(s.pin_t1, rows, num_pins)
            T2 = _view(s.pin_t2, rows, num_pins)
            if statistical:
                np.multiply(bd, scd, out=bd)
                np.multiply(bs, scs, out=bs)
                sld = ug    # g_u / g_uu are dead once the scales exist
                sls = uu
                np.multiply(scd, level.d_slew, out=sld)
                np.multiply(scs, level.s_slew, out=sls)
                np.take(sls, level.pin_gate, axis=1, out=T1, mode="clip")
                np.take(bs, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, T1, out=D)
                np.add(D, T2, out=D)
                np.take(sld, level.pin_gate, axis=1, out=T1, mode="clip")
                np.take(bd, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, T1, out=S)
                np.add(S, T2, out=S)
            else:
                np.take(bs, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, level.pin_s_slew, out=D)
                np.add(D, T2, out=D)
                np.take(bd, level.pin_gate, axis=1, out=T2, mode="clip")
                np.multiply(S, level.pin_d_slew, out=S)
                np.add(S, T2, out=S)
        np.add(A, S, out=A)                # candidate arrival per pin

        out_idx = level.out_cols if keep_all else level.out_slots
        for group in level.groups:
            gs, ge = group.gate_start, group.gate_end
            ps, pe = group.pin_start, group.pin_end
            k = group.fanin
            cols = out_idx[gs:ge]
            if k == 1:
                arr[:, cols] = A[:, ps:pe]
                slw[:, cols] = D[:, ps:pe]
                continue
            ng = ge - gs
            A3 = A[:, ps:pe].reshape(rows, ng, k)
            D3 = D[:, ps:pe].reshape(rows, ng, k)
            # Sequential strictly-greater update over the fanin axis —
            # bitwise the same winner (and winner slew) as the
            # reference loop.
            best_a = _view(s.best_a, rows, ng)
            best_s = _view(s.best_s, rows, ng)
            mask = _view(s.mask, rows, ng)
            np.copyto(best_a, A3[:, :, 0])
            np.copyto(best_s, D3[:, :, 0])
            for pin in range(1, k):
                np.greater(A3[:, :, pin], best_a, out=mask)
                np.copyto(best_a, A3[:, :, pin], where=mask)
                np.copyto(best_s, D3[:, :, pin], where=mask)
            arr[:, cols] = best_a
            slw[:, cols] = best_s
