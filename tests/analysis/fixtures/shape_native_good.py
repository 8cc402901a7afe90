"""Obligation-clean kernel call: every buffer provably dominates its bound.

Mirrors the live ``CompiledTimingProgram`` call shape: each pointer
argument of ``sta_eval_gates`` is allocated with exactly the extent
``cabi.kernel_buffer_obligations`` derives from ``sta_kernel.c``
(loop bounds for the per-gate and projection tables, parameter
annotations for the ``(K, B)`` values and the arenas, ``4*num_rows``
for scratch).  The three pin-table
arguments have no affine extent (the kernel walks them with a running
counter), so they carry the same hand-proof suppression the live tree
uses.  REPRO-SHAPE002 must report nothing here.
"""

import ctypes

import numpy as np

from repro.timing.native import load_kernel

P_F64 = ctypes.POINTER(ctypes.c_double)
P_I64 = ctypes.POINTER(ctypes.c_int64)


def evaluate(
    num_rows: int,
    num_params: int,
    num_value_cols: int,
    num_pi: int,
    num_dff: int,
    num_gates: int,
    num_pins: int,
    width: int,
) -> None:
    kernel = load_kernel()

    values = np.zeros(num_value_cols * num_rows)
    u_col = np.zeros((num_dff + num_gates) * num_params, dtype=np.int64)
    u_w = np.zeros((num_dff + num_gates) * num_params)
    pi_slots = np.zeros(num_pi, dtype=np.int64)
    dff_slots = np.zeros(num_dff, dtype=np.int64)
    dff_dnom = np.zeros(num_dff)
    dff_snom = np.zeros(num_dff)
    dff_k1 = np.zeros(num_dff)
    dff_k2 = np.zeros(num_dff)
    dff_m1 = np.zeros(num_dff)
    dff_m2 = np.zeros(num_dff)
    g_fanin = np.zeros(num_gates, dtype=np.int64)
    g_out_slot = np.zeros(num_gates, dtype=np.int64)
    g_bd = np.zeros(num_gates)
    g_dsl = np.zeros(num_gates)
    g_bs = np.zeros(num_gates)
    g_ssl = np.zeros(num_gates)
    g_k1 = np.zeros(num_gates)
    g_k2 = np.zeros(num_gates)
    g_m1 = np.zeros(num_gates)
    g_m2 = np.zeros(num_gates)
    p_slot = np.zeros(num_pins, dtype=np.int64)
    p_wd = np.zeros(num_pins)
    p_step2 = np.zeros(num_pins)
    arena_a = np.zeros(num_rows * width)
    arena_s = np.zeros(num_rows * width)
    scratch = np.zeros(4 * num_rows)

    kernel(
        num_rows,
        num_params,
        num_value_cols,
        values.ctypes.data_as(P_F64),
        u_col.ctypes.data_as(P_I64),
        u_w.ctypes.data_as(P_F64),
        0.0,
        pi_slots.ctypes.data_as(P_I64),
        num_pi,
        dff_slots.ctypes.data_as(P_I64),
        dff_dnom.ctypes.data_as(P_F64),
        dff_snom.ctypes.data_as(P_F64),
        dff_k1.ctypes.data_as(P_F64),
        dff_k2.ctypes.data_as(P_F64),
        dff_m1.ctypes.data_as(P_F64),
        dff_m2.ctypes.data_as(P_F64),
        num_dff,
        num_gates,
        g_fanin.ctypes.data_as(P_I64),
        g_out_slot.ctypes.data_as(P_I64),
        g_bd.ctypes.data_as(P_F64),
        g_dsl.ctypes.data_as(P_F64),
        g_bs.ctypes.data_as(P_F64),
        g_ssl.ctypes.data_as(P_F64),
        g_k1.ctypes.data_as(P_F64),
        g_k2.ctypes.data_as(P_F64),
        g_m1.ctypes.data_as(P_F64),
        g_m2.ctypes.data_as(P_F64),
        # Hand proof: the kernel's running pin counter visits exactly
        # one entry per (gate, fanin) pair and the tables are built
        # with one row per pair, so num_pins entries suffice.
        p_slot.ctypes.data_as(P_I64),  # repro-lint: disable=REPRO-SHAPE002
        p_wd.ctypes.data_as(P_F64),  # repro-lint: disable=REPRO-SHAPE002
        p_step2.ctypes.data_as(P_F64),  # repro-lint: disable=REPRO-SHAPE002
        arena_a.ctypes.data_as(P_F64),
        arena_s.ctypes.data_as(P_F64),
        scratch.ctypes.data_as(P_F64),
    )
