"""Linearized response-surface timer: the cheap rung of a model ladder.

The KLE already reduces each parameter field to ``r ≈ 25`` iid normals ξ,
so the circuit's worst delay is a function ``Q(ξ)`` on a *low-dimensional*
space — cheap to probe.  This module builds the first-order response
surface of every timing end point around ξ = 0,

    A_e(ξ) ≈ a_e + g_eᵀ ξ,        Q_lin(ξ) = max_e A_e(ξ),

by central finite differences: one batched STA run over the ``2d + 1``
design rows ``{0, ±h·e_i}`` (a single :meth:`STAEngine.run` call — the
design is just another sample matrix).  Evaluating the surrogate is then
one ``(E, d) × (d, N)`` matmul plus a max-reduce — orders of magnitude
cheaper per sample than a full STA pass, yet highly correlated with it
(the gate models are mildly quadratic and the max is locally affine),
which is exactly what the MLMC correction level needs: tiny
``Var(Q − Q_lin)`` at full-STA cost only for the few correction samples.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.mlmc.hierarchy import LevelModel
from repro.mlmc.sampler import _build_maps
from repro.timing.sta import STAEngine


class LinearDelaySurrogate:
    """First-order model of all end-point arrivals in ξ-space.

    Parameters
    ----------
    engine:
        The compiled :class:`~repro.timing.sta.STAEngine` of the placed
        circuit (shared with the full-STA levels).
    model:
        The :class:`~repro.mlmc.hierarchy.LevelModel` defining the ξ → gate
        field map (KLEs + ranks) the surrogate is differentiated through.
    gate_locations:
        ``(N_g, 2)`` gate coordinates.
    step:
        Finite-difference step ``h`` in units of the unit-variance ξ
        (default 1.0 ≈ one standard deviation, which balances truncation
        against curvature for the mildly quadratic gate models).
    """

    def __init__(
        self,
        engine: STAEngine,
        model: LevelModel,
        gate_locations: np.ndarray,
        *,
        step: float = 1.0,
    ):
        if float(step) <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        self.model = model
        self.step = float(step)
        self._maps = _build_maps(model, gate_locations)
        self._ranks: Dict[str, int] = {
            name: pmap.rank for name, pmap in self._maps.items()
        }
        self.dimension = sum(self._ranks.values())
        start = time.perf_counter()
        self._build(engine)
        self.build_seconds = time.perf_counter() - start

    def _fields_from_xi(self, xi: np.ndarray) -> Dict[str, np.ndarray]:
        """Map concatenated ``(N, d)`` ξ rows to per-parameter ``(N, n_t)``
        triangle values (gate ``g`` reads ``_maps[name].triangles[g]``)."""
        fields: Dict[str, np.ndarray] = {}
        offset = 0
        for name, pmap in self._maps.items():
            block = xi[:, offset : offset + pmap.rank]
            offset += pmap.rank
            fields[name] = block @ pmap.d_lambda.T
        return fields

    def _build(self, engine: STAEngine) -> None:
        d, h = self.dimension, self.step
        design = np.zeros((2 * d + 1, d))
        design[1 : d + 1] = h * np.eye(d)
        design[d + 1 :] = -h * np.eye(d)
        result = engine.run(
            self._fields_from_xi(design),
            columns={
                name: pmap.triangles for name, pmap in self._maps.items()
            },
        )
        self._end_names = tuple(sorted(result.end_arrivals))
        arrivals = np.stack(
            [result.end_arrivals[name] for name in self._end_names]
        )  # (E, 2d + 1)
        self._a0 = arrivals[:, 0].copy()
        self._gradient = (
            arrivals[:, 1 : d + 1] - arrivals[:, d + 1 :]
        ) / (2.0 * h)  # (E, d)

    def worst_delay(self, xi: np.ndarray) -> np.ndarray:
        """Surrogate worst delay for ``(N, d)`` ξ rows → ``(N,)`` ps."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 2 or xi.shape[1] != self.dimension:
            raise ValueError(
                f"xi must be (N, {self.dimension}), got {xi.shape}"
            )
        arrivals = self._a0[:, None] + self._gradient @ xi.T  # (E, N)
        return arrivals.max(axis=0)

    def matches(self, model: LevelModel) -> bool:
        """Whether this surrogate was built for an equivalent ξ → field map
        (same KLE objects and ranks per parameter)."""
        if model.parameter_names != tuple(self._maps):
            return False
        return all(
            model.kles[name] is self.model.kles[name]
            and int(model.ranks[name]) == self._ranks[name]
            for name in self._maps
        )
