"""Prefix-coupled fine/coarse KLE sample generation for one MLMC level.

MLMC level variances only decay if the fine and coarse members of a
correction pair are evaluated on *the same* random input.  Here both are
driven by one block of iid normals ξ per statistical parameter:

- fine:   ``Q_l``    sees ``(ξ_1 … ξ_{r_l})``   through level ``l``'s ``D_λ``,
- coarse: ``Q_{l−1}`` sees ``(ξ_1 … ξ_{r_{l−1}})`` — the *prefix* — through
  level ``l−1``'s ``D_λ``.

For a KLE-rank hierarchy this is exactly the nested-truncation coupling
(the coarse field is the fine field minus its trailing eigenmodes); for a
mesh hierarchy both levels use the full ξ and differ only in the
discretized eigenfunctions.  Marginally, each member still follows its
own level's rank-``r`` KLE law, so every level's fine stream is a valid
single-level KLE Monte-Carlo stream — the property the covariance-
preservation tests pin down.

The per-parameter draw order and arithmetic deliberately mirror
:class:`repro.field.sampling.KLESampleGenerator` (``pseudo`` path), so a
degenerate single-level hierarchy reproduces plain Algorithm 2 sampling
bit for bit under the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mlmc.hierarchy import LevelModel
from repro.utils.rng import SeedLike, spawn_generators


@dataclass(frozen=True)
class _ParameterMap:
    """Precompiled ξ → gate-field map for one parameter at one level."""

    d_lambda: np.ndarray  # (nt, r): D_λ = D_r sqrt(Λ_r)
    triangles: np.ndarray  # (N_g,) containing-triangle index per gate
    rank: int


def _build_maps(
    model: LevelModel, gate_locations: np.ndarray
) -> "Dict[str, _ParameterMap]":
    """Resolve each parameter's reconstruction matrix and gate gather."""
    gate_locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
    triangle_cache: Dict[int, np.ndarray] = {}
    maps: Dict[str, _ParameterMap] = {}
    for name in model.parameter_names:
        kle = model.kles[name]
        key = id(kle)
        if key not in triangle_cache:
            triangle_cache[key] = kle.locator.locate_many(gate_locations)
        rank = int(model.ranks[name])
        maps[name] = _ParameterMap(
            d_lambda=kle.reconstruction_matrix(rank),
            triangles=triangle_cache[key],
            rank=rank,
        )
    return maps


def _columns(maps: "Dict[str, _ParameterMap]") -> Dict[str, np.ndarray]:
    """Parameter name → gate→triangle column map."""
    return {name: pmap.triangles for name, pmap in maps.items()}


@dataclass
class CoupledDraw:
    """One batch of coupled draws.

    Attributes
    ----------
    xi:
        Parameter name → ``(N, r_fine)`` iid standard normals (the fine
        level's full block; the coarse level consumes the prefix).
    fine_fields / coarse_fields:
        Parameter name → ``(N, n_t)`` field values on the level's mesh
        triangles, present only when requested (surrogate-timed levels
        skip them).  Gate ``g`` reads column ``columns[name][g]``; hand
        both to ``STAEngine.run(fields, columns=columns)``, which
        projects them in the timing kernel without a per-gate matrix.
    fine_columns / coarse_columns:
        Parameter name → ``(N_g,)`` int64 containing-triangle index of
        each gate on that member's meshes.
    seconds:
        Wall-clock spent generating this batch.
    """

    xi: Dict[str, np.ndarray]
    fine_fields: Optional[Dict[str, np.ndarray]]
    coarse_fields: Optional[Dict[str, np.ndarray]]
    fine_columns: Dict[str, np.ndarray]
    coarse_columns: Optional[Dict[str, np.ndarray]]
    seconds: float

    def xi_concat(self, ranks: Optional[Dict[str, int]] = None) -> np.ndarray:
        """Concatenate per-parameter ξ blocks into one ``(N, d)`` matrix.

        ``ranks`` optionally truncates each block to that parameter's
        (coarse) prefix before concatenation.
        """
        blocks: List[np.ndarray] = []
        for name, block in self.xi.items():
            if ranks is not None:
                block = block[:, : int(ranks[name])]
            blocks.append(block)
        return np.concatenate(blocks, axis=1)


class CoupledLevelSampler:
    """Coupled fine/coarse sample generator for one MLMC level.

    Parameters
    ----------
    fine:
        The level's own :class:`LevelModel`.
    coarse:
        The next-coarser model for the correction pair, or ``None`` at
        level 0 (plain single-model sampling).
    gate_locations:
        ``(N_g, 2)`` die coordinates the fields are read at.
    """

    def __init__(
        self,
        fine: LevelModel,
        coarse: Optional[LevelModel],
        gate_locations: np.ndarray,
    ):
        self.fine = fine
        self.coarse = coarse
        self._fine_maps = _build_maps(fine, gate_locations)
        self._coarse_maps = (
            _build_maps(coarse, gate_locations) if coarse is not None else None
        )
        if coarse is not None:
            if coarse.parameter_names != fine.parameter_names:
                raise ValueError(
                    "fine and coarse levels must cover the same parameters"
                )
            for name in fine.parameter_names:
                if coarse.ranks[name] > fine.ranks[name]:
                    raise ValueError(
                        f"coarse rank exceeds fine rank for {name!r}; "
                        "prefix coupling impossible"
                    )

    def generate(
        self,
        num_samples: int,
        *,
        seed: SeedLike = None,
        need_fine_fields: bool = True,
        need_coarse_fields: bool = True,
    ) -> CoupledDraw:
        """Draw ``num_samples`` coupled samples.

        The ``need_*_fields`` flags skip the ``(N, n_t)`` triangle
        values for surrogate-timed members that only consume ξ.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        generators = spawn_generators(seed, len(self._fine_maps))
        start = time.perf_counter()
        xi: Dict[str, np.ndarray] = {}
        fine_fields: Optional[Dict[str, np.ndarray]] = (
            {} if need_fine_fields else None
        )
        coarse_fields: Optional[Dict[str, np.ndarray]] = (
            {} if (need_coarse_fields and self._coarse_maps is not None)
            else None
        )
        for (name, fmap), rng in zip(self._fine_maps.items(), generators):
            block = rng.standard_normal((num_samples, fmap.rank))
            xi[name] = block
            if fine_fields is not None:
                fine_fields[name] = block @ fmap.d_lambda.T
            if coarse_fields is not None:
                cmap = self._coarse_maps[name]
                coarse_fields[name] = block[:, : cmap.rank] @ cmap.d_lambda.T
        seconds = time.perf_counter() - start
        return CoupledDraw(
            xi=xi,
            fine_fields=fine_fields,
            coarse_fields=coarse_fields,
            fine_columns=_columns(self._fine_maps),
            coarse_columns=(
                None
                if self._coarse_maps is None
                else _columns(self._coarse_maps)
            ),
            seconds=seconds,
        )

    def covariance_fine(self) -> np.ndarray:
        """Gate-level covariance implied by the fine model's first
        parameter — the target of the coupling property tests."""
        return self._covariance(self._fine_maps)

    def covariance_coarse(self) -> np.ndarray:
        """Gate-level covariance implied by the coarse model's first
        parameter (requires a coarse member)."""
        if self._coarse_maps is None:
            raise ValueError("level has no coarse member")
        return self._covariance(self._coarse_maps)

    @staticmethod
    def _covariance(maps: "Dict[str, _ParameterMap]") -> np.ndarray:
        pmap = next(iter(maps.values()))
        gathered = pmap.d_lambda[pmap.triangles, :]  # (N_g, r)
        return gathered @ gathered.T
