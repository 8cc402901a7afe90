"""The paper's two Monte-Carlo parameter-sample generators (§5.1).

Both produce, for each statistical parameter ``p_j`` (L, W, Vt, tox), an
``N × N_g`` matrix of normalized parameter values — one row per MC sample,
one column per gate — following that parameter's covariance kernel.  The
parameters are mutually independent (paper §2.1 assumption).

- :class:`CholeskySampleGenerator` — **Algorithm 1**, the exact reference:
  assemble the full ``N_g × N_g`` gate covariance, factorize, multiply.
  Cost grows as ``O(N_g³)`` for the factorization plus ``O(N · N_g²)`` for
  the sampling — the dimensionality wall the paper attacks.
- :class:`KLESampleGenerator` — **Algorithm 2**, the paper's method: draw
  ``N × r`` iid normals, map through ``D_λ`` (r ≈ 25), then gather each
  gate's containing-triangle row.  Cost ``O(N · r · n + N_g)``: the
  ``N × n`` triangle values cost ``N · r · n`` multiply-adds, the gather
  only a copy.  ``generate(expand=False)`` stops before the gather and
  returns the triangle values plus each gate's triangle column
  (:attr:`SampleGenerationResult.columns`); the timing engine gathers
  through that map per gate and sample, so the ``N × N_g`` matrices
  (``4 × 2000 × 9772`` doubles = 625 MB on s15850) are never built.

Every sample matrix either generator returns is C-contiguous: gathers
use ``np.take(..., axis=1)``, because fancy indexing ``values[:, idx]``
returns a Fortran-ordered array that slows every row-block reader.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.kernels import CovarianceKernel
from repro.core.kle import KLEResult
from repro.utils.linalg import cholesky_with_jitter
from repro.utils.rng import SeedLike, spawn_generators


@dataclass
class SampleGenerationResult:
    """Generated parameter samples plus the wall-clock cost breakdown.

    Attributes
    ----------
    samples:
        Mapping parameter name → ``(N, N_g)`` normalized sample matrix,
        or ``(N, K)`` values when ``columns`` maps gates into them.
    setup_seconds:
        One-time cost (Cholesky factorization / gate-to-triangle lookup).
    generate_seconds:
        Per-run sampling cost (random draws and matrix products).
    """

    samples: Dict[str, np.ndarray]
    setup_seconds: float = 0.0
    generate_seconds: float = 0.0
    #: Parameter name → 1-D int64 gate→column map into ``samples[name]``
    #: (``generate(expand=False)`` on Algorithm 2: each gate's triangle);
    #: ``None`` means per-gate samples (the identity map).  Pass it on as
    #: ``STAEngine.run(..., columns=)``.
    columns: Optional[Dict[str, np.ndarray]] = None

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.generate_seconds


def _validate_cross_correlation(
    cross_correlation: Optional[np.ndarray],
    num_parameters: int,
    shared_object: bool,
) -> Optional[np.ndarray]:
    """Check a parameter cross-correlation matrix and return its Cholesky.

    The paper assumes parameters vary independently (§2.1); this optional
    extension supports physically coupled parameters (e.g. L and W through
    a shared lithography step) with the separable model ``C ⊗ K``: the same
    spatial kernel K for every parameter, coupled by the ``Np × Np``
    correlation ``C``.  Requires all parameters to share one kernel/KLE
    object (otherwise ``C ⊗ K`` is not the model being asked for).
    """
    if cross_correlation is None:
        return None
    matrix = np.asarray(cross_correlation, dtype=float)
    if matrix.shape != (num_parameters, num_parameters):
        raise ValueError(
            f"cross_correlation must be ({num_parameters}, {num_parameters}),"
            f" got {matrix.shape}"
        )
    if not np.allclose(matrix, matrix.T, atol=1e-10):
        raise ValueError("cross_correlation must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-10):
        raise ValueError("cross_correlation must have a unit diagonal")
    if not shared_object:
        raise ValueError(
            "cross_correlation requires all parameters to share one "
            "kernel/KLE object (the separable C ⊗ K model)"
        )
    return cholesky_with_jitter(matrix)


class CholeskySampleGenerator:
    """Algorithm 1: exact correlated samples via full-covariance Cholesky.

    Parameters
    ----------
    kernels:
        Mapping parameter name → covariance kernel.  Parameters sharing the
        *same kernel object* share one factorization (the paper factorizes
        per parameter; sharing only changes setup cost, not statistics).
    cross_correlation:
        Optional ``Np × Np`` parameter correlation matrix for the separable
        ``C ⊗ K`` model (requires a shared kernel object); ``None`` keeps
        the paper's independent-parameters assumption.
    """

    def __init__(
        self,
        kernels: Mapping[str, CovarianceKernel],
        *,
        cross_correlation: Optional[np.ndarray] = None,
    ):
        if not kernels:
            raise ValueError("need at least one statistical parameter")
        self.kernels = dict(kernels)
        shared = len({id(k) for k in self.kernels.values()}) == 1
        self._cross_upper = _validate_cross_correlation(
            cross_correlation, len(self.kernels), shared
        )
        self._factor_cache: Dict[int, np.ndarray] = {}
        self._cached_locations: Optional[np.ndarray] = None

    def prepare(self, gate_locations: np.ndarray) -> float:
        """Factorize the gate covariance for each distinct kernel.

        Returns the setup wall-clock seconds.  Re-preparing with identical
        locations is a no-op.
        """
        gate_locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
        if (
            self._cached_locations is not None
            and self._cached_locations.shape == gate_locations.shape
            and np.array_equal(self._cached_locations, gate_locations)
        ):
            return 0.0
        start = time.perf_counter()
        self._factor_cache.clear()
        for kernel in self.kernels.values():
            key = id(kernel)
            if key not in self._factor_cache:
                self._factor_cache[key] = cholesky_with_jitter(
                    kernel.matrix(gate_locations)
                )
        self._cached_locations = gate_locations.copy()
        return time.perf_counter() - start

    def generate(
        self,
        gate_locations: np.ndarray,
        num_samples: int,
        *,
        seed: SeedLike = None,
        expand: bool = True,
    ) -> SampleGenerationResult:
        """Produce the per-parameter ``(N, N_g)`` sample matrices.

        Algorithm 1 samples are per gate already, so ``expand`` changes
        nothing: the result always has ``columns=None`` (the identity).
        It is accepted so callers can ask either generator for its
        compact form.
        """
        del expand
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        setup_seconds = self.prepare(gate_locations)
        generators = spawn_generators(seed, len(self.kernels))
        start = time.perf_counter()
        raw: Dict[str, np.ndarray] = {}
        for (name, kernel), rng in zip(self.kernels.items(), generators):
            upper = self._factor_cache[id(kernel)]
            normals = rng.standard_normal((num_samples, upper.shape[0]))
            raw[name] = normals @ upper
        samples = _mix_parameters(raw, self._cross_upper)
        generate_seconds = time.perf_counter() - start
        return SampleGenerationResult(samples, setup_seconds, generate_seconds)


class KLESampleGenerator:
    """Algorithm 2: reduced-dimensionality samples from a solved KLE.

    Parameters
    ----------
    kles:
        Mapping parameter name → :class:`KLEResult`.  Parameters may share
        one KLE object (same kernel/mesh) — each still gets independent RVs.
    r:
        Truncation order (number of retained RVs per parameter); ``None``
        applies each KLE's own 1 %-criterion (:func:`select_truncation`).
    """

    def __init__(
        self,
        kles: Mapping[str, KLEResult],
        *,
        r: Optional[int] = None,
        cross_correlation: Optional[np.ndarray] = None,
        sampler: str = "pseudo",
    ):
        if not kles:
            raise ValueError("need at least one statistical parameter")
        if sampler not in ("pseudo", "antithetic", "sobol"):
            raise ValueError(
                f"sampler must be 'pseudo', 'antithetic' or 'sobol', "
                f"got {sampler!r}"
            )
        self.sampler = sampler
        self.kles = dict(kles)
        shared = len({id(k) for k in self.kles.values()}) == 1
        self._cross_upper = _validate_cross_correlation(
            cross_correlation, len(self.kles), shared
        )
        self.r: Dict[str, int] = {}
        for name, kle in self.kles.items():
            order = kle.select_truncation() if r is None else r
            if not 1 <= order <= kle.num_eigenpairs:
                raise ValueError(
                    f"r={order} outside [1, {kle.num_eigenpairs}] for {name!r}"
                )
            self.r[name] = order
        self._reconstruction: Dict[str, np.ndarray] = {
            name: kle.reconstruction_matrix(self.r[name])
            for name, kle in self.kles.items()
        }
        self._triangle_cache: Dict[int, np.ndarray] = {}
        self._cached_locations: Optional[np.ndarray] = None

    def prepare(self, gate_locations: np.ndarray) -> float:
        """Resolve each gate's containing triangle (Algorithm 2 line 5).

        Returns the setup wall-clock seconds; cached per location set.
        """
        gate_locations = np.asarray(gate_locations, dtype=float).reshape(-1, 2)
        if (
            self._cached_locations is not None
            and self._cached_locations.shape == gate_locations.shape
            and np.array_equal(self._cached_locations, gate_locations)
        ):
            return 0.0
        start = time.perf_counter()
        self._triangle_cache.clear()
        for kle in self.kles.values():
            key = id(kle)
            if key not in self._triangle_cache:
                triangles = np.asarray(
                    kle.locator.locate_many(gate_locations), dtype=np.int64
                )
                # Handed out as SampleGenerationResult.columns: callers
                # share the cached map, so it must not be writable.
                triangles.flags.writeable = False
                self._triangle_cache[key] = triangles
        self._cached_locations = gate_locations.copy()
        return time.perf_counter() - start

    def generate(
        self,
        gate_locations: np.ndarray,
        num_samples: int,
        *,
        seed: SeedLike = None,
        expand: bool = True,
    ) -> SampleGenerationResult:
        """Produce the per-parameter samples from one set of RNG draws.

        ``expand=True`` (the default) returns ``(N, N_g)`` per-gate
        matrices.  ``expand=False`` returns each parameter's ``(N, n_t)``
        triangle values with its gate→triangle map in
        :attr:`SampleGenerationResult.columns`; gathering those columns
        gives the expanded matrices bit for bit (the cross-parameter mix
        is elementwise, so it commutes exactly with the gather).
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        setup_seconds = self.prepare(gate_locations)
        generators = spawn_generators(seed, len(self.kles))
        start = time.perf_counter()
        raw: Dict[str, np.ndarray] = {}
        if self.sampler == "sobol":
            # One joint Sobol design over all parameters' RVs: slicing a
            # single low-discrepancy point set keeps the ξ blocks jointly
            # uniform.  (Independently scrambled engines are *strongly*
            # cross-correlated — a classic QMC pitfall.)
            total_dims = sum(self.r[name] for name in self.kles)
            joint = _draw_normals(
                generators[0], num_samples, total_dims, "sobol"
            )
            offset = 0
            xi_blocks: Dict[str, np.ndarray] = {}
            for name in self.kles:
                xi_blocks[name] = joint[:, offset : offset + self.r[name]]
                offset += self.r[name]
        else:
            xi_blocks = {
                name: _draw_normals(rng, num_samples, self.r[name], self.sampler)
                for (name, _kle), rng in zip(self.kles.items(), generators)
            }
        columns = {
            name: self._triangle_cache[id(kle)]
            for name, kle in self.kles.items()
        }
        # Compact values share one allocation: it is returned to the OS
        # as soon as the caller drops it, instead of leaving (N, n_t)
        # holes in the heap that pin resident memory between calls.
        widths = {
            name: self._reconstruction[name].shape[0] for name in self.kles
        }
        pool = None
        if not expand:
            pool = np.empty(num_samples * sum(widths.values()))
        offset = 0
        for name in self.kles:
            d_lambda = self._reconstruction[name]  # (nt, r)
            if pool is None:
                # Gathering each parameter as soon as it exists keeps
                # one (N, nt) temporary alive next to the outputs.
                values = xi_blocks[name] @ d_lambda.T  # (N, nt)
                raw[name] = np.take(values, columns[name], axis=1)
                continue
            size = num_samples * widths[name]
            raw[name] = pool[offset : offset + size].reshape(
                num_samples, widths[name]
            )
            np.matmul(xi_blocks[name], d_lambda.T, out=raw[name])
            offset += size
        samples = _mix_parameters(raw, self._cross_upper)
        generate_seconds = time.perf_counter() - start
        return SampleGenerationResult(
            samples,
            setup_seconds,
            generate_seconds,
            None if expand else columns,
        )


def _draw_normals(
    rng: np.random.Generator,
    num_samples: int,
    dimension: int,
    sampler: str,
) -> np.ndarray:
    """Standard-normal draws with optional variance reduction.

    - ``"pseudo"``: plain Monte Carlo.
    - ``"antithetic"``: pairs ``(z, -z)`` — cancels odd-moment noise.
    - ``"sobol"``: scrambled Sobol' low-discrepancy points mapped through
      the normal inverse CDF.  QMC is only effective in *low* dimension —
      exactly what the KLE truncation delivers (r ≈ 25 per parameter vs
      thousands of gate RVs), so this option is a direct dividend of the
      paper's dimensionality reduction.
    """
    if sampler == "pseudo":
        return rng.standard_normal((num_samples, dimension))
    if sampler == "antithetic":
        half = (num_samples + 1) // 2
        base = rng.standard_normal((half, dimension))
        paired = np.concatenate([base, -base], axis=0)
        return paired[:num_samples]
    if sampler == "sobol":
        from scipy.stats import norm, qmc

        engine = qmc.Sobol(
            d=dimension, scramble=True,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        # Sobol' balance properties hold at powers of two; draw the next
        # power and trim rather than emit an unbalanced tail.
        exponent = max(int(np.ceil(np.log2(max(num_samples, 1)))), 0)
        uniforms = engine.random_base2(exponent)[:num_samples]
        # Guard the open-interval requirement of the inverse CDF.
        uniforms = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
        return norm.ppf(uniforms)
    raise ValueError(f"unknown sampler {sampler!r}")


def _mix_parameters(
    raw: Dict[str, np.ndarray],
    cross_upper: Optional[np.ndarray],
) -> Dict[str, np.ndarray]:
    """Couple independent per-parameter fields by the C-Cholesky mix.

    With ``L = cross_upper.T`` (lower factor of C) the mixed fields
    ``P_j = Σ_k L[j, k] W_k`` have cross-covariance
    ``Cov(P_j(x), P_m(y)) = C[j, m] K(x, y)`` — the separable C ⊗ K model.
    """
    if cross_upper is None:
        return raw
    names = list(raw)
    lower = cross_upper.T
    mixed: Dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        result = lower[j, 0] * raw[names[0]]
        for k in range(1, j + 1):
            # Structural sparsity of the Cholesky factor: entries are
            # assigned exactly 0.0, never computed, so exact != is right.
            if lower[j, k] != 0.0:  # repro-lint: disable=REPRO-FLOAT001
                result = result + lower[j, k] * raw[names[k]]
        mixed[name] = result
    return mixed
