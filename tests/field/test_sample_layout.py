"""Every gathered sample matrix is C-contiguous and bitwise the old gather.

Fancy indexing ``values[:, idx]`` returns a Fortran-ordered array, and
every consumer reads sample matrices in row blocks, so the sample
gathers use ``np.take(values, idx, axis=1)`` instead.  Two checks per
site: the layout (C-contiguous) and the values (bitwise equal to the
fancy-index gather they replace).  The sites are the Algorithm 2
generator, the MLMC coupled sampler (fine and coarse fields) and the
MLMC surrogate's ξ → field map.
"""

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.field.sampling import CholeskySampleGenerator, KLESampleGenerator
from repro.mlmc import KLERankHierarchy
from repro.mlmc.sampler import CoupledLevelSampler
from repro.mlmc.surrogate import LinearDelaySurrogate
from repro.place.placer import place_netlist
from repro.timing.library import STATISTICAL_PARAMETERS
from repro.timing.sta import STAEngine

DIE = (-1.0, -1.0, 1.0, 1.0)
SAMPLERS = ("pseudo", "antithetic", "sobol")
CROSS = np.array(
    [
        [1.0, 0.5, 0.0, 0.0],
        [0.5, 1.0, 0.2, 0.0],
        [0.0, 0.2, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


@pytest.fixture(scope="module")
def gate_locations():
    return np.random.default_rng(8).uniform(-0.95, 0.95, (60, 2))


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("cross", [None, CROSS], ids=["independent", "cross"])
def test_kle_generator_output_is_c_contiguous_and_bitwise(
    gaussian_kle, gate_locations, sampler, cross
):
    generator = KLESampleGenerator(
        {name: gaussian_kle for name in STATISTICAL_PARAMETERS},
        r=10,
        sampler=sampler,
        cross_correlation=cross,
    )
    expanded = generator.generate(gate_locations, 33, seed=4)
    compact = generator.generate(gate_locations, 33, seed=4, expand=False)
    for name, matrix in expanded.samples.items():
        assert matrix.shape == (33, len(gate_locations))
        assert matrix.flags.c_contiguous, f"{name} is not C-ordered"
        assert compact.samples[name].flags.c_contiguous
        old_gather = compact.samples[name][:, compact.columns[name]]
        assert np.array_equal(matrix, old_gather)


def test_cholesky_generator_output_is_c_contiguous(
    gaussian_kernel, gate_locations
):
    generator = CholeskySampleGenerator(
        {name: gaussian_kernel for name in STATISTICAL_PARAMETERS}
    )
    for expand in (True, False):
        result = generator.generate(gate_locations, 12, seed=1, expand=expand)
        assert result.columns is None
        for matrix in result.samples.values():
            assert matrix.flags.c_contiguous


@pytest.fixture(scope="module")
def coupled(gaussian_kle, gate_locations):
    models = KLERankHierarchy(gaussian_kle, [5, 12]).models()
    return CoupledLevelSampler(models[1], models[0], gate_locations)


def test_mlmc_draw_fields_are_c_contiguous_and_bitwise(coupled):
    draw = coupled.generate(25, seed=6)
    for name, xi in draw.xi.items():
        fmap = coupled._fine_maps[name]
        cmap = coupled._coarse_maps[name]
        fine = draw.fine_fields[name]
        coarse = draw.coarse_fields[name]
        assert fine.flags.c_contiguous and coarse.flags.c_contiguous
        assert np.array_equal(
            fine, (xi @ fmap.d_lambda.T)[:, fmap.triangles]
        )
        assert np.array_equal(
            coarse, (xi[:, : cmap.rank] @ cmap.d_lambda.T)[:, cmap.triangles]
        )


def test_surrogate_fields_are_c_contiguous_and_bitwise(gaussian_kle):
    netlist = load_circuit("c17")
    placement = place_netlist(netlist, DIE, seed=3)
    engine = STAEngine(netlist, placement)
    model = KLERankHierarchy(gaussian_kle, [4]).models()[0]
    surrogate = LinearDelaySurrogate(
        engine, model, placement.gate_locations()
    )
    xi = np.random.default_rng(2).standard_normal((9, surrogate.dimension))
    fields = surrogate._fields_from_xi(xi)
    offset = 0
    for name, pmap in surrogate._maps.items():
        block = xi[:, offset : offset + pmap.rank]
        offset += pmap.rank
        assert fields[name].flags.c_contiguous
        assert np.array_equal(
            fields[name], (block @ pmap.d_lambda.T)[:, pmap.triangles]
        )
