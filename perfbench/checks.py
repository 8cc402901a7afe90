"""Output checks of the three workloads.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; the runner counts every reason as one failed
operation.  The checks take plain library results so the tests can feed
them seeded defects.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence

import numpy as np

#: The reference (per-gate) oracle must agree with the compiled engine to
#: this relative tolerance (the repository's differential contract).
ORACLE_RTOL = 1e-12
#: Table-1 shape bounds, as asserted by the Table-1 bench.
TABLE1_MAX_E_MU_PCT = 1.0
TABLE1_MAX_E_SIGMA_PCT = 12.0
#: Chan's pairwise merge against a direct two-pass moment computation.
MERGE_RTOL = 1e-9


def oracle_mismatch(timed: Any, oracle: Any, rows: int) -> Optional[str]:
    """Compare the first ``rows`` samples of a timed run with the oracle."""
    pairs = [("worst_delay", timed.worst_delay[:rows], oracle.worst_delay)]
    for net, values in oracle.end_arrivals.items():
        if net not in timed.end_arrivals:
            return f"oracle end point {net!r} missing from the timed run"
        pairs.append((net, timed.end_arrivals[net][:rows], values))
    for label, got, want in pairs:
        if got.shape != want.shape:
            return f"{label}: shape {got.shape} != oracle {want.shape}"
        if not np.allclose(got, want, rtol=ORACLE_RTOL, atol=0.0):
            worst = float(np.max(np.abs(got - want) / np.abs(want)))
            return f"{label}: relative error {worst:.3g} > {ORACLE_RTOL}"
    return None


def table1_mismatch(row: Any) -> Optional[str]:
    """The Table-1 row's moments are finite and its errors within bounds."""
    moments = (row.reference_mean, row.reference_std, row.kle_mean, row.kle_std)
    if not all(math.isfinite(m) for m in moments):
        return f"non-finite moments {moments}"
    if not row.e_mu_percent < TABLE1_MAX_E_MU_PCT:
        return f"e_mu {row.e_mu_percent:.3f}% >= {TABLE1_MAX_E_MU_PCT}%"
    if not row.e_sigma_percent < TABLE1_MAX_E_SIGMA_PCT:
        return f"e_sigma {row.e_sigma_percent:.3f}% >= {TABLE1_MAX_E_SIGMA_PCT}%"
    if not row.e_mu_percent < row.e_sigma_percent + 1.0:
        return f"e_mu {row.e_mu_percent:.3f}% not below e_sigma + 1"
    return None


def merge_mismatch(
    streamed: Any, chunk_worst_delays: Sequence[np.ndarray], num_samples: int
) -> Optional[str]:
    """A streamed result's moments against the concatenated chunks."""
    direct = np.concatenate(list(chunk_worst_delays))
    if streamed.num_samples != num_samples or direct.size != num_samples:
        return (
            f"merged {streamed.num_samples} samples, direct {direct.size}, "
            f"requested {num_samples}"
        )
    for label, got, want in (
        ("mean", streamed.mean_worst_delay(), float(np.mean(direct))),
        ("std", streamed.std_worst_delay(), float(np.std(direct))),
    ):
        if not math.isclose(got, want, rel_tol=MERGE_RTOL, abs_tol=0.0):
            return f"merged {label} {got!r} != direct {want!r}"
    return None


def same_bits(a: Any, b: Any) -> bool:
    left = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    right = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def same_mapping(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)


def bitwise_mismatch(served: Any, serial: Any) -> Optional[str]:
    """A service result against the serial ``MonteCarloSSTA`` run.

    One-shot results carry per-sample arrays; chunked results carry
    streamed moments.  Either way every float must match bit for bit.
    """
    if served.num_samples != serial.num_samples:
        return f"served {served.num_samples} samples, serial {serial.num_samples}"
    if hasattr(served, "worst_delay") and hasattr(serial, "worst_delay"):
        if not same_bits(served.worst_delay, serial.worst_delay):
            return "worst-delay samples differ"
        if not same_mapping(served.end_arrivals, serial.end_arrivals):
            return "end-point arrivals differ"
        return None
    pairs = (
        ("mean", served.mean_worst_delay(), serial.mean_worst_delay()),
        ("std", served.std_worst_delay(), serial.std_worst_delay()),
    )
    for label, got, want in pairs:
        if not same_bits(got, want):
            return f"streamed {label} differs: {got!r} != {want!r}"
    if not same_mapping(served.output_mean(), serial.output_mean()):
        return "streamed end-point means differ"
    if not same_mapping(served.output_sigma(), serial.output_sigma()):
        return "streamed end-point sigmas differ"
    return None
