"""Block-based SSTA's normal functions come from ``scipy.special``.

Importing ``scipy.stats`` costs ~0.4 s, so ``import repro.timing`` must
not pull it in (checked in a fresh interpreter, since this test process
may already hold the module), and the replacements must give the very
bits ``scipy.stats.norm`` gives.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from repro.timing.block_ssta import _normal_pdf


def test_import_repro_timing_skips_scipy_stats():
    script = (
        "import sys, repro.timing; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_normal_functions_match_scipy_stats_bitwise():
    rng = np.random.default_rng(2008)
    xs = np.concatenate(
        [rng.standard_normal(20_000) * 3.0, rng.uniform(-40.0, 40.0, 2_000)]
    ).tolist()
    assert [_normal_pdf(x) for x in xs] == [float(norm.pdf(x)) for x in xs]
    assert [float(ndtr(x)) for x in xs] == [float(norm.cdf(x)) for x in xs]
    qs = rng.uniform(size=2_000).tolist()
    assert [float(ndtri(q)) for q in qs] == [float(norm.ppf(q)) for q in qs]
