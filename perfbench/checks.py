"""Operation bookkeeping and the statistics behind every tolerance.

An operation fails if it raises, exits non-zero, writes NaN or fails its
correctness check.  Monte-Carlo checks compare an estimate with its
expectation within K_SIGMA standard errors; the errors come from the data
(a delete-one-block jackknife, or Poisson counting), never from the outcome
of a particular seed.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Two-sided false-alarm rate of a 6-sigma gate: 2e-9 for a normal deviate and
# about 1e-6 when the error comes from a 32-block jackknife (t with 31 dof).
K_SIGMA = 6.0
JACKKNIFE_BLOCKS = 32

_NOT_FINITE = re.compile(rb"(?i)(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])")


class Tally:
    """Counts attempted and failed operations and keeps each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextmanager
    def op(self, name):
        """Yield a list to which the operation's checks append problems."""
        problems = []
        self.attempted += 1
        try:
            yield problems
        except Exception as exc:     # a failed operation must not stop the run
            problems.append(f"raised {type(exc).__name__}: {exc}")
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def within(label, value, expected, sigma):
    """Problem list for |value - expected| > K_SIGMA sigma (or a non-finite input)."""
    if not (math.isfinite(value) and math.isfinite(sigma) and sigma >= 0):
        return [f"{label}: non-finite value {value!r} or error {sigma!r}"]
    if abs(value - expected) > K_SIGMA * sigma:
        return [f"{label} = {value:.6g}, expected {expected:.6g} "
                f"+- {K_SIGMA:g} x {sigma:.3g}"]
    return []


def poisson_within(label, count, mean, overdispersion=1.0):
    """Counting check: Poisson variance mean * overdispersion."""
    return within(label, float(count), mean, math.sqrt(mean * overdispersion))


def jackknife_se(estimate, n):
    """Delete-one-block jackknife standard errors of estimate(mask) -> array.

    The n items must be independent; the JACKKNIFE_BLOCKS blocks are
    contiguous index ranges.
    """
    groups = np.array_split(np.arange(n), min(JACKKNIFE_BLOCKS, n))
    loo = []
    for group in groups:
        keep = np.ones(n, dtype=bool)
        keep[group] = False
        loo.append(np.asarray(estimate(keep), dtype=float))
    loo = np.array(loo)
    g = len(groups)
    return np.sqrt((g - 1) / g * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))


def non_finite_problems(paths):
    """Report any output file holding NaN or infinity.

    Text files are scanned for non-finite number tokens; .npz archives are
    loaded and every floating array is tested.
    """
    problems = []
    for path in map(Path, paths):
        if path.suffix == ".npz":
            with np.load(path) as data:
                for key in data.files:
                    arr = data[key]
                    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
                        problems.append(f"{path.name}:{key} holds NaN or inf")
        elif _NOT_FINITE.search(path.read_bytes()):
            problems.append(f"{path.name} holds NaN or inf")
    return problems
