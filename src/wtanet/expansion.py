"""Trigonometric functional-link expansion of raw input vectors.

A raw stimulus ``s`` of length ``n`` is mapped to a fixed, deterministic
basis pattern: the raw components, then ``order`` sine/cosine harmonics
per component, then an optional constant bias term.  The expansion gives
a single linear layer nonlinear capacity without hidden neurons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpansionSpec:
    """Shape of the input expansion.

    ``order`` is the number of trigonometric harmonics per input
    component; ``order=0`` with bias reduces the expansion to ``[s, 1]``.
    Inputs are expected pre-normalized to [0, 1]; expand does not clamp.
    """

    input_dim: int
    order: int = 0
    include_bias: bool = True

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")


def expansion_dim(spec: ExpansionSpec) -> int:
    """Length of the expanded pattern: n*(2K+1), plus 1 when biased."""
    m = spec.input_dim * (2 * spec.order + 1)
    return m + 1 if spec.include_bias else m


def _expand_block(spec: ExpansionSpec, x: np.ndarray) -> np.ndarray:
    # x is (N, n), already validated.  Component order is fixed so that
    # chromosomes and serialized models stay portable: raw components
    # first, then per-component harmonic blocks in (component, harmonic,
    # sin-before-cos) order, bias last.
    n_rows, n = x.shape
    k = spec.order
    out = np.empty((n_rows, expansion_dim(spec)), dtype=np.float64)
    out[:, :n] = x
    col = n
    for i in range(n):
        for h in range(1, k + 1):
            arg = np.pi * h * x[:, i]
            out[:, col] = np.sin(arg)
            out[:, col + 1] = np.cos(arg)
            col += 2
    if spec.include_bias:
        out[:, col] = 1.0
    return out


def expand(spec: ExpansionSpec, s) -> np.ndarray:
    """Expand a single raw vector into its basis pattern.

    Args:
        spec: expansion shape.
        s: raw vector of length ``spec.input_dim``; all entries finite.

    Returns:
        1-D float64 array of length ``expansion_dim(spec)``.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != spec.input_dim:
        raise ValueError(
            f"input length mismatch: expected {spec.input_dim}, "
            f"got shape {s.shape}"
        )
    bad = np.nonzero(~np.isfinite(s))[0]
    if bad.size:
        raise ValueError(f"non-finite input entry at index {int(bad[0])}")
    return _expand_block(spec, s[np.newaxis, :])[0]


def expand_batch(spec: ExpansionSpec, x) -> np.ndarray:
    """Expand a batch of raw vectors; row i equals ``expand(spec, x[i])``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(
            f"input shape mismatch: expected (*, {spec.input_dim}), "
            f"got {x.shape}"
        )
    bad_rows, bad_cols = np.nonzero(~np.isfinite(x))
    if bad_rows.size:
        raise ValueError(
            f"non-finite input entry at row {int(bad_rows[0])}, "
            f"index {int(bad_cols[0])}"
        )
    return _expand_block(spec, x)
