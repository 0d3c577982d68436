"""Operator matrices over the window: Gram, flow, and weighted variants.

An operator matrix is the quadratic form <Q_j| f |Q_k> assembled from a
single moment vector of length 2n-1 through the linearization table:
M[j,k] = sum_m c_m^{jk} <Q_m f>. The Gram matrix (time measure) is the
right-hand side of the flow pencil; the volume matrix is its left-hand
side; price- and age-weighted matrices turn eigenstates into price and age
readings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (BasisId, _integer, linearization_table,
                    matrix_from_moments)
from .errors import InputError
from .measure import MeasureKind, MomentVector

__all__ = ["OperatorMatrix", "gram", "flow", "weighted"]


@dataclass(frozen=True)
class OperatorMatrix:
    n: int
    entries: np.ndarray  # symmetric (n, n)
    measure: MeasureKind
    basis: BasisId
    t_now: float
    tau: float


def _assemble(moments, n, name: str,
              kind: MeasureKind | None = None) -> OperatorMatrix:
    if not isinstance(moments, MomentVector):
        raise InputError(f"{name} must be a MomentVector, got {moments!r}")
    if kind not in (None, moments.measure):
        raise InputError(f"{name} must hold {kind.value} moments")
    n = _integer(n, "n")
    table = linearization_table(moments.basis, n - 1)
    entries = matrix_from_moments(moments.values, n, table)
    return OperatorMatrix(n=n, entries=entries, measure=moments.measure,
                          basis=moments.basis, t_now=moments.t_now,
                          tau=moments.tau)


def gram(moments_time: MomentVector, n: int) -> OperatorMatrix:
    """B = <Q_j|Q_k> against the time measure."""
    return _assemble(moments_time, n, "moments_time", MeasureKind.TIME_DT)


def flow(moments_volume: MomentVector, n: int) -> OperatorMatrix:
    """A = <Q_j|I|Q_k>: the execution-flow operator (volume measure)."""
    return _assemble(moments_volume, n, "moments_volume",
                     MeasureKind.VOLUME_DV)


def weighted(moments_any: MomentVector, n: int) -> OperatorMatrix:
    """<Q_j| f |Q_k> for any measure; price and age numerators live here."""
    return _assemble(moments_any, n, "moments_any")
