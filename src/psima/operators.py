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


def _assemble(moments: MomentVector, n: int) -> OperatorMatrix:
    n = _integer(n, "n")
    table = linearization_table(moments.basis, n - 1)
    entries = matrix_from_moments(moments.values, n, table)
    return OperatorMatrix(n=n, entries=entries, measure=moments.measure,
                          basis=moments.basis, t_now=moments.t_now,
                          tau=moments.tau)


def gram(moments_time: MomentVector, n: int) -> OperatorMatrix:
    """B = <Q_j|Q_k> against the time measure."""
    if moments_time.measure is not MeasureKind.TIME_DT:
        raise InputError("gram expects time-measure moments")
    return _assemble(moments_time, n)


def flow(moments_volume: MomentVector, n: int) -> OperatorMatrix:
    """A = <Q_j|I|Q_k>: the execution-flow operator (volume measure)."""
    if moments_volume.measure is not MeasureKind.VOLUME_DV:
        raise InputError("flow expects volume-measure moments")
    return _assemble(moments_volume, n)


def weighted(moments_any: MomentVector, n: int) -> OperatorMatrix:
    """<Q_j| f |Q_k> for any measure; price and age numerators live here."""
    return _assemble(moments_any, n)
