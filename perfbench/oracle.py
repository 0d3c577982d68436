"""Output checks against references that share no state with the engine.

For each checked row at time t_now:

* ``P_tau`` and ``T_tau`` against raw exponentially weighted sums over the
  tape, written here in plain numpy;
* ``effective_n``, ``lambda_IH`` and ``P_IH`` against a from-scratch
  ``resample_full`` of the unpruned window followed by ``solve_pencil``,
  which replaces the engine's incremental state by a direct sum;
* ``T_IH`` the same way, except where the top eigenvalue is tied: then the
  tie-break may pick any state of the tied space, and on constant-flow tapes
  (every eigenvalue equal) legitimate picks differ in age by O(1). Near a
  tie the top state itself is ill-conditioned: its error grows as one over
  the relative gap g to the next eigenvalue (Davis-Kahan), and ages in the
  window span thousands of seconds, so the T_IH tolerance is divided by g.

The worst gap of each field is returned beside the pass/fail verdict, so
a drift that stays inside tolerance still shows.
"""

from __future__ import annotations

import math

import numpy as np

import psima

# Relative tolerances. The classical readings are order-0 moment ratios;
# engine and reference differ only by rounding in the incremental shift.
CLASSICAL_RTOL = 1e-9
# Top-state readings pass through an eigensolve that the resolution gate
# accepts up to kappa 1e5 with normalization error up to 1e-10.
SPECTRAL_RTOL = 1e-5
# Top eigenvalues closer than this, relative, count as tied for T_IH.
TIE_RTOL = 1e-6
PRUNE_HORIZON = -math.log(1e-16)


def rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def evenly_spaced(count: int, k: int) -> list[int]:
    if count <= k:
        return list(range(count))
    return sorted({round(i * (count - 1) / (k - 1)) for i in range(k)})


def raw_classical(t, p, dV, t_now: float, tau: float) -> tuple[float, float]:
    """(P_tau, T_tau) from direct weighted sums over ticks at or before t_now."""
    j = int(np.searchsorted(t, t_now, side="right"))
    age = t_now - t[:j]
    wdv = np.exp(-age / tau) * dV[:j]
    vol = float(np.sum(wdv))
    return float(np.sum(wdv * p[:j])) / vol, float(np.sum(wdv * age)) / vol


def reference(t, p, dV, t_now: float, tau: float, basis, n: int) -> dict:
    """effective_n and top-state readings from a from-scratch solve."""
    j = int(np.searchsorted(t, t_now, side="right"))
    # The tick just before the horizon stands in for the tape's head: its
    # weight is below the engine's prune floor, so it adds nothing, and the
    # first tick inside the window keeps its true time interval.
    a = max(int(np.searchsorted(t, t_now - PRUNE_HORIZON * tau)) - 1, 0)
    window = (t[a:j], p[a:j], dV[a:j])
    moments = {kind: psima.resample_full(window, t_now, tau, basis, 2 * n - 1,
                                         kind)
               for kind in psima.MeasureKind}
    B = psima.gram(moments[psima.MeasureKind.TIME_DT], n)
    A = psima.flow(moments[psima.MeasureKind.VOLUME_DV], n)
    Mp = psima.weighted(moments[psima.MeasureKind.PRICE_VOLUME], n)
    Ma = psima.weighted(moments[psima.MeasureKind.AGE_VOLUME], n)
    try:
        dec = psima.solve_pencil(A, B, tie_breaker=Ma)
    except (psima.DegenerateStateError, psima.EmptyWindowError):
        return {"effective_n": 0, "lambda_IH": 0.0, "top_gap": 0.0}
    m = dec.effective_n
    top = dec.states[dec.i_IH]
    Am = A.entries[:m, :m]
    lam = np.sort(dec.lambdas)
    return {
        "effective_n": m,
        "lambda_IH": float(dec.lambdas[dec.i_IH]),
        "P_IH": psima.f_psi(top, Mp.entries[:m, :m], Am),
        "T_IH": psima.f_psi(top, Ma.entries[:m, :m], Am),
        "top_gap": rel_gap(float(lam[-1]), float(lam[-2])) if m > 1 else 1.0,
    }


def check_rows(rows: list[dict], tape, tau: float, basis, n: int,
               k: int) -> dict:
    """Check ``k`` evenly spaced output rows; return failures and gaps."""
    t, p, dV = tape
    failures = []
    gaps = {"classical": 0.0, "lambda_IH": 0.0, "P_IH": 0.0, "T_IH": 0.0}
    checked = evenly_spaced(len(rows), k)
    skipped_T = 0
    for idx in checked:
        row = rows[idx]
        t_now = float(row["t"])
        P_tau, T_tau = raw_classical(t, p, dV, t_now, tau)
        g = max(rel_gap(float(row["P_tau"]), P_tau),
                rel_gap(float(row["T_tau"]), T_tau))
        gaps["classical"] = max(gaps["classical"], g)
        if g > CLASSICAL_RTOL:
            failures.append(f"row {idx}: classical gap {g:.3g}")
        ref = reference(t, p, dV, t_now, tau, basis, n)
        got_n = int(row["effective_n"])
        if got_n != ref["effective_n"]:
            failures.append(f"row {idx}: effective_n {got_n} != "
                            f"{ref['effective_n']}")
            continue
        if got_n == 0:
            # single-trade fallback: adaptive columns repeat classical ones
            same = (row["P_IH"] == row["P_tau"] and row["T_IH"] == row["T_tau"]
                    and float(row["lambda_IH"]) == 0.0)
            if not same:
                failures.append(f"row {idx}: fallback row not classical")
            continue
        tol = {"lambda_IH": SPECTRAL_RTOL, "P_IH": SPECTRAL_RTOL}
        if ref["top_gap"] > TIE_RTOL:
            tol["T_IH"] = SPECTRAL_RTOL / ref["top_gap"]
        else:
            skipped_T += 1
        for f, rtol in tol.items():
            g = rel_gap(float(row[f]), ref[f])
            gaps[f] = max(gaps[f], g)
            if g > rtol:
                failures.append(f"row {idx}: {f} gap {g:.3g} over {rtol:.3g}")
    return {"checked": len(checked), "failures": failures, "gaps": gaps,
            "T_IH_skipped_tied": skipped_T}
