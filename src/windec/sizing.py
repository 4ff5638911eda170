"""Window-size selection from physical coefficients and spectral content.

Two independent signals inform the choice of window size:

- the characteristic length, the distance information travels in one
  timestep (c*dt for transport, sqrt(alpha*dt) or sqrt(nu*dt) for
  diffusion): windows of roughly ten characteristic lengths work well;
- the spectral bandwidth B of the data: with N sample points per unit
  length, a window needs at least ceil((N+1) / (2B)) cells to retain the
  frequency character of a band-limited field.

:func:`recommend_window` combines both into an odd cell count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal, DomainError
from .generators import GridPde


@dataclass(frozen=True)
class SizingReport:
    """Advisory window sizing: inputs, bounds, and the final odd cell count."""

    l_c: float
    courant: float
    min_window_cells: int | None
    recommended_cells: int
    rationale: str

    def as_text(self) -> str:
        """Flat key=value block, one field per line."""
        lines = [
            f"l_c={self.l_c!r}",
            f"courant={self.courant!r}",
            f"min_window_cells={'' if self.min_window_cells is None else self.min_window_cells}",
            f"recommended_cells={self.recommended_cells}",
            f"rationale={self.rationale}",
        ]
        return "\n".join(lines) + "\n"


def courant(c: float, dt: float, dx: float) -> float:
    """Dimensionless cell-crossing count c*dt/dx."""
    if dx <= 0:
        raise DomainError(f"dx must be positive, got {dx}")
    if dt < 0:
        raise DomainError(f"dt must be non-negative, got {dt}")
    return c * dt / dx


def char_length(kind: str, pde: GridPde, u_max: float | None = None) -> float:
    """Distance physical information travels per timestep.

    kind "advection": |c| * dt.  kind "diffusion": sqrt(alpha*dt), falling
    back to sqrt(nu*dt) when alpha is unset.  kind "burgers": the larger of
    the convective reach u_max*dt (supplied from data) and sqrt(nu*dt).
    """
    if kind == "advection":
        if pde.c is None:
            raise DomainError("advection characteristic length needs c")
        speed = math.sqrt(sum(v * v for v in pde.c))
        return speed * pde.dt
    if kind == "diffusion":
        return math.sqrt((pde.alpha or pde.nu) * pde.dt)
    if kind == "burgers":
        if u_max is None:
            raise DomainError("burgers characteristic length needs u_max from data")
        if u_max < 0:
            raise DomainError("u_max must be non-negative")
        return max(u_max * pde.dt, math.sqrt(pde.nu * pde.dt))
    raise DomainError(f"unknown characteristic-length kind {kind!r}")


def min_window_for_bandwidth(points_per_unit: int, bandwidth: float) -> int:
    """Minimum cells for a window to retain a bandwidth-B frequency character.

    ceil((N + 1) / (2B)) with N sample points per unit length.
    """
    if bandwidth <= 0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")
    if points_per_unit < 1:
        raise DomainError(f"points_per_unit must be >= 1, got {points_per_unit}")
    return math.ceil((points_per_unit + 1) / (2.0 * bandwidth))


def bandwidth_estimate(
    signal, energy_fraction: float = 0.99, dx: float = 1.0
) -> float:
    """Smallest B such that DFT bins within [-B, B] hold the energy fraction.

    ``signal`` is a uniformly sampled 1D sequence with spacing ``dx``; the
    returned bandwidth is in cycles per unit length.
    """
    a = np.asarray(signal, dtype=np.float64).ravel()
    if a.size < 4:
        raise DomainError(f"signal needs >= 4 samples, got {a.size}")
    if not 0 < energy_fraction <= 1:
        raise DomainError(f"energy_fraction must be in (0, 1], got {energy_fraction}")
    if dx <= 0:
        raise DomainError(f"dx must be positive, got {dx}")
    spec = np.fft.fft(a)
    energy = np.abs(spec) ** 2
    total = float(energy.sum())
    if total == 0.0:
        raise DegenerateSignal("signal carries no spectral energy")
    freqs = np.abs(np.fft.fftfreq(a.size, d=dx))
    order = np.argsort(freqs, kind="stable")
    cum = np.cumsum(energy[order])
    cut = np.searchsorted(cum, energy_fraction * total - 1e-12 * total)
    cut = min(cut, a.size - 1)
    return float(freqs[order][cut])


def _next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def recommend_window(
    pde: GridPde,
    kind: str = "advection",
    probe=None,
    u_max: float | None = None,
) -> SizingReport:
    """Advisory window size: ten characteristic lengths, bandwidth-checked.

    The heuristic count is max(3, round(10 * L_c / dx)); when a probe signal
    is supplied its bandwidth bound (the band holding 99% of its energy) is
    also computed and the larger of the two wins.  The result is rounded up
    to the next odd integer so it is always usable as a window size.
    """
    if probe is None and pde.c is None and pde.alpha == 0 and pde.nu == 0 and u_max is None:
        raise DomainError("need physical coefficients or a probe signal")
    l_c = char_length(kind, pde, u_max=u_max) if (
        kind != "burgers" or u_max is not None
    ) else 0.0
    speed = 0.0
    if pde.c is not None:
        speed = math.sqrt(sum(v * v for v in pde.c))
    elif u_max is not None:
        speed = u_max
    cfl = courant(speed, pde.dt, pde.dx)
    heuristic = max(3, round(10.0 * l_c / pde.dx))
    bound = None
    if probe is not None:
        n_per_unit = max(1, round(1.0 / pde.dx))
        bandwidth = bandwidth_estimate(probe, dx=pde.dx)
        if bandwidth > 0:
            bound = min_window_for_bandwidth(n_per_unit, bandwidth)
    cells = _next_odd(max(heuristic, bound or 1))
    parts = [f"10*L_c/dx={10.0 * l_c / pde.dx:.3g}"]
    if bound is not None:
        parts.append(f"bandwidth bound={bound}")
    rationale = f"max of heuristic and bandwidth bound, rounded up to odd ({'; '.join(parts)})"
    return SizingReport(
        l_c=l_c,
        courant=cfl,
        min_window_cells=bound,
        recommended_cells=cells,
        rationale=rationale,
    )
