"""Reduced Ricci flow on the two twistor metric families.

The flow is integrated in the variables (rho*mu, rho), where the Z family
is linear; closed forms, trajectory invariants, extinction/collapse
classification and the entropy diagnostics live here.

A `Trajectory` is stored by column (lists `t`, `rho`, `mu` and
`invariant_series`); `Trajectory.samples` is a read-only view that builds a
`FlowState` per sample on demand.

The exports are written to a text stream as they are formatted, BLOCK_ROWS
rows per write, so beyond the trajectory's columns their memory does not
grow with the sample count; `entropy_records` computes each entropy record
when it is read.  The CSV writer formats a row of floats with one
"%.17g,...,%.17g" template and any other row (the exact initial state of a
Fraction-valued library call) value by value through `_fmt`, which prints a
Fraction as p/q.  The JSON writer gives the bytes of
`json.dumps([...], separators=(",", ":"))`: a row of finite floats goes
through one %r template, as json prints a float with `float.__repr__`, and
any other row through `json.dumps`.  `trajectory_to_csv` and the other
`*_to_*` functions return the same text as a string.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterator

__all__ = [
    "FlowState",
    "Trajectory",
    "EntropyRecord",
    "Extinct",
    "OnEinsteinRay",
    "StepTooLarge",
    "rhs",
    "closed_form_z",
    "invariant",
    "integrate",
    "classify",
    "entropy_records",
    "entropy_series",
    "write_trajectory",
    "write_entropy",
    "trajectory_to_csv",
    "trajectory_to_json",
    "entropy_to_csv",
    "entropy_to_json",
]

CANONICAL = "canonical"
Z = "z"


class Extinct(ValueError):
    """Requested time lies past the singular time of the solution."""


class OnEinsteinRay(ValueError):
    """The invariant is undefined on the Einstein ray."""


class StepTooLarge(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return format(float(x), ".17g")


@dataclass
class FlowState:
    t: float
    rho: float
    mu: float
    family: str
    n: int

    def __post_init__(self):
        if self.family not in (CANONICAL, Z):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("paper setting requires n > 1")
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must stay positive")
        if self.family == CANONICAL and self.mu >= self.n + 2:
            raise ValueError("canonical family needs mu < n + 2")

    @property
    def rho_mu(self):
        return self.rho * self.mu


class _Samples:
    """Read-only sequence view of a Trajectory's samples as FlowStates."""

    __slots__ = ("_traj",)

    def __init__(self, traj: "Trajectory"):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        tr = self._traj
        return FlowState(tr.t[k], tr.rho[k], tr.mu[k], tr.family, tr.n)


@dataclass
class Trajectory:
    """A flow trajectory stored by column: sample k is (t[k], rho[k], mu[k])
    with first integral invariant_series[k].  Every sample after the initial
    one is a float; the initial one keeps the type it was given."""

    t: list
    rho: list
    mu: list
    invariant_series: list
    family: str
    n: int
    events: dict | None = None

    @property
    def samples(self) -> _Samples:
        """The samples as FlowStates, each built when it is read."""
        return _Samples(self)

    def max_invariant_drift(self) -> float:
        ref = self.invariant_series[0]
        return max(abs(v - ref) for v in self.invariant_series)


@dataclass
class EntropyRecord:
    t: float
    tau: float
    scal: float
    vol_ratio: float
    u: float
    f: float
    w: float


def rhs(state: FlowState) -> tuple[float, float]:
    """(d(rho mu)/dt, d rho/dt); equals -2x the Ricci block coefficients."""
    n, mu = state.n, state.mu
    if state.family == Z:
        return -8, -8 * (n + 2)
    return -8 * (1 + n * mu * mu), -8 * (n + 2 - mu)


def _z_closed(rho0, mu0, n: int, t):
    """(rho, mu) of the exact Z solution at t; raises Extinct past the
    singular time."""
    rho = rho0 - 8 * (n + 2) * t
    rho_mu = rho0 * mu0 - 8 * t
    if rho <= 0 or rho_mu <= 0:
        raise Extinct(f"t={t} is past the singular time")
    return rho, rho_mu / rho


def closed_form_z(rho0, mu0, n: int, t):
    """Exact solution rho = rho0 - 8(n+2)t, rho mu = rho0 mu0 - 8t."""
    rho, mu = _z_closed(rho0, mu0, n, t)
    return FlowState(t=t, rho=rho, mu=mu, family=Z, n=n)


def invariant(state: FlowState):
    """First integral of the reduced flow.

    Z family: rho (mu - 1/(n+2)).  Canonical family: the log form
    log rho - (n+1)/n log|mu - 1| + (n^2+3n+1)/(n(n+1)) log|(n+1) mu - 1|.
    """
    n, mu, rho = state.n, state.mu, state.rho
    if state.family == Z:
        return rho * (mu - Fraction(1, n + 2) if isinstance(mu, Fraction)
                      else mu - 1.0 / (n + 2))
    if mu == 1 or mu * (n + 1) == 1:
        raise OnEinsteinRay("canonical invariant undefined at mu = 1 or 1/(n+1)")
    return (math.log(rho) - (n + 1) / n * math.log(abs(mu - 1))
            + (n * n + 3 * n + 1) / (n * (n + 1)) * math.log(abs((n + 1) * mu - 1)))


# integration stops once rho mu or rho falls to this fraction of its initial value
FLOOR_RATIO = 1e-12
# largest step count one integrate call (which keeps every sample), and
# largest sample count one entropy_records call, accepts; the flows in the
# tests and the benchmark take at most about 31k steps
MAX_STEPS = 10 ** 6


def integrate(initial: FlowState, dt: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 in (rho mu, rho), stopping at t_end or at
    FLOOR_RATIO of the initial values.

    t_end before the initial time integrates backward (the ancient
    direction).  A request for more than MAX_STEPS steps is rejected.  Each
    step appends floats to the trajectory's columns and evaluates the
    invariant inline, with the checks and formulas of FlowState and
    `invariant`.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n, family = initial.n, initial.family
    step = dt if t_end >= initial.t else -dt
    span = (t_end - initial.t) / step
    if not span <= MAX_STEPS:
        raise ValueError(f"(t_end - t0)/dt = {span:.3g} exceeds the {MAX_STEPS} step budget")

    def deriv(v, rho):
        mu = v / rho
        return -8.0 * (1.0 + n * mu * mu), -8.0 * (n + 2 - mu)

    v = initial.rho * initial.mu
    rho = initial.rho
    floor_v = FLOOR_RATIO * v
    floor_rho = FLOOR_RATIO * rho
    t0 = initial.t
    ts, rhos, mus = [t0], [rho], [initial.mu]
    inv = [invariant(initial)]
    on_z = family == Z
    # the constants of `invariant`, computed as it computes them
    z_shift = 1.0 / (n + 2)
    c_fib = (n + 1) / n
    c_base = (n * n + 3 * n + 1) / (n * (n + 1))
    log = math.log
    steps = max(0, int(round(span)))
    if on_z:
        # the Z right-hand side is constant, so every RK4 increment is the
        # same float: the four stage values below, summed as in the general step
        kv, kr = -8.0, -8.0 * (n + 2)
        inc_v = step / 6.0 * (kv + 2 * kv + 2 * kv + kv)
        inc_r = step / 6.0 * (kr + 2 * kr + 2 * kr + kr)
    for k in range(steps):
        if on_z:
            nv, nrho = v + inc_v, rho + inc_r
        else:
            k1v, k1r = deriv(v, rho)
            k2v, k2r = deriv(v + 0.5 * step * k1v, rho + 0.5 * step * k1r)
            k3v, k3r = deriv(v + 0.5 * step * k2v, rho + 0.5 * step * k2r)
            k4v, k4r = deriv(v + step * k3v, rho + step * k3r)
            nv = v + step / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
            nrho = rho + step / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        if nv <= floor_v or nrho <= floor_rho:
            if nv <= 0 or nrho <= 0:
                raise StepTooLarge(
                    f"step {k} would cross a nonpositive value (rho mu={nv}, rho={nrho})")
            break
        v, rho = nv, nrho
        mu = v / rho
        # rho stays above its floor; mu can still underflow to zero
        if mu <= 0:
            raise ValueError("rho and mu must stay positive")
        if on_z:
            iv = rho * (mu - z_shift)
        else:
            if mu >= n + 2:
                raise ValueError("canonical family needs mu < n + 2")
            if mu == 1 or mu * (n + 1) == 1:
                raise OnEinsteinRay("canonical invariant undefined at mu = 1 or 1/(n+1)")
            iv = log(rho) - c_fib * log(abs(mu - 1)) + c_base * log(abs((n + 1) * mu - 1))
        ts.append(t0 + (k + 1) * step)
        rhos.append(rho)
        mus.append(mu)
        inv.append(iv)
    events: dict = {"stopped_at_floor": len(ts) - 1 < steps}
    if family == Z:
        events.update(classify(initial))
    return Trajectory(ts, rhos, mus, inv, family, n, events)


def classify(initial: FlowState) -> dict:
    """Forward-time fate of a Z-family solution.

    mu0 > 1/(n+2): extinction at rho's zero (mu -> infinity);
    mu0 < 1/(n+2): fiber collapse at (rho mu)'s zero with
    rho -> rho0 (1 - (n+2) mu0); on the ray: homothety extinction.
    """
    if initial.family != Z:
        raise ValueError("classification applies to the Z family")
    n = initial.n
    rho0, mu0 = initial.rho, initial.mu
    t_rho = rho0 / (8 * (n + 2))
    t_rho_mu = rho0 * mu0 / 8
    if isinstance(mu0, Fraction):
        on_ray = mu0 == Fraction(1, n + 2)
        above = mu0 > Fraction(1, n + 2)
    else:
        on_ray = mu0 == 1.0 / (n + 2)
        above = mu0 > 1.0 / (n + 2)
    if on_ray:
        return {"mode": "einstein-ray", "time": t_rho, "mu_limit": 1.0 / (n + 2),
                "rho_limit": 0.0}
    if above:
        return {"mode": "extinction", "time": t_rho, "mu_limit": math.inf,
                "rho_limit": 0.0}
    return {"mode": "collapse", "time": t_rho_mu, "mu_limit": 0.0,
            "rho_limit": rho0 * (1 - (n + 2) * mu0)}


def scalar_curvature(rho, mu, n: int):
    """Scal(rho g^Z) = 8/(rho mu) + 16 n (n+2)/rho along the Z family."""
    return 8 / (rho * mu) + 16 * n * (n + 2) / rho


def entropy_records(initial: FlowState, samples: int) -> Iterator[EntropyRecord]:
    """Entropy diagnostics along the ancient side (t < 0, tau = -t) of a
    Z-trajectory with mu0 above the Einstein value, equally spaced in t.

    u is spatially constant (1 over the coframe-normalized volume
    rho^(2n+1) mu), f comes from u = (4 pi tau)^-(2n+1) e^-f, and
    w = tau Scal + f - (4n+2); w is nondecreasing in t.  The arguments are
    checked when this is called and each record is computed when it is read.
    A request for more than MAX_STEPS samples, or a start whose diagnostics
    leave the float range, is rejected.
    """
    if initial.family != Z:
        raise ValueError("entropy diagnostics apply to the Z family")
    n = initial.n
    if initial.mu <= 1.0 / (n + 2):
        raise ValueError("requires mu0 > 1/(n+2), the extinction regime")
    if samples < 2:
        raise ValueError("need at least two samples")
    if samples > MAX_STEPS:
        raise ValueError(f"{samples} samples exceed the {MAX_STEPS} sample budget")
    rho0, mu0 = initial.rho, initial.mu
    T = rho0 / (8 * (n + 2))
    tau_min, tau_max = T / 100.0, 10.0 * T
    dim = 4 * n + 2

    def record(k: int) -> EntropyRecord:
        tau = tau_max + (tau_min - tau_max) * k / (samples - 1)
        t = -tau
        rho, mu = _z_closed(rho0, mu0, n, t)
        scal = scalar_curvature(rho, mu, n)
        vol = rho ** (2 * n + 1) * mu
        u = 1.0 / vol
        f = -math.log(u) - (2 * n + 1) * math.log(4 * math.pi * tau)
        w = tau * scal + f - dim
        return EntropyRecord(t=t, tau=tau, scal=scal, vol_ratio=vol, u=u, f=f, w=w)

    # rho and the volume fall as k grows, so if the first and the last record
    # stay in float range every record does
    try:
        record(0)
        record(samples - 1)
    except ArithmeticError as ex:
        raise ValueError(f"rho0 = {rho0} takes the entropy diagnostics out of float range") from ex
    return map(record, range(samples))


def entropy_series(initial: FlowState, samples: int) -> list[EntropyRecord]:
    """The records of `entropy_records`, as a list."""
    return list(entropy_records(initial, samples))


_TRAJ_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant"]
_ENTROPY_FIELDS = ["t", "rho", "mu", "rho_mu", "invariant", "tau", "scal",
                   "vol_ratio", "u", "f", "w"]
_FLOAT = {float}
# rows formatted per write: the text held at once stays near BLOCK_ROWS rows
BLOCK_ROWS = 2048


def _write_joined(parts, sep: str, out) -> None:
    """Write sep.join(parts) to out, BLOCK_ROWS parts per write."""
    parts = iter(parts)
    lead = ""
    while block := list(islice(parts, BLOCK_ROWS)):
        out.write(lead)
        out.write(sep.join(block))
        lead = sep


def _write_csv(fields: list[str], rows, out) -> None:
    """Header plus one line per row.  A row of floats is written by a single
    "%.17g,...\n" % row, which gives the bytes of `_fmt` on each value; a row
    holding anything else goes through `_fmt` value by value."""
    template = ",".join(["%.17g"] * len(fields)) + "\n"
    out.write(",".join(fields) + "\n")
    _write_joined((template % row if _FLOAT.issuperset(map(type, row))
                   else ",".join(map(_fmt, row)) + "\n" for row in rows), "", out)


def _write_json(fields: list[str], rows, out) -> None:
    """The bytes of json.dumps([dict(zip(fields, map(float, row))), ...],
    separators=(",", ":")).  A row of finite floats is written by a single
    %r template, as json prints a float with float.__repr__; any other row
    (a non-float, or inf or nan, which json prints as Infinity and NaN) goes
    through json.dumps."""
    template = "{" + ",".join(json.dumps(f) + ":%r" for f in fields) + "}"
    isfinite = math.isfinite
    out.write("[")
    _write_joined((template % row if _FLOAT.issuperset(map(type, row)) and isfinite(sum(row))
                   else json.dumps(dict(zip(fields, map(float, row))), separators=(",", ":"))
                   for row in rows), ",", out)
    out.write("]")


_WRITERS = {"csv": _write_csv, "json": _write_json}


def _traj_rows(traj: Trajectory):
    return zip(traj.t, traj.rho, traj.mu, map(mul, traj.rho, traj.mu), traj.invariant_series)


def _entropy_rows(initial: FlowState, records):
    """One row per record, read as it is needed, its (rho, mu) from the
    closed form at the record's (float) time, as entropy_records computed
    them."""
    n, rho0, mu0 = initial.n, initial.rho, initial.mu
    z_shift = 1.0 / (n + 2)
    for r in records:
        rho, mu = _z_closed(rho0, mu0, n, r.t)
        yield (r.t, rho, mu, rho * mu, rho * (mu - z_shift),
               r.tau, r.scal, r.vol_ratio, r.u, r.f, r.w)


def write_trajectory(traj: Trajectory, fmt: str, out) -> None:
    """Write traj to the text stream out as fmt, "csv" or "json"."""
    _WRITERS[fmt](_TRAJ_FIELDS, _traj_rows(traj), out)


def write_entropy(initial: FlowState, records, fmt: str, out) -> None:
    """Write the rows of records, an iterable of EntropyRecords read once in
    order, to the text stream out as fmt, "csv" or "json"."""
    _WRITERS[fmt](_ENTROPY_FIELDS, _entropy_rows(initial, records), out)


def _text(write, *args) -> str:
    """What write(*args, out) writes, as a string."""
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def trajectory_to_csv(traj: Trajectory) -> str:
    return _text(write_trajectory, traj, "csv")


def trajectory_to_json(traj: Trajectory) -> str:
    return _text(write_trajectory, traj, "json")


def entropy_to_csv(initial: FlowState, records: list[EntropyRecord]) -> str:
    return _text(write_entropy, initial, records, "csv")


def entropy_to_json(initial: FlowState, records: list[EntropyRecord]) -> str:
    return _text(write_entropy, initial, records, "json")
