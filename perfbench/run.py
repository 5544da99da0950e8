"""twistorflow benchmark: closed-loop, single-client workloads of `tflow` calls.

    python3 perfbench/run.py --workload verify-n2|ricci-z-n3|flow-export \
        --seed N --seconds S --trace 0|1

Each operation starts a fresh interpreter (perfbench/child.py), as every
`tflow` call does, so no in-process cache carries over from one operation
to the next; the next operation starts when the previous one has ended.
The run repeats whole rounds of operations until S seconds have passed and
checks every output with perfbench/checks.py.  The last line on stdout is
a JSON object: correct, attempted, failed and the metrics; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of tracer.py.  Raw
per-operation records go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import checks
from tracer import CHECK_METRICS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 5      # import-only interpreters per run, after one warm-up
STEPS = 30_000        # integration steps / entropy samples per flow-export operation
RUN_LIMIT_S = 170     # a run never outlives this, whatever an operation does


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], None]   # raises checks.CheckFailed
    out: str | None = None          # export file the operation writes


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _export_op(argv: list[str], fmt: str, fields: list[str],
               check: Callable[[list[dict]], None]) -> Op:
    """A flow or entropy export; `check` gets the rows written to the file."""
    path = os.path.join(OUT_DIR, f"export.{fmt}")

    def check_file(rec: dict) -> None:
        with open(path) as fh:
            check(checks.parse_rows(fh.read(), fmt, fields))

    return Op(argv + ["--format", fmt, "--out", path], check_file, path)


# -- workloads: round k of a run, drawn from the run's seeded generator ----------

def verify_round(rng: random.Random, k: int) -> list[Op]:
    # the suite takes no input, so the seed changes nothing
    return [Op(["verify", "--n", "2", "--format", "json"],
               lambda rec: checks.check_verify(rec["rc"], rec["stdout"]))]


def ricci_round(rng: random.Random, k: int) -> list[Op]:
    n = 3
    mu = Fraction(1, n + 2) if k == 0 else Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return [Op(["ricci", "--family", "z", "--n", str(n), "--lambda2", _q(mu),
                "--format", "json"],
               lambda rec: checks.check_ricci_z(rec["rc"], rec["stdout"], n, mu))]


def flow_round(rng: random.Random, k: int) -> list[Op]:
    def draw() -> tuple[int, Fraction]:
        return rng.choice([2, 3, 4]), Fraction(rng.randint(2, 8), 2)

    def z_flow(n: int, rho0: Fraction, mu0: Fraction, dt: float, t_end: str, fmt: str) -> Op:
        return _export_op(["flow", "--family", "z", "--n", str(n), "--rho0", _q(rho0),
                           "--lambda2", _q(mu0), "--dt", repr(dt), "--t-end", t_end],
                          fmt, checks.TRAJ_FIELDS,
                          partial(checks.check_z_flow, n=n, rho0=float(rho0),
                                  mu0=float(mu0), samples=STEPS + 1))

    # Z forward to 99 % of the singular time, dt sized to STEPS steps
    n, rho0 = draw()
    mu0 = Fraction(rng.choice([x for x in range(1, 21) if Fraction(x, 10) != Fraction(1, n + 2)]),
                   10)
    rho0f, mu0f = float(rho0), float(mu0)
    singular = (rho0f / (8 * (n + 2)) if mu0f > 1.0 / (n + 2) else rho0f * mu0f / 8)
    z_fwd = z_flow(n, rho0, mu0, 0.99 * singular / STEPS, "auto", "csv")

    # Z backward (the ancient direction), JSON export
    n, rho0 = draw()
    z_back = z_flow(n, rho0, Fraction(rng.randint(1, 20), 10), 1e-6, repr(-STEPS * 1e-6), "json")

    # canonical backward from mu0 in (1/(n+1), 1): mu falls toward 1/(n+1)
    n, rho0 = draw()
    mu0 = Fraction(rng.randint(4, 9), 10)
    can_back = _export_op(["flow", "--family", "canonical", "--n", str(n), "--rho0", _q(rho0),
                           "--lambda2", _q(mu0), "--dt", "1e-06", "--t-end", repr(-STEPS * 1e-6)],
                          "csv", checks.TRAJ_FIELDS,
                          partial(checks.check_canonical_flow, n=n, rho0=float(rho0),
                                  mu0=float(mu0), samples=STEPS + 1))

    # entropy along the ancient Z-trajectory, mu0 above the Einstein value
    n, rho0 = draw()
    entropy = _export_op(["entropy", "--n", str(n), "--rho0", _q(rho0),
                          "--lambda2", _q(Fraction(rng.randint(3, 20), 10)),
                          "--samples", str(STEPS)],
                         "csv", checks.ENTROPY_FIELDS,
                         partial(checks.check_entropy, n=n, rho0=float(rho0), samples=STEPS))

    # Fixed inputs that fail every time: forward past the singular time
    # (t ~ 0.036628), which integrate() reports as StepTooLarge instead of
    # stopping there.  dt puts ~STEPS steps before that time.
    can_fwd = _export_op(["flow", "--family", "canonical", "--n", "2", "--rho0", "1",
                          "--lambda2", "1/2", "--dt", "1.22e-06", "--t-end", "0.05"],
                         "csv", checks.TRAJ_FIELDS,
                         partial(checks.check_canonical_flow, n=2, rho0=1.0, mu0=0.5,
                                 samples=None))
    return [z_fwd, z_back, can_back, entropy, can_fwd]


WORKLOADS = {"verify-n2": verify_round, "ricci-z-n3": ricci_round, "flow-export": flow_round}


# -- running ------------------------------------------------------------------------

def launch(mode: str, argv: list[str], timeout: float) -> dict:
    """One child interpreter; returns its record, or rc only if it died."""
    env = dict(os.environ)
    env.pop("TFLOW_THREADS", None)  # the worker pool as shipped
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, CHILD, str(t0), mode, *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"rc": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode or "no record", "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    started = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    setups = []
    for i in range(SETUP_PROBES + 1):
        rec = launch("probe", [], left())
        if "setup_s" not in rec:
            raise RuntimeError(f"interpreter set-up failed: {rec}")
        if i:  # the first one fills the bytecode cache
            setups.append(rec["setup_s"])

    correct, attempted, failed = True, 0, 0
    rounds: list[list[dict]] = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        done = []
        for op in WORKLOADS[workload](rng, len(rounds)):
            attempted += 1
            rec = launch("trace" if trace else "run", op.argv, left())
            rec["argv"] = op.argv
            if "setup_s" in rec:
                setups.append(rec["setup_s"])
            if rec["rc"] != 0:
                failed += 1
                tail = (rec.get("stderr") or "").strip().splitlines()[-1:]
                sys.stderr.write(f"failed (exit {rec['rc']}): {' '.join(op.argv)}: {tail}\n")
            else:
                try:
                    op.check(rec)
                except (checks.CheckFailed, KeyError, TypeError, ValueError, OSError) as ex:
                    correct = False
                    rec["check_failed"] = f"{type(ex).__name__}: {ex}"
                    sys.stderr.write(f"wrong output: {' '.join(op.argv)}: {ex}\n")
            if op.out and os.path.exists(op.out):
                os.remove(op.out)
            rec.pop("stdout", None)
            done.append(rec)
        rounds.append(done)
        if left() <= 0:
            break

    ok = [[r for r in rnd if r["rc"] == 0] for rnd in rounds]
    # op_s: median over rounds of the mean successful operation in the round;
    # flow-export mixes five kinds of operation, one-operation rounds elsewhere
    round_means = [statistics.fmean(r["op_s"] for r in rnd) for rnd in ok if rnd]
    if not round_means:
        raise RuntimeError("no operation succeeded")
    op_s = statistics.median(round_means)
    if trace:
        names = list(LAYER_METRICS) + CHECK_METRICS
        per_round = [{m: sum(r["layers"][m] for r in rnd if "layers" in r) for m in names}
                     for rnd in rounds]
        metrics = {m: {"value": statistics.median(pr[m] for pr in per_round),
                       "unit": _layer_unit(m)} for m in names}
        metrics["trace.op_s"] = {"value": op_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_kb"] for rnd in rounds for r in rnd
                                         if "rss_kb" in r) / 1024, "unit": "MB"},
        }
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"rounds": rounds, "setup_probes": setups[:SETUP_PROBES]}, fh, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "twistorflow", "cli.py")):
        sys.stderr.write(f"no twistorflow sources under {ROOT}/src\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as ex:
        sys.stderr.write(f"benchmark aborted: {ex}\n")
        return 2
    for name, m in result["metrics"].items():
        sys.stderr.write(f"{name:36s} {m['value']:.6g} {m['unit']}\n")
    sys.stderr.write(f"attempted {result['attempted']} failed {result['failed']} "
                     f"correct {result['correct']}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
