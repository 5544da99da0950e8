"""One benchmark operation in a fresh interpreter, as a `tflow` call runs.

    python3 perfbench/child.py <launch_ns> probe
    python3 perfbench/child.py <launch_ns> run|trace <tflow arguments...>

<launch_ns> is the CLOCK_MONOTONIC reading the parent took just before it
started this interpreter, so setup_s covers interpreter start-up plus the
import of `twistorflow`.  `probe` stops there; `run` then times one
`cli.main` call with its standard streams captured; `trace` does the same
with every layer wrapped by `tracer.Tracer`.  The last line on stdout is a
JSON record for the parent.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from twistorflow import cli  # noqa: E402

SETUP_S = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(sys.argv[1])) / 1e9


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as ex:  # argparse rejects the command line
            rc = ex.code if isinstance(ex.code, int) else 2
        except Exception:  # the interpreter would print this and exit 1
            traceback.print_exc()
            rc = 1
    op_s = time.perf_counter() - t0
    return {"rc": rc, "op_s": op_s, "stdout": out.getvalue(), "stderr": err.getvalue()}


def peak_rss_kb() -> int:
    """VmHWM of this process.  ru_maxrss would also count the parent's pages
    at the moment it forked this interpreter, as Linux carries that peak
    across exec."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> None:
    mode, argv = sys.argv[2], sys.argv[3:]
    rec = {"setup_s": SETUP_S}
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        rec.update(run_op(argv))
        rec["layers"] = tracer.layer_metrics(argv)
    elif mode == "run":
        rec.update(run_op(argv))
    rec["rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(rec) + "\n")


if __name__ == "__main__":
    main()
