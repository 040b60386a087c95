"""Run one benchmark job in this fresh interpreter and write its result.

Usage: python3 job.py SPEC_JSON

SPEC_JSON holds the repository root, the launch time on the monotonic
clock, the job kind with its arguments, whether to trace, and the path
of the result file.  Only the time spent inside `nazeta.cli.main` (or the
library call) counts as the job's time; the import of `nazeta.cli` is the
job's set-up.

Both are also reported in reference seconds.  The CPU speed of a shared
host swings by up to 2x within seconds, so a fixed calibration loop is
timed five times before and after the job and every CAL_INTERVAL_S during
it (from a SIGALRM handler, between bytecodes); the job's time minus the
loop's own time, multiplied by the mean of CAL_REFERENCE_S over the loop
times, is the time the job would take at the speed where the loop takes
CAL_REFERENCE_S, about that of an uncontended core of the development host.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

CAL_TERMS = 1_000
CAL_REFERENCE_S = 0.002
CAL_INTERVAL_S = 0.05


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop, now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_TERMS):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the calibration loop every CAL_INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _curve(path):
    from nazeta.curve import curve_from_json

    with open(path) as fh:
        return curve_from_json(json.load(fh))


def _group_data(t, rank, p):
    from nazeta.rootsys import build_root_system, enumerate_weyl, parabolic_data

    rs = build_root_system(t, rank)
    W = enumerate_weyl(rs)
    return rs, W, parabolic_data(rs, W, p)


def lib_engine(spec):
    """group_zeta(..., route="residue-engine"): the whole-sum residue route."""
    from nazeta.groupzeta import group_zeta

    c = _curve(spec["curve"])
    rs, W, pd = _group_data(*spec["params"])
    z = group_zeta(c, rs, W, pd, route="residue-engine")
    return {
        "zeta": {
            "num": [str(x) for x in z.zeta.num.coeffs],
            "den": [str(x) for x in z.zeta.den.coeffs],
        },
        "c_p": str(z.c_p),
        "normalization": [[k, h, m] for (k, h), m in sorted(z.normalization.items())],
    }


def lib_beta_sym(spec):
    """zagier_beta(c, r, x) for x in (d, d+r, -d, r-d): degree-d masses."""
    from nazeta.purezeta import zagier_beta

    c = _curve(spec["curve"])
    return {
        f"{r},{d}": [str(zagier_beta(c, r, x)) for x in (d, d + r, -d, r - d)]
        for r, d in spec["params"]
    }


LIBRARY = {"engine": lib_engine, "beta-sym": lib_beta_sym}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import nazeta.cli

    setup_s = (time.monotonic_ns() - spec["launch_ns"]) / 1e9
    if not os.path.abspath(nazeta.cli.__file__).startswith(os.path.abspath(src)):
        sys.stderr.write(f"nazeta imported from {nazeta.cli.__file__}, not {src}\n")
        return 3
    before = [calibrate() for _ in range(5)]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    output = None
    rc = 0
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        if spec["kind"] == "probe":
            pass
        elif spec["argv"] is not None:
            rc = nazeta.cli.main(spec["argv"])
        else:
            output = LIBRARY[spec["kind"]](spec)
        inside_s = time.perf_counter() - t0
    after = [calibrate() for _ in range(5)]
    ticks = sampler.samples
    speed = statistics.mean(CAL_REFERENCE_S / d for d in before + ticks + after)
    result = {
        "rc": rc,
        "inside_s": inside_s,
        "ref_inside_s": (inside_s - sum(ticks)) * speed,
        "setup_s": setup_s,
        "ref_setup_s": setup_s * CAL_REFERENCE_S / statistics.median(before),
        "calibrations": len(before + ticks + after),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": output,
        "trace": tracer.report(spec["id"], speed) if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
