"""One benchmark pass in a fresh process; prints one JSON line on stdout.

    python3 benchmarks/worker.py --calls DIR/calls.json --out-dir DIR --t0 T [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there through ``import transducer_sim``
and parsing every config document of the workload.  The pass itself then
runs each call the way a user would: the statics sweeps through
``parse_config`` + ``runner.run_*`` + ``ResultTable.write``, transfer and
scan runs through ``cli.main``.  Untraced passes run the speed probe
(``SpeedProbe``) and report each call's wall time, also scaled to the
reference machine speed.  With ``--trace`` the layer boundaries are
wrapped instead (see tracing.py) after set-up, the spans are written to
``spans.json`` in the output directory once the pass has ended, and the
transfer fidelity of every trajectory is compared with its reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import sys
import time
import traceback

import tracing

RUNNERS = {
    "mechanics": "run_mechanics_sweep",
    "couplings": "run_coupling_sweep",
}

#: largest accepted |F - F_expm| of a scan trajectory at its final time
ORACLE_TOLERANCE = 1e-6


def _generator(system):
    """Dense non-Hermitian generator of the transfer dynamics, from the
    equations in the ``dynamics`` module docstring and public properties."""
    import numpy as np

    n = system.size
    a = np.zeros((n, n), dtype=complex)
    kp = system.kappa_prime
    a[0, 1] = -1j * system.g_om
    a[0, 3:] = kp
    a[1, 0] = -1j * system.g_om
    a[1, 1] = -0.5 * system.gamma_m
    a[1, 2] = -1j * system.g_em
    a[2, 1] = -1j * system.g_em
    a[2, 2] = -0.5 * system.gamma_lc
    a[3:, 0] = -kp
    idx = np.arange(3, n)
    a[idx, idx] = -1j * system.detunings
    return a


def fidelity_error(workload: str, system, duration: float, record) -> float:
    """|F - reference| of one trajectory.

    Transfer trajectories are compared at their maximum with the paper's
    printed saturated fidelity; scan trajectories at their final time with
    the dense matrix-exponential propagation of the same system.
    """
    if workload == "transfer_benchmarks":
        from workloads import TRANSFER_CASES

        g_hz = min(TRANSFER_CASES, key=lambda g: abs(g - system.g_om / (2 * math.pi)))
        return abs(record.max_fidelity - TRANSFER_CASES[g_hz][1])
    import numpy as np
    from scipy.sparse.linalg import expm_multiply

    y0 = np.zeros(system.size, dtype=complex)
    y0[2] = 1.0
    y = expm_multiply(_generator(system) * duration, y0)
    return abs(float(np.sum(np.abs(y[3:]) ** 2)) - float(record.fidelity[-1]))


class SpeedProbe:
    """Samples the machine's speed while a pass runs.

    Every ``PERIOD_S`` a SIGALRM handler times a fixed numpy-and-Python
    kernel (0.3 to 0.7 ms).  The reference machine is shared, and its
    speed alternates between states up to 1.7x apart that last from
    seconds to minutes, while numpy and pure-Python work speed up and
    slow down together (correlation 0.97 over 2-second windows).  A
    call's time scaled by REFERENCE_S over the kernel's mean time during
    that call is its time at the reference speed; the handler's own time
    is subtracted from the call it interrupted first.
    """

    PERIOD_S = 0.02
    #: kernel time in the faster state of the reference machine
    #: (2-vCPU Intel Xeon VM); it only sets the unit of the scaled times
    REFERENCE_S = 3.0e-4

    def __init__(self):
        import numpy as np

        self._y = np.ones(256, dtype=complex)
        self._d = np.linspace(0.0, 1.0, 256)
        self.samples = []

    def kernel(self):
        z = self._y
        for _ in range(120):
            z = z + 1e-9 * (self._d * z)
        s = 0.0
        for i in range(800):
            s += i * 0.5
        return s

    def calibrate(self, runs: int = 40) -> float:
        """Median kernel time over ``runs`` back-to-back runs."""
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return sorted(times)[runs // 2]

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_call(call, out_dir, cli, config, runner, tracer, probe) -> dict:
    """Run one call of the pass; failures are recorded, not raised."""
    out = os.path.join(out_dir, call["name"] + ".csv")
    first_trajectory = len(tracer.trajectories) if tracer else 0
    first_sample = len(probe.samples) if probe else 0
    result = {"name": call["name"], "ok": True, "error": None}
    start = time.perf_counter()
    try:
        if call["command"] in RUNNERS:
            with open(call["config"], encoding="utf-8") as fh:
                parsed = config.parse_config(fh.read())
            getattr(runner, RUNNERS[call["command"]])(parsed).write(out)
        else:
            argv = [call["command"], "--config", call["config"], "--out", out]
            code = tracer.call("cli", cli.main, argv) if tracer else cli.main(argv)
            if code != 0:
                result.update(ok=False, error=f"exit code {code}")
    except Exception:  # any failure of one call is recorded, the pass goes on
        result.update(ok=False, error=traceback.format_exc(limit=3))
    result["wall_s"] = time.perf_counter() - start
    if tracer:
        result["trajectories"] = len(tracer.trajectories) - first_trajectory
    if probe:
        taken = probe.samples[first_sample:]
        result["probe_s"] = sum(taken)
        result["kernel_s"] = sum(taken) / len(taken) if taken else None
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    import transducer_sim
    from transducer_sim import cli, config, runner

    with open(args.calls, encoding="utf-8") as fh:
        calls = json.load(fh)
    for call in calls:
        with open(call["config"], encoding="utf-8") as fh:
            config.parse_config(fh.read())
    setup_s = time.monotonic() - args.t0
    # the kernel's speed right after set-up scales the set-up time
    probe = SpeedProbe()
    report = {
        "setup_s": setup_s,
        "norm_setup_s": setup_s * probe.REFERENCE_S / probe.calibrate(),
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        probe = None  # untraced passes sample the machine's speed, traced ones time layers
    results = []
    root = tracer.open("bench") if tracer else None
    with probe or contextlib.nullcontext():
        for call in calls:
            results.append(run_call(call, args.out_dir, cli, config, runner, tracer, probe))
    if tracer:
        tracer.close(root)
    report["results"] = results
    if probe:
        # a call too short to be sampled takes the pass's mean kernel time
        kernel_s = sum(probe.samples) / len(probe.samples) if probe.samples else probe.REFERENCE_S
        for result in results:
            result["norm_wall_s"] = (
                (result["wall_s"] - result["probe_s"])
                * probe.REFERENCE_S
                / (result["kernel_s"] or kernel_s)
            )
        report["kernel_s"] = kernel_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    report.update(
        rss_mb=rss_mb,
        versions={
            "transducer_sim": transducer_sim.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    )
    if tracer:
        trajectories = []
        for span, system, duration, record in tracer.trajectories:
            trajectories.append(
                {
                    "g_c_hz": system.g_om / (2 * math.pi),
                    "modes": system.mode_count,
                    "steps": span[5]["steps"],
                    "dt_s": span[5]["comb"][2],
                    "samples": span[5]["samples"],
                    "max_fidelity": record.max_fidelity,
                    "fidelity_err": fidelity_error(args.workload, system, duration, record),
                }
            )
        index = 0
        for result in results:
            count = result.pop("trajectories")
            errors = [t["fidelity_err"] for t in trajectories[index:index + count]]
            index += count
            if args.workload == "scan_temperature" and errors and max(errors) > ORACLE_TOLERANCE:
                result.update(ok=False, error=f"oracle fidelity error {max(errors):.3e}")
        report["trajectories"] = trajectories
        spans_path = os.path.join(args.out_dir, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        report["spans"] = spans_path
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
