"""One `fedbeam train` invocation, timed from inside its own process.

    python3 child.py SRC CONFIG OUT_DIR RESULT_JSON [--setup-only] [--spans PATH]

Times are taken with time.perf_counter from the first line of this file,
before `import fedbeam`.  The round boundary is the call to
fedbeam.federation.run_round, wrapped from outside.  --setup-only stops the
run when round 1 begins; --spans installs the tracer and writes its spans
to PATH.

A speed probe runs before every round and once after the report is
written, outside every timed segment.  Each segment's wall time is also
reported scaled by PROBE_REF_S / (probe time next to it): the time the
segment would have taken at the reference speed.  On a
machine whose speed swings with neighbouring load this removes most of the
swing; the raw wall times are reported too.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# The probe's time at the reference speed: its time on the 2-core machine
# the benchmark was defined on, when neighbouring load was light.
PROBE_REF_S = 0.0011
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.random((16, 10))
_PROBE_B = _PROBE_RNG.random((10, 8))


@dataclass(frozen=True)
class _ProbeState:
    activations: np.ndarray
    step: int


def probe() -> float:
    """Median of five timings of a fixed slice of work with a training
    step's mix: tiny NumPy kernels and frozen-dataclass copies."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        state = _ProbeState(_PROBE_A, 0)
        for i in range(150):
            x = np.maximum(_PROBE_A @ _PROBE_B, 0.0) * 0.5
            state = replace(state, activations=x, step=i)
            float(np.sum(state.activations * state.activations))
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


class SetupDone(Exception):
    """Raised at the start of round 1 in a --setup-only run."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import fedbeam.cli
    import fedbeam.federation

    package = Path(fedbeam.__file__).resolve().parent
    if package != Path(args.src).resolve() / "fedbeam":
        print(f"imported fedbeam from {package}, not from {args.src}", file=sys.stderr)
        return 1

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    probes = []  # probe seconds, one before each round
    probe_total = [0.0]
    setup = []  # wall seconds from T_START to round 1
    rounds = []  # (wall seconds, training samples processed)
    run_round = fedbeam.federation.run_round
    signature = inspect.signature(run_round)

    def timed_round(*call_args, **call_kwargs):
        t_call = time.perf_counter()
        if not setup:
            setup.append(t_call - T_START)
        probes.append(probe())
        probe_total[0] += time.perf_counter() - t_call
        if args.setup_only:
            raise SetupDone
        t0 = time.perf_counter()
        out = run_round(*call_args, **call_kwargs)
        t1 = time.perf_counter()
        bound = signature.bind(*call_args, **call_kwargs).arguments
        sizes = {c.client_id: c.sample_count for c in bound["clients"]}
        samples = sum(sizes[p] for p in out[1].participants) * bound["fed_config"].local_epochs
        rounds.append((t1 - t0, samples))
        return out

    fedbeam.federation.run_round = timed_round
    try:
        exit_code = fedbeam.cli.main(["train", "--config", args.config, "--out", args.out_dir])
    except SetupDone:
        exit_code = 0
    t_end = time.perf_counter()
    if not setup:
        print("round 1 never began", file=sys.stderr)
        return 1
    probes.append(probe())

    # Round r sits between probes r and r + 1; the rest (report rendering,
    # the gaps between rounds) is scaled by the last probe.
    def scale(p):
        return PROBE_REF_S / p

    round_wall = [w for w, _ in rounds]
    round_s = [w * scale((probes[r] + probes[r + 1]) / 2) for r, w in enumerate(round_wall)]
    setup_s = setup[0] * scale(probes[0])
    run_wall_s = t_end - T_START - probe_total[0]
    rest = run_wall_s - setup[0] - sum(round_wall)
    result = {
        "exit_code": exit_code,
        "run_s": setup_s + sum(round_s) + rest * scale(probes[-1]),
        "run_wall_s": run_wall_s,
        "setup_s": setup_s,
        "setup_wall_s": setup[0],
        "round_s": round_s,
        "round_wall_s": round_wall,
        "train_samples": sum(n for _, n in rounds),
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.finish(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
