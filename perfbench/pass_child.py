"""One pass of a workload, run in a fresh interpreter.

    python pass_child.py --setup-only
    python pass_child.py SPEC.json

The first statement after the interpreter starts imports `pointsplit.cli`
and reads the monotonic clock, so the spawning process can time set-up as
every CLI call pays it.  With --setup-only the child prints that reading
and exits.  Otherwise it runs the spec's invocations through
`cli.main(argv)` one after another (a closed loop), optionally traced, and
writes the timings, exit codes and peak resident memory to the spec's
result path.  Reports are validated by the parent, outside this process.

While each invocation runs, a SIGALRM timer interrupts it every 10 ms to
time a small fixed reference kernel (about 0.15 ms of the dict, bit-parity
and complex arithmetic that pointsplit's inner loops do).  The host this
runs on shares its cores, and its speed for such code drifts by up to 2x
over seconds to minutes.  The parent divides each invocation's time by
the mean reference time sampled during it, which cancels most of that
drift.  The kernel's own time is subtracted from the invocation's.
"""

import time

import pointsplit.cli as cli

READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


SAMPLE_INTERVAL_S = 0.01
MIN_SAMPLES = 3

# A fixed sparse state: occupation bits -> amplitude.
_STATE = {b * 2654435761 & 0xFFFFF: complex(b, 1) for b in range(64)}


def _reference_kernel() -> None:
    out = {}
    for k in range(4):
        mask = (1 << (k + 5)) - 1
        for bits, amp in _STATE.items():
            a = amp * (1 + 1j)
            if (bits & mask).bit_count() & 1:
                a = -a
            b = bits ^ (1 << k)
            out[b] = out.get(b, 0j) + a


class ReferenceSampler:
    """Times the reference kernel every SAMPLE_INTERVAL_S while armed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _reference_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    sampler = ReferenceSampler()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with sampler:
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a traceback is an outcome to report, not to crash on
                code = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
    during = [dt for t, dt in sampler.samples if t < end]
    seconds = end - start - sum(during)
    while len(sampler.samples) < MIN_SAMPLES:  # calls shorter than a few intervals
        sampler.sample()
    refs = [dt for _, dt in sampler.samples]
    return {
        "exit": code,
        "seconds": seconds,
        "reference_s": sum(refs) / len(refs),
        "samples_during": len(during),
        "stderr": err.getvalue()[-500:],
    }


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for i, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.invocation = i
        results.append(_call(argv))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write_jsonl(spec["spans_path"])
    return {"ready_ns": READY_NS, "peak_rss_kib": peak_kib, "invocations": results}


def main(argv) -> int:
    expected = os.path.join(os.path.abspath(os.environ["PERFBENCH_SRC"]), "pointsplit")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        print(f"error: imported pointsplit from {cli.__file__}, expected {expected}", file=sys.stderr)
        return 3
    if argv == ["--setup-only"]:
        print(READY_NS)
        return 0
    with open(argv[0], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
