"""One benchmark invocation, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/worker.py SPEC_JSON   (with src/ on PYTHONPATH)

SPEC_JSON holds ``argv`` (the wreathchar command line), ``warmup`` ([n, k]
for an ``unrank_multipartition(n, k, 0)`` set-up call, or null), ``trace``
(bool), ``samples`` (0 unless sampled) and ``paired_certificate`` ([k, n, p,
samples, seed] or null).

Times the import of ``wreathchar.cli`` plus the set-up call (setup_s), then
one ``cli.main(argv)`` call with stdout captured in memory (run_s), and prints
one JSON line: timings, peak RSS, a digest of the output, the parsed report
when the output is JSON, and with tracing the per-layer aggregates.  The
caller judges correctness; everything after the timed call is untimed.

Before the set-up and after the run it times ``probe()``, a fixed pure-Python
loop that touches nothing of the package (probe_s), so that the caller can
express every time at a reference host speed.
"""

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter


class Capture(io.StringIO):
    """In-memory stdout; a subclass so that tracing can rebind ``write``."""


PROBE_ITERATIONS = 2_000_000


def probe() -> float:
    """Seconds that a fixed integer loop takes: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    spec = json.loads(sys.argv[1])
    probe_before = probe()
    t0 = time.perf_counter()
    import wreathchar
    import wreathchar.cli as cli

    tables_s = tables_rss_mib = 0.0
    if spec["warmup"]:
        from wreathchar.partitions import unrank_multipartition

        rss0, t = _rss_mib(), time.perf_counter()
        unrank_multipartition(*spec["warmup"], 0)
        tables_s, tables_rss_mib = time.perf_counter() - t, _rss_mib() - rss0
    setup_s = time.perf_counter() - t0

    capture = Capture()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, capture)
    real_stdout, sys.stdout = sys.stdout, capture
    error = rc = None
    t1 = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except Exception:
        error = traceback.format_exc()
    finally:
        run_s = time.perf_counter() - t1
        sys.stdout = real_stdout
    rss_mib = _rss_mib()
    probe_s = [probe_before, probe()]

    text = capture.getvalue()
    data = text.encode("utf-8")
    result = {
        "rc": rc,
        "error": error,
        "setup_s": setup_s,
        "run_s": run_s,
        "probe_s": probe_s,
        "peak_rss_mib": rss_mib,
        "version": wreathchar.__version__,
        "package_file": wreathchar.__file__,
        "stdout_bytes": len(data),
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
        "report": None,
    }
    if text.lstrip().startswith("{"):
        try:
            result["report"] = json.loads(text)
        except ValueError:
            pass
    if tracer is not None:
        layers, mn_us, absent = tracing.layer_metrics(tracer, spec["samples"])
        layers["partitions.tables_s"] = tables_s
        layers["partitions.tables_rss_mib"] = tables_rss_mib
        layers["cli.emit_bytes"] = len(data)
        result.update(
            layers=layers,
            mn_us=mn_us,
            absent=absent + [f"span {name}" for name in tracer.absent],
            span_calls=Counter(span[0] for span in tracer.spans),
            root_s=tracing.root_duration(tracer),
        )
    if spec["paired_certificate"] and rc == 0 and error is None:
        from wreathchar.stats import certificate_census

        k, n, p, samples, seed = spec["paired_certificate"]
        result["paired_divisible"] = certificate_census(k, n, p, samples, seed).divisible_count
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
