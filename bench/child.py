"""Run one `proofport` command in this fresh process and report on it.

    python3 child.py RESULT_JSON SPAWNED_AT [--trace] [-- ARGV...]

SPAWNED_AT is the parent's `time.perf_counter()` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so `setup_s` spans interpreter start to `import proofport`
done. The command's time is taken around `proofport.cli.main(argv)`
with stdout and stderr captured. After it, `reference_s` times a fixed
computation that does not involve the program, so the benchmark can
correct for the host's speed at that moment. With no ARGV the process
only imports the package. With `--trace` the spans and counters of `tracer.py` are
recorded and written into the result.
"""

import sys
import time


def reference() -> float:
    """Time a fixed computation shaped like the program's work: small
    tuples, hashing, dict probes and a sort. It runs after the command
    and after the peak RSS is read, so it touches neither. The collector
    is off so the heap the command leaves behind does not add to it."""
    import gc

    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        keys = []
        for i in range(30000):
            key = (i % 97, i // 97, str(i))
            keys.append(key)
            seen[key] = seen.get((i % 97, i // 97 - 1, str(i - 97)), 0) + 1
        keys.sort(key=lambda k: (k[2], k[0]))
        sum(len(k[2]) for k in keys)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main() -> None:
    result_path, spawned_at = sys.argv[1], float(sys.argv[2])
    rest = sys.argv[3:]
    trace = bool(rest) and rest[0] == "--trace"
    argv = rest[rest.index("--") + 1:] if "--" in rest else None
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_import_hook()
    import proofport.cli  # noqa: F401  (the measured import)

    setup_s = time.perf_counter() - spawned_at
    import contextlib
    import io
    import json
    import resource
    import traceback

    result = {"setup_s": setup_s, "exit": None, "cmd_s": None,
              "stdout": "", "stderr": "", "traceback": None}
    if argv is not None:
        if tracer is not None:
            tracer.install()
        cli_main = sys.modules["proofport.cli"].main
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what a user's shell would see as a traceback
            code = 1
            result["traceback"] = traceback.format_exc(limit=8)
        result["cmd_s"] = time.perf_counter() - t0
        result.update(exit=code, stdout=out.getvalue(), stderr=err.getvalue())
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["reference_s"] = reference()
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
