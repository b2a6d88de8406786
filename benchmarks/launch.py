"""Run one ``finiagg`` CLI invocation in this process and record what it cost.

Usage: ``python3 benchmarks/launch.py RESULT TRACE [finiagg arguments...]``

RESULT is a JSON file written at exit with the monotonic time at which
``import finiagg.cli`` finished, the exit code and this process's own peak
resident set (``VmHWM``). ``ru_maxrss`` is not used: a child inherits the
high-water mark of the parent it was forked from. With TRACE=1 the public
functions of every ``finiagg`` module are wrapped first (see ``tracer.py``)
and the spans go into RESULT too. With no finiagg arguments the launcher
stops after the import, which measures set-up alone.
"""

import sys
import time

if __name__ == "__main__":
    from pathlib import Path

    _root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_root / "src"))
    import finiagg.cli

    imported_at = time.monotonic()
    import json

    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if not Path(finiagg.cli.__file__).resolve().is_relative_to(_root / "src"):
        sys.exit(f"imported finiagg from {finiagg.cli.__file__}, not from this checkout")
    tracer = None
    if trace:
        from tracer import Tracer  # found beside this script, on sys.path[1]

        tracer = Tracer()
        tracer.install()
    rc, main_s = 0, 0.0
    if argv:
        start = time.perf_counter()
        rc = finiagg.cli.main(argv)
        main_s = time.perf_counter() - start
    result = {"imported_at": imported_at, "rc": rc}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                result["vmhwm_kb"] = int(line.split()[1])
    if tracer is not None:
        result["main_s"] = main_s
        result.update(tracer.dump())
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    sys.exit(rc)
