"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: python -I child.py SRC RESULT_JSON TRACE_SPANS_JSON|- [--probe] -- CLI_ARGS...

Imports ``lsvcal`` and ``lsvcal.cli`` from SRC only, stamps the set-up
time, then (unless ``--probe``) runs the ``calibrate`` entry point with
CLI_ARGS, exactly as ``python -m lsvcal.cli CLI_ARGS`` would. With a trace
path other than ``-`` the layers are traced and the spans written there.
The result file gets the set-up stamp, the exit status and the trace
summary; the process exits with the entry point's status.
"""
import json
import os
import sys
import time


def main(argv) -> int:
    sep = argv.index("--")
    src, result_path, spans_path, *flags = argv[:sep]
    cli_args = argv[sep + 1:]
    sys.path.insert(0, src)
    import lsvcal
    import lsvcal.cli
    t_imported = time.monotonic()
    result = {"t_imported": t_imported, "lsvcal_file": lsvcal.__file__}
    if not os.path.abspath(lsvcal.__file__).startswith(os.path.abspath(src) + os.sep):
        result["error"] = f"lsvcal imported from {lsvcal.__file__}, not {src}"
        _write(result_path, result)
        return 3

    tracer = None
    if spans_path != "-":
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    status = 0 if "--probe" in flags else lsvcal.cli.main(cli_args)
    result["status"] = status
    if tracer is not None:
        result["trace"] = tracer.summary()
        _write(spans_path, tracer.spans)
    _write(result_path, result)
    return status


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
