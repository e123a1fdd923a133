"""Run one qmink command under the tracer and write the trace as JSON.

    python3 perfbench/traced_cli.py DUMP_FILE OP_ID SPAWNED_AT QMINK_ARGS...

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the dump can report interpreter start-up time.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

from tracer import Tracer, write_dump  # noqa: E402


def main():
    dump_path, op, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    t0 = time.perf_counter()
    import qmink.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    cli = tracer.install()
    tracer.op = op
    try:
        return cli.main(sys.argv[4:])
    finally:
        write_dump(dump_path, tracer.dump(
            {"python.start_s": STARTED - spawned, "cli.import_s": import_s}))


if __name__ == "__main__":
    sys.exit(main())
