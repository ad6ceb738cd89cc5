"""Benchmark worker process: one workload, one seed.

run.py starts it with ``src`` on PYTHONPATH and reads its standard output.
The worker imports ``qprep.cli`` and prints ``ready``; the parent times the
span from process start to that line as set-up.  With ``--probe`` the worker
stops there; otherwise it runs the workload (see loop.py) and prints one JSON
result line.
"""

import sys

import qprep.cli  # noqa: F401  (set-up ends once this import is done)


def main(argv: list[str]) -> int:
    print("ready", flush=True)
    if argv == ["--probe"]:
        return 0
    # Imported after "ready" so that set-up time covers qprep.cli alone.
    import loop

    return loop.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
