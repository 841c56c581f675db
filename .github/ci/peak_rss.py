"""Run vilenkin commands in this process and hold their peak memory to a ceiling.

    python .github/ci/peak_rss.py CEILING_MIB "ARGS" ["ARGS" ...]

Each ARGS is one ``vilenkin`` command line without the program name, split
as a shell would.  The commands run in turn through ``vilenkin.cli.main`` in
this one process, so ``ru_maxrss`` after each is the peak of all run so far.
Each prints its wall time and that peak; a nonzero exit code or a peak above
the ceiling ends the script with that message and exit 1.
"""

import resource
import shlex
import sys
import time

from vilenkin.cli import main


def run(ceiling: float, commands: list[str]) -> None:
    for command in commands:
        argv = shlex.split(command)
        name = argv[2] if argv[:2] == ["scan", "--name"] else argv[0]
        start = time.perf_counter()
        code = main(argv)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{name}: {time.perf_counter() - start:.2f} s, peak RSS {peak:.1f} MiB")
        if code or peak > ceiling:
            sys.exit(f"{name}: exit {code}, peak RSS {peak:.1f} MiB (ceiling {ceiling:g} MiB)")


if __name__ == "__main__":
    run(float(sys.argv[1]), sys.argv[2:])
