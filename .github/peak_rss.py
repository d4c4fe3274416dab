"""Run one command with its stdout written to a file, and print its peak RSS.

    python .github/peak_rss.py OUT [--under MB] COMMAND...

The peak is the largest ru_maxrss among the waited-for descendants, which
Linux reports in KiB.  The script fails when the command fails, and, given
--under, when the peak is MB or more.
"""

import resource
import subprocess
import sys


def main(argv):
    out, *command = argv
    bound = None
    if command[0] == "--under":
        bound = float(command[1])
        command = command[2:]
    with open(out, "wb") as handle:
        subprocess.run(command, stdout=handle, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MB")
    return 0 if bound is None or peak < bound else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
