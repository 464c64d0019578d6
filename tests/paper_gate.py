#!/usr/bin/env python3
"""Paper-shape gate: run the figure harnesses the shape checks read, at
their default scales, and check the output with scripts/check_shapes.py.

  paper_gate.py BUILD_DIR

Results are cached under BUILD_DIR/paper-cache (keyed on the binary), so
a rerun against an unchanged build only re-checks the output.
"""

import os
import subprocess
import sys

FIGURES = ["fig1_motivation", "fig4_p8", "fig5_breakdown", "fig7_p8s",
           "fig8_l1tm"]
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    build = sys.argv[1]
    cache = os.path.join(build, "paper-cache")
    out_path = os.path.join(build, "paper_output.txt")
    with open(out_path, "w") as out:
        for fig in FIGURES:
            subprocess.run([os.path.join(build, "bench", fig), "--jobs", "4",
                            "--cache-dir", cache],
                           stdout=out, check=True)
    check = os.path.join(HERE, "..", "scripts", "check_shapes.py")
    return subprocess.run([sys.executable, check, out_path]).returncode


if __name__ == "__main__":
    sys.exit(main())
