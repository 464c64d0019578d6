#!/usr/bin/env python3
"""Command-line contract checks for every front end.

  cli_check.py errors BUILD_DIR
      Each bad invocation must exit 2 with a diagnostic on stderr — never
      crash (SIGABRT is rc 134) and never run.

  cli_check.py flags BUILD_DIR FLAGS_FILE
      The spellings each front end's --help lists must equal its line in
      FLAGS_FILE, so a flag cannot be added or dropped by accident.
"""

import os
import re
import subprocess
import sys

BINARIES = {
    "hintm_run": "tools",
    "hintm_lint": "tools",
    "hintm_profile": "tools",
    "hintm_report": "tools",
    "hintm_explore": "tools",
    "fig4_p8": "bench",
}

# Every front end: an unknown flag, a missing value, and malformed or
# overflowing numbers for one of its numeric flags.
NUMERIC = {name: "--seed" for name in BINARIES}
NUMERIC["fig4_p8"] = "--jobs"
BAD = []
for name, flag in NUMERIC.items():
    BAD += [(name, ["--bogus"]), (name, ["--workload"])]
    BAD += [(name, [flag, v])
            for v in ("abc", "4x", "-1", "18446744073709551616")]
# Every front end whose --workload resolves through the registry.
for name in ("hintm_run", "hintm_lint", "hintm_profile", "hintm_report",
             "fig4_p8"):
    BAD += [(name, ["--workload", w])
            for w in ("nosuch", "kmeans@0", "kmeans@65")]
# Configurations machine construction would abort on.
BAD += [
    ("hintm_run", ["--cores", "0"]),
    ("hintm_run", ["--smt", "0"]),
    ("hintm_run", ["--cores", "abc"]),
    ("hintm_run", ["--signature", "0", "--htm", "p8s"]),
    ("hintm_run", ["--tiny", "--threads", "9"]),
    ("hintm_run", ["--tiny", "--numa-nodes", "0"]),
    ("hintm_run", ["--htm", "p9"]),
    # 64 hardware contexts (cores, and threads) is the machine limit.
    ("hintm_run", ["--tiny", "--workload", "kmeans", "--cores", "80",
                   "--threads", "72"]),
    ("hintm_run", ["--tiny", "--workload", "kmeans", "--cores", "65"]),
    ("hintm_run", ["--tiny", "--workload", "kmeans", "--cores", "64",
                   "--smt", "2", "--threads", "65"]),
    ("hintm_profile", ["--tiny", "--threads", "9"]),
    ("hintm_report", ["--tiny", "--threads", "9"]),
    ("hintm_explore", ["--workload", "nosuch"]),
    ("hintm_explore", ["--threads", "100"]),
    ("hintm_lint", ["--scale", "huge"]),
    ("hintm_lint", ["--workload", "kmeans@16"]),
    ("fig4_p8", ["--jobs"]),
    ("fig4_p8", ["--tiny", "--large", "--bogus"]),
]


def binary(build, name):
    return os.path.join(build, BINARIES[name], name)


def check_errors(build):
    failures = 0
    for name, args in BAD:
        p = subprocess.run([binary(build, name)] + args,
                           capture_output=True, text=True, timeout=120)
        first = p.stderr.splitlines()[0] if p.stderr else ""
        good = p.returncode == 2 and first.startswith(name + ": ")
        failures += not good
        print(f"{'ok  ' if good else 'FAIL'} rc={p.returncode} "
              f"{name} {' '.join(args)}: {first}")
    return failures


def help_flags(build, name):
    out = subprocess.run([binary(build, name), "--help"],
                         capture_output=True, text=True, check=True).stdout
    flags = set()
    for line in out.splitlines():
        # Flag rows start at column 2; help continuations are indented.
        if not re.match(r"^  -", line):
            continue
        for tok in line.split():
            tok = tok.rstrip(",")
            if not tok.startswith("-"):
                break
            flags.add(tok)
    return flags


def check_flags(build, flags_file):
    want = {}
    for line in open(flags_file):
        if line.strip() and not line.startswith("#"):
            name, flags = line.split(":", 1)
            want[name.strip()] = set(flags.split())
    failures = 0
    for name in BINARIES:
        got = help_flags(build, name)
        exp = want.get(name, set())
        if got == exp:
            print(f"ok   {name}: {len(got)} flags")
            continue
        failures += 1
        print(f"FAIL {name}: added {sorted(got - exp)}, "
              f"dropped {sorted(exp - got)}")
    return failures


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "errors":
        return 1 if check_errors(sys.argv[2]) else 0
    if len(sys.argv) >= 4 and sys.argv[1] == "flags":
        return 1 if check_flags(sys.argv[2], sys.argv[3]) else 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
