#!/usr/bin/env python3
"""Executable specification for bgpcc-lint: runs the tool over the
fixture corpus and asserts three things.

 1. Every ``*_bad.cc`` fixture fires *exactly* the check named in its
    filename (``d1_bad.cc`` → D1, ``sup_bad.cc`` → SUP), at least once.
 2. Every ``*_clean.cc`` twin and ``suppressed.cc`` produces no
    findings at all.
 3. The aggregate findings match ``expected.txt`` byte-for-byte, so
    line numbers and messages cannot drift silently. Regenerate with
    ``run_fixtures.py --update`` after an intentional change.

Each fixture is linted in its own invocation so fixtures cannot leak
symbols (class names, aliases) into each other's analysis. Fixtures of
path-dependent checks sit in a subdirectory named like the source
directory they stand for (``core/l1_bad.cc``: L1 reads the layer from
the directory).

Exits 0 on success, 1 with a diff/report on any mismatch.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys

COMPACT_LINE_RE = re.compile(r"^(.+?):(\d+): ([A-Z0-9]+) ")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(here))
    ap = argparse.ArgumentParser()
    ap.add_argument("--lint",
                    default=os.path.join(repo, "tools", "lint",
                                         "bgpcc_lint.py"))
    ap.add_argument("--fixtures", default=here)
    ap.add_argument("--update", action="store_true",
                    help="rewrite expected.txt from current output")
    args = ap.parse_args()

    fixtures = sorted(
        os.path.relpath(os.path.join(root, f), args.fixtures)
        for root, _, names in os.walk(args.fixtures)
        for f in names if f.endswith(".cc"))
    if not fixtures:
        print("run_fixtures: no .cc fixtures found", file=sys.stderr)
        return 1

    all_lines = []
    errors = []
    for name in fixtures:
        path = os.path.join(args.fixtures, name)
        proc = subprocess.run(
            [sys.executable, args.lint, path,
             "--root", args.fixtures, "--format", "compact"],
            capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            errors.append(f"{name}: bgpcc-lint crashed "
                          f"(exit {proc.returncode}): {proc.stderr.strip()}")
            continue
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        all_lines.extend(lines)
        fired = set()
        for ln in lines:
            m = COMPACT_LINE_RE.match(ln)
            if not m:
                errors.append(f"{name}: unparseable output line: {ln!r}")
                continue
            fired.add(m.group(3))

        stem = os.path.basename(name)[:-3]
        if stem.endswith("_bad"):
            want = {stem[:-4].split("_")[-1].upper()}
            if want == {"SUP"}:
                # A reasonless suppression is a SUP finding AND leaves
                # the check it names (D1 here) unsilenced — both fire.
                want = {"SUP", "D1"}
            if want - fired:
                errors.append(f"{name}: expected {sorted(want)} to fire, "
                              f"got {sorted(fired) or 'nothing'}")
            if fired - want:
                errors.append(f"{name}: unexpected checks fired: "
                              f"{sorted(fired - want)}")
            if proc.returncode != 1:
                errors.append(f"{name}: expected exit 1, got "
                              f"{proc.returncode}")
        else:  # *_clean.cc and suppressed.cc must be silent
            if fired:
                errors.append(f"{name}: expected no findings, got "
                              f"{sorted(fired)}:\n  " + "\n  ".join(lines))
            if proc.returncode != 0:
                errors.append(f"{name}: expected exit 0, got "
                              f"{proc.returncode}")

    expected_path = os.path.join(args.fixtures, "expected.txt")
    got = "\n".join(all_lines) + ("\n" if all_lines else "")
    if args.update:
        with open(expected_path, "w", encoding="utf-8") as f:
            f.write(got)
        print(f"run_fixtures: wrote {len(all_lines)} finding(s) to "
              f"{expected_path}")
    else:
        try:
            with open(expected_path, "r", encoding="utf-8") as f:
                want = f.read()
        except FileNotFoundError:
            errors.append("expected.txt missing — run with --update to "
                          "seed it")
            want = ""
        if want != got and "expected.txt missing" not in "".join(errors):
            diff = "\n".join(difflib.unified_diff(
                want.splitlines(), got.splitlines(),
                "expected.txt", "actual", lineterm=""))
            errors.append("golden mismatch (run with --update if the "
                          "change is intentional):\n" + diff)

    if errors:
        print("run_fixtures: FAIL", file=sys.stderr)
        for e in errors:
            print(" - " + e, file=sys.stderr)
        return 1
    print(f"run_fixtures: OK — {len(fixtures)} fixtures, "
          f"{len(all_lines)} expected finding(s) matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
