#!/usr/bin/env python3
"""Run every bundled scenario into OUT_DIR/<name>/ and print one sha256 per
output file, so two checkouts can be compared byte for byte:

    python tools/outputs_digest.py OUT_DIR > digests.txt
    python tools/outputs_digest.py OUT_DIR --against digests.txt

With --against FILE, the digests are also checked against FILE, a listing
an earlier run printed: every file whose digest differs, that FILE lists
and this run did not write, or that this run wrote and FILE does not list
is named on stderr, and the exit code is 1.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from softarm.cli import run_scenario


def digests(out: Path) -> dict:
    """Run every bundled scenario into ``out``; {relative path: sha256}."""
    for scenario in sorted((ROOT / "src" / "softarm" / "scenarios").glob("*.json")):
        if run_scenario(scenario.stem, out_dir=out / scenario.stem, quiet=True) != 0:
            sys.exit(f"{scenario.stem}: nonzero exit code")
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*/*"))}


def read_listing(text: str) -> dict:
    """{relative path: sha256} of a listing this script printed."""
    return {path: digest for digest, path in
            (line.split(" ", 1) for line in text.splitlines() if line)}


def differences(got: dict, expected: dict) -> list:
    """One line per file whose digest differs, is missing or is extra."""
    return ([f"differs: {path}" for path in sorted(got.keys() & expected.keys())
             if got[path] != expected[path]]
            + [f"missing: {path}" for path in sorted(expected.keys() - got.keys())]
            + [f"extra: {path}" for path in sorted(got.keys() - expected.keys())])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, metavar="OUT_DIR")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="listing of an earlier run to compare with")
    args = parser.parse_args(argv)
    got = digests(args.out_dir)
    for path, digest in got.items():
        print(digest, path)
    if args.against is None:
        return 0
    found = differences(got, read_listing(args.against.read_text(encoding="utf-8")))
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
