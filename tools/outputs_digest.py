#!/usr/bin/env python3
"""Run every bundled scenario into OUT_DIR/<name>/ and print one sha256 per
output file, so two checkouts can be compared byte for byte:

    python tools/outputs_digest.py OUT_DIR > digests.txt
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from softarm.cli import run_scenario

out = Path(sys.argv[1])
for scenario in sorted((ROOT / "src" / "softarm" / "scenarios").glob("*.json")):
    if run_scenario(scenario.stem, out_dir=out / scenario.stem, quiet=True) != 0:
        sys.exit(f"{scenario.stem}: nonzero exit code")
for path in sorted(out.glob("*/*")):
    print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out))
