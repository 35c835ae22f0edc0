"""Re-pin the SHA-256 digests of every workload's outputs at the default seed.

    python3 bench/pin.py

Runs each workload's default-seed config at --jobs 1 and --jobs 2, refuses
to pin unless both produce the same bytes, and rewrites pins.json. Re-pin
only for a deliberate change of the random realization, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from digests import digest_dir
from run import PINS, ROOT, WORK, check_checkout, check_output, run_cli
from workloads import DEFAULT_SEED, WORKLOADS, make_config, write_config


def main() -> int:
    check_checkout()
    work = WORK / "pin"
    pins = {}
    try:
        for w in WORKLOADS.values():
            cfg = write_config(work / f"{w.name}.json", make_config(ROOT, w, DEFAULT_SEED))
            digests = []
            for jobs in (1, 2):
                out = work / f"{w.name}-jobs{jobs}"
                run = run_cli(w, cfg, out, jobs)
                problems = check_output(w, run.returncode, run.stderr, out, None)
                if problems:
                    print(f"{w.name} --jobs {jobs}: {problems}", file=sys.stderr)
                    return 1
                digests.append(digest_dir(out))
            if digests[0] != digests[1]:
                print(f"{w.name}: --jobs 1 and --jobs 2 outputs differ", file=sys.stderr)
                return 1
            pins[w.name] = digests[0]
            print(f"{w.name}: {len(digests[0])} files")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
