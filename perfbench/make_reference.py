"""Write reference.json: output digests and modes of every workload at seed 0.

    python3 perfbench/make_reference.py

Run it only when a change of outputs is intended.  Digests are taken with
the timestamp blanked and checked for every case whose inputs match a
case here; modes (certification mode, MDS tier) are stored per mode key,
so they are checked for seed-drawn inputs too.  Refuses to write when a
case fails its gates or one mode key gets two different modes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def main() -> int:
    digests, modes, failures = {}, {}, []
    cwd = os.getcwd()
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        os.chdir(workdir)
        Path(workloads.MALFORMED_FILE).write_text(workloads.MALFORMED_RECORD, encoding="utf-8")
        for name in workloads.WORKLOADS:
            result = child.run_pass(workloads.cases(name, SEED), None)
            failures += result["failures"]
            for case, dig, mode in result["records"]:
                digests[case.key] = dig
                if case.mode_key:
                    if modes.setdefault(case.mode_key, mode) != mode:
                        failures.append(f"{case.mode_key}: modes {modes[case.mode_key]} and {mode}")
            print(f"{name}: {result['wall']:.2f} s", file=sys.stderr)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    out = {"seed": SEED, "digests": digests, "modes": modes}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
