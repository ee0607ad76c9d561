"""Print the default-seed simulated fingerprints of every workload as JSON.

    python3 perfbench/record_fingerprints.py > perfbench/fingerprints.json

Only for a change that is *meant* to alter simulated outputs: the
committed file is the reference every benchmark run checks its warm-up
rounds against, and a mismatch counts the round's operations as failed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    references = {}
    for name, cls in WORKLOADS.items():
        result = cls(DEFAULT_SEED, references={}).setup()
        references[name] = {"round": json.loads(json.dumps(result.fingerprint))}
    json.dump(references, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
