"""Run one benchmark task in this fresh process and print its JSON result.

    python3 -m perfbench.worker '{"task": "ensemble.measure", "kwargs": {...}}'

Each workload runs in a process of its own so its peak RSS is its own.
"""

import json
import sys

from . import clicks, cli, ensemble

TASKS = {
    "ensemble.measure": ensemble.measure,
    "ensemble.reference": ensemble.reference,
    "ensemble.traced": ensemble.traced,
    "clicks.measure": clicks.measure,
    "clicks.traced": clicks.traced,
    "cli.measure": cli.measure,
    "cli.traced": cli.traced,
}


def main(argv):
    spec = json.loads(argv[1])
    result = TASKS[spec["task"]](**spec["kwargs"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
