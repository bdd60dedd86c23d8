"""One worker process of a benchmark run (started by ``run.py``).

Pays a user's set-up (imports, problem assembly, pole loading, ``Engine``
construction), prints ``ready`` so the parent can time it, then runs one
``integrate`` call, traced or not. It writes the final state to the given
``.npy`` path, the spans of a traced call next to it, and prints its sample
as one JSON line.

Usage: python3 perfbench/worker.py <workload> <seed> <traced 0|1> <state.npy>
"""

import json
import sys
import time

import run

run.configure()

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: int, traced: bool, state_path: str) -> None:
    t0 = time.perf_counter()
    cell = WORKLOADS[name](seed)
    assemble_s = time.perf_counter() - t0
    engine = cell.engine()
    print("ready", flush=True)
    sample = run.run_integrate(cell, engine, traced)
    if sample["error"] is None:
        np.save(state_path, sample["state"])
    if sample["spans"]:
        with open(state_path.replace("-state.npy", "-spans.json"), "w") as fh:
            json.dump(sample["spans"], fh)
    del sample["state"], sample["spans"]
    print(json.dumps({"assemble_s": assemble_s, "sample": sample}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
