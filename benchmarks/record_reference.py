#!/usr/bin/env python3
"""Record the CSV values the built-in workloads are checked against.

    python3 benchmarks/record_reference.py

Runs selfconv-ex2 and consistency-ex3 once each and stores every written
cell in reference.json.  The stored values are the seed commit's; re-record
only when a change is meant to alter the numbers, and say so in review.
"""

import json
import os
import shutil
import time

from run import HERE, ROOT, Runner, read_outputs
from workloads import WORKLOADS, read_rows


def main() -> None:
    workdir = os.path.join(ROOT, ".bench_run", "record-reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    reference = {}
    try:
        runner = Runner(workdir, time.perf_counter() + 600.0)
        for name in ("selfconv-ex2", "consistency-ex3"):
            workload = WORKLOADS[name]
            config_path = os.path.join(workdir, "study.cfg")
            with open(config_path, "w") as stream:
                stream.write(workload.config(0) or "")
            out = os.path.join(workdir, name)
            os.makedirs(out)
            result, _, stderr = runner.child("run", {"argv": workload.argv(config_path, out)})
            if result is None or result["code"] != 0:
                raise SystemExit(f"{name} failed: {stderr}")
            reference[name] = {file: read_rows(data) for file, data in read_outputs(out).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as stream:
        stream.write(format_reference(reference))


def format_reference(reference: dict) -> str:
    """JSON with one CSV row per line."""
    workloads = []
    for name, files in reference.items():
        tables = []
        for file, rows in files.items():
            lines = ",\n".join(f"   {json.dumps(row)}" for row in rows)
            tables.append(f"  {json.dumps(file)}: [\n{lines}\n  ]")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(tables) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


if __name__ == "__main__":
    main()
