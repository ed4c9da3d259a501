"""Fast self-test of the benchmark at a one-task size.

Runs every workload of ``run.py`` (those of ``BENCHMARK.json`` and
``sweep_sparse``) once untraced and once traced with ``--smoke`` (one
sweep task, one select) and checks that the last line is a result whose
outputs passed their checks and whose metrics are exactly the ones
``BENCHMARK.json`` names, each with its unit.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in set(got) & set(wanted[trace])
                               if got[k] != wanted[trace][k])
                errors.append(f"{where}: missing={missing} extra={extra} unit={wrong}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))]
            if bad:
                errors.append(f"{where}: non-numeric values {bad}")
            print(f"{where}: {len(got)} metrics, correct={result['correct']}")
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
