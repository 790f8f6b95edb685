"""Run the seeded-bug benchmark binary on one workload and require that the
correctness oracle fails it: a non-zero exit and a result line that says
"correct": false.

usage: check_seeded_bug.py BINARY WORKLOAD
"""
import json
import subprocess
import sys


def main() -> int:
    binary, workload = sys.argv[1], sys.argv[2]
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        print(f"{workload}: the dropped pushes went unnoticed (exit 0)")
        return 1
    if not lines:
        print(f"{workload}: no result line (exit {proc.returncode})\n{proc.stderr}")
        return 1
    result = json.loads(lines[-1])
    if result["correct"] is not False:
        print(f"{workload}: result claims correct")
        return 1
    for line in lines:
        if line.startswith("FAILED"):
            print(f"{workload}: caught: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
