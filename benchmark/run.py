"""Benchmark of the heartproof CLI.

    python3 benchmark/run.py --workload analyze-groups --seed 1 --seconds 25 --trace 0

runs one workload in this interpreter and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics, or with `--trace 1` the per-layer ones). Without
`--workload` it runs every workload, each in a fresh interpreter, and
prints one such line per workload. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        code = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print(json.dumps({"workload": name, **json.loads(lines[-1])}) if lines
                  else json.dumps({"workload": name, "exit": proc.returncode}))
            code = code or proc.returncode
        return code
    try:
        report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = harness.write_report(report)
    for problem in report["problems"][:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in report["failures"][:5]:
        print(f"request failed: {failure}", file=sys.stderr)
    e2e = report["end_to_end"]
    print(f"{args.workload}: {report['result']['attempted']} requests in {report['rounds']} "
          f"rounds, p{report['tail_percentile']} tail; "
          + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()) + f"; report {path.name}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
