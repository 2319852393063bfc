"""Run every workload once untraced and once traced; print one table.

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--write]

Prints every end-to-end metric of every workload in ``BENCHMARK.json`` by
name and unit, with the attempted and failed point counts and the
known-defect breakdown, then the per-layer metrics. With ``--write`` the results, with their fingerprints, are stored in
``perfbench/baseline.json``.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} failed ({proc.returncode}):\n{proc.stderr}")
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    results = {name: {trace: run(name, args.seed, args.seconds, trace) for trace in (0, 1)}
               for name in names}

    width = max(len(n) for n in names) + 2
    print(f"{'metric':<44}{'unit':<7}" + "".join(f"{n:>{width}}" for n in names))
    for section in ("end_to_end", "per_layer"):
        trace = 0 if section == "end_to_end" else 1
        for metric in spec[section]:
            row = "".join(f"{results[n][trace]['metrics'][metric['name']]['value']:>{width}.5g}"
                          for n in names)
            print(f"{metric['name']:<44}{metric['unit']:<7}{row}")
        if section == "end_to_end":
            for key in ("attempted", "failed", "unexpected"):
                print(f"{key:<44}{'count':<7}" + "".join(f"{results[n][0][key]:>{width}}" for n in names))
            for n in names:
                print(f"  {n}: known defects {results[n][0]['known_defects'] or 'none'}")
            print()

    if args.write:
        out = {n: {"trace0": r[0], "trace1": r[1]} for n, r in results.items()}
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
