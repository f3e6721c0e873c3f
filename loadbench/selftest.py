#!/usr/bin/env python3
"""Self-test of the load benchmark at tiny scale.

    python3 loadbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric with its unit, and a
    traced run every per-layer metric, with "correct": true;
  * the traced run emits the same wire digest as the untraced run;
and that a run whose server forges the auth tokens of query results
(tamper_result(..., ServerAttack::kForgeToken, ...)) exits non-zero.
Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", trace, "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = re.search(r"\bwire_digest = ([0-9a-f]+)", proc.stdout)
    return proc.returncode, result, digest.group(1) if digest else None, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        digests = {}
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, digests[trace], proc = run(workload, trace)
            label = "%s --trace %s" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  label + " exits 0 with a correct result")
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, label + " prints every %s metric with its unit" % key)
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  label + " metric values are numbers")
        check(digests["0"] is not None and digests["0"] == digests["1"],
              workload + " traced run emits the untraced wire digest")

    code, result, _, _ = run("query_skew", "0", "--tamper")
    check(code != 0 and (result is None or not result["correct"]),
          "forged query results make the run exit non-zero")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
