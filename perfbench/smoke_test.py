#!/usr/bin/env python3
"""The benchmark's own tests, at smoke sizes (tiny datasets, one short rate
step). Run from the repo root:

  python3 perfbench/smoke_test.py

For every workload (those in BENCHMARK.json, plus service_mix) it runs the
untraced and the traced run and checks the result line against
BENCHMARK.json: every declared metric present with its unit, a numeric
value, no failed job. Then it runs each workload with a
deliberately corrupted reference, which the output check must count as a
failed job (correct false, failed > 0, ok_frac below 1), and service_mix
with its daemon killed mid-run, whose unfinished jobs must fail without the
run hanging. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--smoke"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), done.returncode,
                                           done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            sys.exit("FAIL %s: metric %s missing" % (label, m["name"]))
        if got["unit"] != m["unit"]:
            sys.exit("FAIL %s: %s unit %s != %s" %
                     (label, m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)):
            sys.exit("FAIL %s: %s value not a number" % (label, m["name"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        sys.exit("FAIL %s: undeclared metrics %s" % (label, sorted(extra)))


# service_mix is not in BENCHMARK.json (see README.md) but stays tested.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["service_mix"]


def main():
    for name in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            label = "%s trace %d" % (name, trace)
            result = run(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit("FAIL %s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                sys.exit("FAIL %s: %s" % (label, result))
            if result["attempted"] < 1:
                sys.exit("FAIL %s: nothing attempted" % label)
            check_metrics(result, declared, label)
            print("ok  %s (%d jobs)" % (label, result["attempted"]))
        for trace in (0, 1):
            label = "%s trace %d corrupted reference" % (name, trace)
            result = run(name, trace, "--corrupt-reference")
            if result["correct"] or result["failed"] < 1:
                sys.exit("FAIL %s: the corrupted reference was not caught: %s"
                         % (label, result))
            if trace == 0 and result["metrics"]["ok_frac"]["value"] >= 1:
                sys.exit("FAIL %s: ok_frac does not show the failure" % label)
            print("ok  %s (%d failed)" % (label, result["failed"]))
    # The daemon dies mid-run: every unfinished job fails, the run ends.
    result = run("service_mix", 0, "--kill-daemon")
    if result["correct"] or result["failed"] < 1:
        sys.exit("FAIL service_mix daemon death not counted: %s" % result)
    print("ok  service_mix daemon killed mid-run (%d of %d failed)" %
          (result["failed"], result["attempted"]))
    print("all smoke checks passed")


if __name__ == "__main__":
    main()
