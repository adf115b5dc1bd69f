#!/usr/bin/env python3
"""Regenerate reference.json, the outputs the benchmark's correctness check
compares against: the accuracy matrices of every training workload and the
verify campaign names, for every seed of the default and held-out sets.

Run from the root of a checkout, at the commit whose outputs are the
reference (a later change then reports its accuracy drift against it):

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys
import time

import run


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    workloads = {}
    for name, spec in run.WORKLOADS.items():
        pools = run.SEED_SETS[spec["kind"]]
        entries = workloads[name] = {}
        for seed in sorted(set(pools["default"]) | set(pools["heldout"])):
            inv_dir = run.WORK / f"{name}-{seed}"
            inv_dir.mkdir()
            out, config = None, inv_dir / "workload.cfg"
            if spec["kind"] == "training":
                out = inv_dir / "out"
                run.write_config(config, run.workload_config(name, seed))
            argv = run.workload_argv(name, seed, config, out)
            inv = run.invoke("run", argv, inv_dir, time.monotonic() + 600)
            if inv.exit_code != 0:
                sys.exit(f"{name} seed {seed}: exit code {inv.exit_code}")
            if out is None:
                entries[str(seed)] = {
                    "campaigns": [c[0] for c in run.verify_campaigns(inv.stdout)]
                }
            else:
                entries[str(seed)] = {
                    "matrices": {
                        str(p.relative_to(out)): run.read_matrix(p)
                        for p in sorted(out.rglob("accuracy_matrix_*.csv"))
                    },
                    "quality": run.quality(out),
                }
            print(f"{name} seed {seed}: {inv.wall_s:.2f} s", flush=True)
    shutil.rmtree(run.WORK)
    reference = {"source": run.source_id(), "workloads": workloads}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
