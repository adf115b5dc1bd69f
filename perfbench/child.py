"""One workload process: import adaptcl from the checkout, timestamp the entry
into `adaptcl.cli.main`, run it on the given argv and write a JSON record.

    python3 child.py RESULT_JSON MODE [SPANS_PATH RUN_ID] -- <adaptcl argv>

MODE is `setup` (stop at the entry into main, report the environment),
`run`, or `trace` (wrap the package with the outside-in tracer first).
Every mode samples the host speed (hostclock.py) from its first line to
the end of main; in `trace` the probe time (about 0.5%) falls inside the
span that was running.
Timestamps use time.monotonic(), the same clock the parent reads.
"""

import json
import os
import resource
import sys
import time


def _environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    split = sys.argv.index("--")
    opts, argv = sys.argv[1:split], sys.argv[split + 1 :]
    result_path, mode = opts[0], opts[1]

    from hostclock import Sampler

    sampler = Sampler()
    sampler.start()

    from adaptcl import cli

    record = {"t_main": time.monotonic(), "module": cli.__file__}
    if mode == "setup":
        sampler.stop()
        record["env"] = _environment()
    else:
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer("adaptcl", run_id=opts[3])
            tracer.install()
        record["exit_code"] = cli.main(argv)
        record["t_done"] = time.monotonic()
        sampler.stop()
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if argv and argv[0] == "verify":
            from dataclasses import asdict

            from adaptcl.verify import VerifySizes

            record["verify_sizes"] = asdict(VerifySizes())
        if tracer is not None:
            record["trace"] = tracer.summary()
            tracer.write(opts[2])
    record["ticks"] = sampler.ticks
    with open(result_path, "w") as f:
        json.dump(record, f)
    return record.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
