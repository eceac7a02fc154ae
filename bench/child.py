"""One benchmark sample in a fresh interpreter: set up, then jchsim.cli.main.

Usage: child.py CONFIG [--trace] [--setup-only] -- CLI_ARGV...

Set-up is importing every jchsim module (numpy, scipy) and parsing the
config; the parent times it from just before it starts this process to
the `ready` stamp (both read CLOCK_MONOTONIC). run_s is the wall time of
cli.main, which returns after every output is written. The last stdout
line is a JSON object with the stamps, timings and the child's own peak
RSS.
"""

import json
import platform
import resource
import sys
import time


def main(argv):
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    config_path = opts[0]

    import numpy
    import scipy

    import jchsim.cli
    import jchsim.dynamics  # imports every other jchsim module
    import jchsim.params

    tracer = None
    if "--trace" in opts:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(config_path) as fh:
        jchsim.params.parse_config(fh.read())
    result = {"ready": time.monotonic()}

    if "--setup-only" not in opts:
        start = time.perf_counter()
        result["exit_code"] = jchsim.cli.main(cli_argv)
        result["run_s"] = time.perf_counter() - start
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = rss_kib * 1024 / 1e6
        result["versions"] = {"python": platform.python_version(),
                              "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
