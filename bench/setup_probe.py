"""Time one cold set-up in this fresh process and print it in seconds.

Set-up is the import of costap (with numpy and scipy), the scenario
build and the first `build_bundle`. The interpreter's own start-up is
not included. Usage: python3 bench/setup_probe.py <workload>
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()

import costap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bootstrap.check_source(costap)
costap.build_bundle(WORKLOADS[sys.argv[1]].scenario())
print(repr(perf_counter() - T0))
