"""Workload registry.  Importing it imports the package."""

from wl_compile import Compile
from wl_execute import Execute
from wl_serve import Serve
from wl_tune import Tune

WORKLOADS = {w.name: w for w in (Compile, Execute, Tune, Serve)}
