"""Start-up hook that makes a command-line child trace itself.

``workloads.cli_env`` puts this directory and the benchmark's own on a
child's PYTHONPATH only while a traced run has set
``tracing.CHILD_TRACE_DIR``.  The hook imports the package, routes its
entry points through a tracer whose spans carry the op id from
``tracing.CHILD_TRACE_OP``, and dumps them into that directory when the
child exits.
"""

import atexit
import os

import tracing

if os.environ.get(tracing.CHILD_TRACE_DIR):
    from pathlib import Path

    import padic_oscillator  # noqa: F401  (install wraps the loaded modules)

    _tracer = tracing.Tracer()
    _tracer.op_id = int(os.environ.get(tracing.CHILD_TRACE_OP, "-1"))
    tracing.install(_tracer)
    atexit.register(_tracer.dump, Path(os.environ[tracing.CHILD_TRACE_DIR]) / f"child-{os.getpid()}")
