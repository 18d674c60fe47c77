"""Run one ``repro`` command with the benchmark's span wrappers installed.

Usage: ``python perfbench/launch.py SPANS_JSON <repro arguments...>``

Times the import of ``repro.cli``, installs :mod:`tracer`'s wrappers for
the command, runs it through ``repro.cli.main`` and writes the spans to
``SPANS_JSON`` when it returns (for ``serve``: after SIGTERM). The exit
code is the command's.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main(argv: list) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import repro.cli

        # Modules the command imports lazily, loaded now so their
        # functions can be wrapped; the untraced command loads them too.
        if args[0] == "serve":
            import repro.serve.app  # noqa: F401
        if "spot" in args:
            import repro.cloud.spotsim  # noqa: F401
            import repro.core.rerank  # noqa: F401
    tracing.install(tracer, args[0])
    with tracer.span("cli.main"):
        code = repro.cli.main(args)
    workspace = repro.cli._last_workspace
    if workspace is not None:
        tracer.extra["artifacts.bytes"] = float(sum(
            c.bytes_written for c in workspace.store.counters.values()
        ))
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
