"""Run one tegkit CLI command with spans around its layer calls.

    python bench/child.py SPANS_FILE ID_PREFIX PARENT_ID -- ARGS...

Used by the traced run of the cli workload. It times `import tegkit.cli`,
wraps the names the layers import from each other, runs the command, and
writes {"import_ns": ..., "spans": [...]} to SPANS_FILE. The exit code is
the command's.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, install  # noqa: E402


def main() -> int:
    spans_file, prefix, parent, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    start = time.perf_counter_ns()
    import tegkit.cli

    import_ns = time.perf_counter_ns() - start
    tracer = Tracer(id_prefix=prefix, root_parent=parent)
    install(tracer)
    try:
        return tracer.wrap("cli.main", tegkit.cli.main)(argv)
    finally:
        Path(spans_file).write_text(json.dumps({"import_ns": import_ns, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
