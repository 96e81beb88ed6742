"""Run one tscode CLI command with its layers traced.

Usage: python traced_cli.py SPANS_JSON tscode-arguments...

Does what `python -m tscode.cli` does, and writes the spans of the call to
SPANS_JSON when it ends. Only the standard library is imported before
tscode.cli, so the cli.import span covers the whole import.
"""

import sys
import time

start = time.perf_counter()
import tscode.cli  # noqa: E402

end = time.perf_counter()

from tracer import Tracer, install_layer_wrappers  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", start, end)
    install_layer_wrappers(tracer, first_encode_is_warmup=True)
    try:
        return tscode.cli.main(argv)
    finally:
        tracer.unpatch()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
