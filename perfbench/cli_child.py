"""Run one ``supermalcev`` CLI request with a recorder installed.

Usage: python perfbench/cli_child.py RECORD_PATH {trace,count} CLI_ARGS...

The request behaves exactly like ``python -m supermalcev.cli CLI_ARGS...``
(same stdout, stderr and exit code); the spans and facts recorded inside it
are written to RECORD_PATH as JSON when it ends, however it ends.
"""

import json
import sys

from tracing import Recorder

import supermalcev.cli


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = Recorder(count_calls=mode == "count")
    recorder.install()
    try:
        sid = recorder.begin("cli.main")
        try:
            return supermalcev.cli.main(argv)
        finally:
            recorder.end(sid)
    finally:
        recorder.uninstall()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
