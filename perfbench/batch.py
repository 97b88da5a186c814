"""Run several kingmesh commands in one interpreter, as one CLI process would.

    python3 perfbench/batch.py '<JSON list of argument lists>'

Each command writes its output to stdout as ``kingmesh`` would.  The exit code
is the first nonzero exit code of a command, or 0.
"""

import json
import sys

from kingmesh import cli


def main() -> int:
    code = 0
    for argv in json.loads(sys.argv[1]):
        code = code or cli.main(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
