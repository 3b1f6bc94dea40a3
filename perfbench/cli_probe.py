"""`python -m genquilt.cli` for traced runs, with the import and main() timed.

    python3 perfbench/cli_probe.py <genquilt arguments>

Runs the command exactly as the CLI would and appends one JSON line to
stderr: {"import": [start, end], "main": [start, end]} in perf_counter
seconds.
"""

import json
import sys
import time

start = time.perf_counter()
import genquilt.cli  # noqa: E402

imported = time.perf_counter()
code = genquilt.cli.main(sys.argv[1:])
sys.stdout.flush()
done = time.perf_counter()
sys.stderr.write(json.dumps({"import": [start, imported], "main": [imported, done]}) + "\n")
sys.exit(code)
