"""The server child: load the generated inputs, register the tables,
serve until stdin closes.

It runs in its own process so the benchmark's client threads never share
the server's GIL.  It prints one JSON line when it is listening: port
and stored bytes.
"""

import json
import os
import sys

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.abspath(__file__)), *up)
    for up in ((os.pardir, os.pardir, "src"), (os.pardir, os.pardir))
]

from repro.server import Catalog, SmartArrayServer  # noqa: E402

from benchmarks.e2e import data  # noqa: E402


def main(input_dir: str) -> None:
    tables, _ = data.build_tables(data.load(input_dir))
    catalog = Catalog()
    for name, table in tables.items():
        catalog.register(name, table)
    with SmartArrayServer(catalog, port=0) as server:
        print(json.dumps({"port": server.port,
                          "storage_bytes": data.storage_bytes(tables)}),
              flush=True)
        sys.stdin.read()  # EOF = the benchmark is done with us


if __name__ == "__main__":
    main(sys.argv[1])
