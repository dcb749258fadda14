"""Merge the output digests runs observed into digests.json.

    python3 bench/record_digests.py

Each run writes .bench_work/digests-<workload>-s<seed>.json, mapping a digest
of a job's input (argv and file bytes) to a digest of its exit code, stdout
and stderr.  Run this after runs of the seed commit; later runs then check
every job whose input is listed, which keeps outputs byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    table = json.loads((HERE / "digests.json").read_text())
    for path in sorted((HERE.parent / ".bench_work").glob("digests-*-s*.json")):
        workload = path.name[len("digests-"):].rsplit("-s", 1)[0]
        observed = json.loads(path.read_text())
        recorded = table.setdefault(workload, {})
        clashes = [key for key, digest in observed.items()
                   if recorded.get(key, digest) != digest]
        if clashes:
            raise SystemExit(f"{path.name}: {len(clashes)} outputs differ from "
                             f"their recorded digests")
        recorded.update(observed)
    (HERE / "digests.json").write_text(
        json.dumps({w: dict(sorted(d.items())) for w, d in sorted(table.items())},
                   indent=0, sort_keys=True) + "\n")
    print({workload: len(digests) for workload, digests in table.items()})


if __name__ == "__main__":
    main()
