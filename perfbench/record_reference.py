"""Record the sweep reference: ``python3 perfbench/record_reference.py``.

Runs one cold sweep pass per near-duplicate variant ``k`` in
``1..ND_VARIANTS`` over the whole corpus and stores, for every
``<base>~nd<k>``, one digest of its serialized cell results.  Every
sweep pass of the benchmark is checked against this file, so rerun it
only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys

from common import ND_VARIANTS, SWEEP_METHODS, fresh_workdir, require_program
from sweeps import REFERENCE_PATH, PassRunner, cells_for, corpus_names, workload_digests


def main() -> int:
    require_program()
    workdir = fresh_workdir("reference")
    digests: dict[str, str] = {}
    try:
        names = corpus_names()
        for variant in range(1, ND_VARIANTS + 1):
            cells = cells_for([(name, variant) for name in names])
            document = PassRunner(workdir, cells).run(workdir / f"cache{variant}")
            if document["failures"]:
                print(f"variant {variant}: {document['failures']} failed cells", file=sys.stderr)
                return 1
            digests.update(workload_digests(cells, document["digests"]))
            print(f"variant {variant}: {len(cells)} cells in {document['wall_s']:.1f}s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {
        "methods": list(SWEEP_METHODS),
        "variants": ND_VARIANTS,
        "digests": dict(sorted(digests.items())),
    }
    REFERENCE_PATH.write_text(json.dumps(document, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} workload digests to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
