"""Record ``reference.json``: one round of each workload at the default seed.

    python3 perfbench/record_reference.py

The reference is recorded once, at a commit whose outputs are trusted,
before any optimisation lands.  Re-recording it to make a change pass
defeats the correctness gate.
"""

import json
import shutil
import tempfile
from pathlib import Path

from run import ROOT, import_program

if __name__ == "__main__":
    import_program()
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        out_dir = Path(tempfile.mkdtemp(dir=ROOT))
        try:
            workloads.reset_process_caches()
            out = wl.collect(out_dir, wl.run(out_dir))
        finally:
            shutil.rmtree(out_dir)
        reference[name] = workloads.reference_entry(wl, out)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
