"""One set-up of a workload in a fresh process, for the benchmark's setup_s.

Imports volseg, builds the run config, loads every fold's weights and
reads the training inputs, then prints ``time.monotonic()``. The parent
subtracts the moment it started this process, so the sample covers
interpreter start to ready. Run by run.py as
``python3 perfbench/setup_probe.py '<json spec>'``.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import volseg  # noqa: E402
from volseg import cli  # noqa: E402

cfg = cli.build_run_config(spec["config"])
for path in cfg.weights:
    volseg.load_weights(path, cfg.network)
for path in spec["volumes"]:
    volseg.read_nifti(path)
for path in spec["masks"]:
    volseg.read_nifti(path, as_mask=True)
print(time.monotonic())
