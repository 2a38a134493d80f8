"""Write reference_logits.json: the probe-batch logits every benchmark run
compares against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the digit net's forward pass,
and say so in the change.  The probe is a freshly built net (seed 0) in eval
mode on four fixed glyphs; see ``workloads.probe_logits``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ATOL = 1e-5
RTOL = 1e-4


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    logits = {variant: workloads.probe_logits(variant, None)[0].tolist()
              for variant, _ in workloads.TRAIN.values()}
    ref = {"atol": ATOL, "rtol": RTOL, "probe_seed": workloads.PROBE_SEED,
           "probe_samples": workloads.PROBE_SAMPLES, "net_seed": workloads.PROBE_NET_SEED,
           "logits": logits}
    (HERE / "reference_logits.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
