#!/usr/bin/env python
"""The full lab workflow: Excel workbook → Parma → tracked diagnosis.

Mirrors the paper's §V-B data pipeline end to end:

1. the (simulated) wet lab saves a day of readings as an Excel-style
   workbook — one CSV sheet per timepoint plus a metadata sheet;
2. the workbook is converted to the Parma measurement text format
   ("The data are originally saved as Excel files and converted into
   text files before being fed to the Parma system prototype");
3. every timepoint is parametrized (warm-started);
4. detected regions are linked into longitudinal *tracks* and each
   lesion gets a growth rate, drift velocity, and persistence verdict;
5. the device's measurement *sensitivity* is mapped to show where the
   diagnosis is well-supported.

Usage::

    python examples/lab_to_diagnosis.py [n] [seed]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import ParmaEngine, run_pipeline
from repro.anomaly.tracking import track_regions
from repro.instrument.heatmap import render_field
from repro.io.textformat import load_campaign
from repro.io.workbook import convert_workbook, export_workbook
from repro.kirchhoff.sensitivity import aggregate_sensitivity
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import WetLabConfig, run_campaign


def main(n: int = 10, seed: int = 23) -> None:
    workdir = Path(tempfile.mkdtemp(prefix="parma-lab-"))
    print(f"== Lab-to-diagnosis on a {n}x{n} device (workdir {workdir}) ==\n")

    # 1. The lab's day: simulated campaign, exported as a workbook.
    spec = paper_like_spec(n, num_anomalies=2, seed=seed)
    config = WetLabConfig(noise_rel=0.002, growth_per_hour=0.03)
    run = run_campaign(spec, config, seed=seed)
    workbook = export_workbook(run.campaign, workdir / "device-A7")
    sheets = sorted(p.name for p in workbook.iterdir())
    print(f"1. lab export: {workbook.name} with {sheets}")

    # 2. The paper's conversion step.
    text_path = workdir / "device-A7.txt"
    convert_workbook(workbook, text_path)
    campaign = load_campaign(text_path)
    print(f"2. converted to {text_path.name}: "
          f"{len(campaign)} timepoints at hours {campaign.hours}")

    # 3. Parametrize the whole day.
    engine = ParmaEngine(strategy="pymp", num_workers=4,
                         threshold_sigmas=3.0)
    out = run_pipeline(campaign, engine=engine,
                       output_dir=workdir / "equations", warm_start=True)
    print("3. parametrized all timepoints "
          f"({out.total_formation_terms()} terms formed and written "
          "under equations/)")

    # 4. Track lesions across the day.
    detections = [r.detection for r in out.results]
    tracking = track_regions(detections, list(out.hours), max_jump=2.5)
    print(f"\n4. lesion tracks ({tracking.num_tracks} total):")
    for track in tracking.tracks:
        peaks = track.peaks()
        status = (
            "persistent" if track.observations == len(out.hours)
            else f"seen {track.observations}/{len(out.hours)} timepoints"
        )
        print(
            f"   track {track.track_id}: {status}; "
            f"first at t={track.first_seen:g} h near "
            f"({track.regions[0].centroid[0]:.1f}, "
            f"{track.regions[0].centroid[1]:.1f}); "
            f"peak {peaks[0]:.0f} -> {peaks[-1]:.0f} kΩ; "
            f"growth {track.growth_rate_per_hour():+.1%}/h; "
            f"drift {track.drift_velocity():.2f} sites/h"
        )
    fastest = tracking.fastest_growing()
    if fastest is not None:
        print(f"   fastest-growing lesion: track {fastest.track_id}")

    # 5. Where is the diagnosis well-supported?
    final = out.results[-1]
    print("\n5. final recovered field with detections (X):")
    print(render_field(final.resistance, mask=final.detection.mask))
    coverage = aggregate_sensitivity(final.resistance)
    print("\n   measurement coverage (device blind spots read dim):")
    print(render_field(coverage, legend=True))


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
