""":class:`RequestRunner` tests: every outcome leaves a manifest."""

from pathlib import Path

import numpy as np

from repro.observe.manifest import load_manifest, validate_manifest
from repro.serve.protocol import STATUS_FAILED, Request
from repro.serve.runner import RequestRunner


def test_failed_request_writes_failed_manifest(tmp_path):
    z = np.full((6, 6), 5000.0)
    z[2, 3] = float("nan")
    runner = RequestRunner(tmp_path / "results")
    response = runner.run(
        Request(z=z.tolist(), validate="strict", id="bad"),
        batch_size=1,
        warm=False,
        queue_seconds=0.0,
    )
    assert response.status == STATUS_FAILED
    assert "z_kohm[" in response.error
    assert response.manifest_path is not None
    assert Path(response.manifest_path).is_file()
    manifest = load_manifest(response.manifest_path)
    validate_manifest(manifest)
    assert manifest["config"]["status"] == "failed"
    assert manifest["config"]["request_id"] == "bad"


def test_warm_label_is_owned_by_the_runner(tmp_path):
    """Warm means this runner already ran a request of the same n."""
    from repro.mea.wetlab import quick_device_data
    from repro.observe import Observer

    runner = RequestRunner(tmp_path / "results", observer=Observer())

    def run(n: int, rid: str, **kwargs):
        _, z = quick_device_data(n, seed=3)
        return runner.run(
            Request(z=z.tolist(), id=rid),
            batch_size=1,
            queue_seconds=0.0,
            **kwargs,
        )

    assert not run(6, "a").cache_warm
    assert run(6, "b").cache_warm
    assert not run(7, "c").cache_warm
    # An explicit label is honoured as given.
    assert not run(6, "d", warm=False).cache_warm
    assert run(8, "e", warm=True).cache_warm
    snapshot = runner.observer.metrics.snapshot()
    assert snapshot["serve.latency.cold_seconds"]["count"] == 3
    assert snapshot["serve.latency.warm_seconds"]["count"] == 2
    manifest = load_manifest(str(tmp_path / "results/req-b/manifest.json"))
    assert manifest["config"]["cache_warm"] is True
    assert "formation" not in manifest["config"]
    assert not any(key.startswith("formation.") for key in manifest["metrics"])
