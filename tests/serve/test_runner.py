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
