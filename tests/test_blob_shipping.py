"""Content-addressed target shipping over the /v1 API.

The tentpole invariants under test:

* the blob endpoints round-trip bytes by digest and answer batched
  missing-probes, with ``unknown_blob`` mapping back to ``KeyError``;
* a remote campaign's shard payloads carry the image *manifest* and not
  one coordinator filesystem path, yet the results are byte-identical
  to the thread backend — the worker rebuilt the image from blobs;
* blob uploads deduplicate: a second campaign over the unchanged target
  re-ships zero blobs.
"""

import json
import shutil
import tempfile

import pytest

from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.service.blobs import BlobStore, ImageManifest, blob_digest
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.service import ProFIPyService
from repro.service.shards import REQUIRED_PAYLOAD_KEYS, ShardHost

pytestmark = pytest.mark.integration


@pytest.fixture
def remote_worker():
    """One live worker server whose workspace shares no directory with
    the campaign's tmp_path (the no-shared-filesystem premise)."""
    home = tempfile.mkdtemp(prefix="profipy-blob-worker-")
    service = ProFIPyService(home)
    server, _thread = start_server(service)
    yield server.url
    server.shutdown()
    service.close()
    shutil.rmtree(home, ignore_errors=True)


def _campaign_projection(result):
    """The determinism-relevant projection of a campaign's stream."""
    rows = [
        {"id": e.experiment_id, "seed": e.seed, "point": e.point,
         "status": e.status, "mutated": e.mutated_snippet,
         "original": e.original_snippet}
        for e in result.experiments
    ]
    return json.dumps(rows, sort_keys=True).encode("utf-8")


def _run_remote(toy_project, toy_model, toy_workload, workspace, worker):
    config = CampaignConfig(
        name="shipping",
        target_dir=toy_project,
        fault_model=toy_model,
        workload=toy_workload,
        injectable_files=["app.py"],
        coverage=False,
        parallelism=2,
        backend="remote",
        shards=1,
        workers=[worker],
        seed=7,
        workspace=workspace,
    )
    return Campaign(config).run()


class TestBlobEndpoints:
    def test_put_get_missing_roundtrip(self, remote_worker):
        client = ProFIPyClient(remote_worker)
        payload = b"shipped across the wire"
        digest = blob_digest(payload)
        absent = blob_digest(b"never uploaded")
        assert client.missing_blobs([digest, absent]) == sorted(
            {digest, absent}
        )
        view = client.put_blob(digest, payload)
        assert view["digest"] == digest
        assert view["size"] == len(payload)
        assert client.get_blob(digest) == payload
        assert client.missing_blobs([digest, absent]) == [absent]

    def test_unknown_blob_maps_to_keyerror(self, remote_worker):
        client = ProFIPyClient(remote_worker)
        with pytest.raises(KeyError, match="unknown blob"):
            client.get_blob(blob_digest(b"nowhere"))

    def test_corrupt_upload_rejected(self, remote_worker):
        client = ProFIPyClient(remote_worker)
        with pytest.raises(ValueError, match="hashes to"):
            client.put_blob(blob_digest(b"declared"), b"actual")
        with pytest.raises(ValueError, match="64 hex chars"):
            client.put_blob("not-a-digest", b"bytes")


class TestShardHostManifests:
    def _payload(self, **extra):
        payload = {key: None for key in REQUIRED_PAYLOAD_KEYS}
        payload.update(shard=0, planned=[], **extra)
        return payload

    def test_payload_needs_image_or_manifest(self, tmp_path):
        host = ShardHost(tmp_path / "shards",
                         blob_store=BlobStore(tmp_path / "blobs"))
        with pytest.raises(ValueError, match="'image_manifest'"):
            host.submit(self._payload())

    def test_manifest_payload_needs_a_blob_store(self, tmp_path):
        host = ShardHost(tmp_path / "shards")  # no store
        (tmp_path / "tree").mkdir()
        (tmp_path / "tree" / "a.py").write_text("pass\n")
        manifest = ImageManifest.from_tree(tmp_path / "tree")
        with pytest.raises(ValueError, match="no blob store"):
            host.submit(self._payload(image_manifest=manifest.to_dict()))

    def test_malformed_manifest_is_invalid_request(self, tmp_path):
        host = ShardHost(tmp_path / "shards",
                         blob_store=BlobStore(tmp_path / "blobs"))
        with pytest.raises(ValueError, match="entries"):
            host.submit(self._payload(image_manifest={"nope": 1}))

    def test_missing_blobs_fail_the_shard_not_the_submit(self, tmp_path):
        """A dispatcher that skipped its uploads gets a failed shard
        naming the blob, not a hung worker."""
        host = ShardHost(tmp_path / "shards",
                         blob_store=BlobStore(tmp_path / "blobs"))
        (tmp_path / "tree").mkdir()
        (tmp_path / "tree" / "a.py").write_text("pass\n")
        manifest = ImageManifest.from_tree(tmp_path / "tree")  # no store
        view = host.submit(self._payload(image_manifest=manifest.to_dict()))
        host.join(timeout=30)
        status = host.status(view["shard_id"])
        assert status["state"] == "failed"
        assert "unknown blob" in status["error"]


class TestRemoteShipping:
    def test_manifest_payloads_carry_no_coordinator_paths(
            self, toy_project, toy_model, toy_workload, tmp_path,
            remote_worker, monkeypatch):
        shipped = []
        original_submit = ProFIPyClient.submit_shard

        def capture(self, payload):
            shipped.append(json.loads(json.dumps(payload)))
            return original_submit(self, payload)

        monkeypatch.setattr(ProFIPyClient, "submit_shard", capture)
        thread_config = CampaignConfig(
            name="shipping", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
            injectable_files=["app.py"], coverage=False, parallelism=2,
            seed=7, workspace=tmp_path / "ws-thread",
        )
        reference = _campaign_projection(Campaign(thread_config).run())
        workspace = tmp_path / "ws-remote"
        result = _run_remote(toy_project, toy_model, toy_workload,
                             workspace, remote_worker)
        assert result.executed == 2
        # Byte-identical to the thread backend: the worker rebuilt the
        # image from blobs, not from our disk.
        assert _campaign_projection(result) == reference
        assert shipped, "remote backend dispatched no shard payloads"
        for payload in shipped:
            assert "image_manifest" in payload
            # Not one coordinator filesystem path rides along — neither
            # the legacy keys nor any string mentioning our workspace.
            for key in ("image", "base_dir", "artifacts_dir"):
                assert key not in payload
            assert str(workspace) not in json.dumps(payload)

    def test_recampaign_reuploads_zero_blobs(
            self, toy_project, toy_model, toy_workload, tmp_path,
            remote_worker, monkeypatch):
        uploads = []
        original_put = ProFIPyClient.put_blob

        def counting_put(self, digest, data):
            uploads.append((digest, len(data)))
            return original_put(self, digest, data)

        monkeypatch.setattr(ProFIPyClient, "put_blob", counting_put)
        first = _run_remote(toy_project, toy_model, toy_workload,
                            tmp_path / "ws-1", remote_worker)
        assert first.executed == 2
        cold_uploads = list(uploads)
        assert cold_uploads, "cold worker should have fetched blobs"
        uploads.clear()
        # Same target, fresh workspace/stream: every blob digest is
        # already in the worker's store, so nothing re-ships.
        second = _run_remote(toy_project, toy_model, toy_workload,
                             tmp_path / "ws-2", remote_worker)
        assert second.executed == 2
        assert uploads == []

    def test_blob_missing_from_the_coordinator_store_is_loud(
            self, toy_project, toy_model, toy_workload, tmp_path,
            remote_worker, monkeypatch):
        # A manifest digest the coordinator's own store lacks is not a
        # lost worker: failing over cannot help, so the campaign raises
        # instead of charging each worker a failure.
        absent = blob_digest(b"never stored on the coordinator")
        digests = ImageManifest.digests
        monkeypatch.setattr(ImageManifest, "digests",
                            lambda self: sorted(digests(self) + [absent]))
        with pytest.raises(KeyError, match=f"unknown blob {absent}"):
            _run_remote(toy_project, toy_model, toy_workload,
                        tmp_path / "ws", remote_worker)
