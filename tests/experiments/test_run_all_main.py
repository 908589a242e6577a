"""End-to-end test of the run_all CLI entry point (tiny scope)."""

from __future__ import annotations

import json

from repro.experiments.profiles import PROFILES
from repro.experiments.run_all import main
from repro.experiments.supervisor import (
    JOURNAL_FILENAME,
    PARTIAL_MANIFEST_FILENAME,
)
from repro.observe.manifest import load_manifest, verify_manifest, write_manifest
from tests.experiments.helpers import MICRO


def _digests(manifest: dict) -> list:
    return [entry["trace_digests"] for entry in manifest["configs"]]


class TestMain:
    def test_single_suite_with_output_file(self, tmp_path, capsys):
        output = tmp_path / "results.txt"
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--output", str(output),
            "--no-manifest",
        ])
        assert code == 0
        text = output.read_text()
        assert "fig8" in text
        assert "FixedExtent(Gnutella)" in text
        assert "total wall time" in text
        # Also printed to stdout.
        assert "fig8" in capsys.readouterr().out

    def test_only_takes_a_suite_name(self, tmp_path, capsys):
        code = main([
            "--profile", "smoke",
            "--only", "flexible_extent",
            "--manifest", str(tmp_path / "manifest.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- suite flexible_extent" in out
        assert "-- suite cache_size" not in out

    def test_unknown_experiment_exits(self):
        try:
            main(["--profile", "smoke", "--only", "fig99"])
            raised = False
        except SystemExit:
            raised = True
        assert raised

    def test_no_manifest_skips_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["--profile", "smoke", "--only", "fig8", "--no-manifest"])
        assert code == 0
        assert not (tmp_path / "manifest.json").exists()

    def test_manifest_written_and_verifiable(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        argv = [
            "--profile", "smoke",
            "--only", "loss_satisfaction",
            "--manifest", str(path),
        ]
        code = main(argv)
        assert code == 0
        assert f"manifest written to {path}" in capsys.readouterr().out

        manifest = load_manifest(path)
        assert manifest["profile"] == "smoke"
        assert manifest["suites"] == ["packet_loss"]
        # The exact re-launch command is recorded.
        assert manifest["command"] == [
            "python", "-m", "repro.experiments.run_all", *argv,
        ]
        assert manifest["configs"]
        for entry in manifest["configs"]:
            assert len(entry["trace_digests"]) == entry["trials"]
            assert all(entry["trace_digests"])
            assert all(entry["fingerprints"])
        # Acceptance check: the manifest reproduces bit for bit.
        assert verify_manifest(manifest) == []
        # And it is plain JSON all the way down.
        assert json.loads(json.dumps(manifest)) == manifest

    def test_supervised_run_matches_unsupervised(self, tmp_path, capsys):
        plain_manifest = tmp_path / "plain.json"
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--manifest", str(plain_manifest),
        ])
        assert code == 0
        supervised_manifest = tmp_path / "supervised.json"
        checkpoint = tmp_path / "ckpt"
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--workers", "2",
            "--supervise",
            "--checkpoint-dir", str(checkpoint),
            "--manifest", str(supervised_manifest),
        ])
        assert code == 0
        assert (checkpoint / JOURNAL_FILENAME).exists()
        capsys.readouterr()
        # Supervision is invisible in the results: digest-for-digest
        # identical to the plain run.
        assert _digests(load_manifest(supervised_manifest)) == _digests(
            load_manifest(plain_manifest)
        )

    def test_resume_serves_journaled_trials(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        fresh_manifest = tmp_path / "fresh.json"
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--supervise",
            "--checkpoint-dir", str(checkpoint),
            "--manifest", str(fresh_manifest),
        ])
        assert code == 0
        capsys.readouterr()
        resumed_manifest = tmp_path / "resumed.json"
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--resume", str(checkpoint),
            "--manifest", str(resumed_manifest),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"resuming from {checkpoint}: 2 trial(s) already journaled" in out
        assert (
            f"resumed from {checkpoint}: 2 journaled trial(s) reused, "
            "0 matched no trial of this run"
        ) in out
        assert _digests(load_manifest(resumed_manifest)) == _digests(
            load_manifest(fresh_manifest)
        )

    def test_resume_says_when_the_journal_matches_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # A journal written under one profile is useless under another:
        # every fingerprint misses and every trial re-runs.  That has to
        # be a message, not silence.
        monkeypatch.setitem(PROFILES, "micro", MICRO)
        checkpoint = tmp_path / "ckpt"
        code = main([
            "--profile", "micro",
            "--only", "fig8",
            "--supervise",
            "--checkpoint-dir", str(checkpoint),
            "--no-manifest",
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--resume", str(checkpoint),
            "--no-manifest",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"resuming from {checkpoint}: 2 trial(s) already journaled" in out
        assert (
            f"resumed from {checkpoint}: 0 journaled trial(s) reused, "
            "2 matched no trial of this run and were ignored"
        ) in out

    def test_resume_refuses_contradicting_partial_manifest(
        self, tmp_path, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        manifest_path = tmp_path / "m.json"
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--supervise",
            "--checkpoint-dir", str(checkpoint),
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        capsys.readouterr()
        manifest = load_manifest(manifest_path)
        manifest["configs"][0]["trace_digests"][0] = "0" * 32
        write_manifest(checkpoint / PARTIAL_MANIFEST_FILENAME, manifest)
        code = main([
            "--profile", "smoke",
            "--only", "fig8",
            "--resume", str(checkpoint),
        ])
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_profile_report_appended(self, tmp_path, capsys):
        # On the pool path the trials run in workers, whose samples never
        # reach the parent: the suite's row keeps its wall time and counts
        # no trial.
        for workers, trials in (("1", 2), ("2", 0)):
            code = main([
                "--profile", "smoke",
                "--only", "fig8",
                "--workers", workers,
                "--manifest", str(tmp_path / "manifest.json"),
                "--profile-report",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "profile report" in out
            assert "events/s" in out
            (row,) = [
                line for line in out.splitlines()
                if line.startswith("|") and "flexible_extent |" in line
            ]
            assert int(row.split("|")[-2]) == trials, row
