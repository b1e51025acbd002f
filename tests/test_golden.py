"""Pinned artifact-tree digests: an encoder speedup must leave every byte alone.

Each digest is SHA-256 over, in sorted relative-path order, the POSIX
relative path, a NUL byte and the SHA-256 of the file's content.  A change
that moves any of these digests changes the coded bits, a decision, a
reconstruction or a report line, and must say why.
"""
import hashlib

import pytest

from fvstream.pipeline import ExperimentConfig, run_experiment

from conftest import micro_scene_spec, scene64_spec


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


GOLDEN = {
    # the criterion-10 micro config
    "micro": (dict(scene=micro_scene_spec(), setups=("rfc", "arps"),
                   loss_rates=(0.05,), seeds=(7,), rtt=2),
              "9b5ab37d61020ad2e93ffd319d68ba1b6c9bedcfc8792e962703c2cf726eccd2"),
    # every setup on the 64x64 two-mover scene; arps codes moved INTER blocks
    "scene64": (dict(scene=scene64_spec(12),
                     setups=("rfc", "rps1", "rps2", "arps"),
                     loss_rates=(0.08,), seeds=(7,), rtt=2),
                "1eb4024b9cc019b0810e453935c7db23d02bddb80a35e6d21bc79af564d184b5"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_tree_digest_is_pinned(tmp_path, name):
    kw, expected = GOLDEN[name]
    run_experiment(ExperimentConfig(output_root=str(tmp_path), **kw))
    assert tree_digest(tmp_path) == expected
