"""Every answer class against the committed digests, one test per corpus;
see answer_digests.py for the classes, the corpora and the regeneration
command."""

import json
import sys

import pytest

import answer_digests
from corpora import CORPORA

PINNED = json.loads(answer_digests.DIGEST_FILE.read_text())


@pytest.mark.parametrize("name", list(CORPORA))
def test_answers_match_the_committed_digests(answer_table, name):
    if name == "atlas":
        pytest.importorskip("networkx")
    found = answer_digests.hashed(answer_digests.answers(answer_table, name))
    assert found == answer_digests.pinned_entries(PINNED, name)


def test_claim_records_match_the_committed_digests():
    found = answer_digests.hashed({"claims": answer_digests.claim_records()})
    assert found["claims"] == PINNED["claims"]["entries"]


def test_committed_digests_cover_the_corpora_and_hash_their_entries():
    """The per-corpus tests together check every entry of the file: each
    graph entry belongs to a corpus, and each class's digest is the hash of
    its entries."""
    corpora = {label.split("/", 1)[0]
               for cls, pinned in PINNED.items() if cls != "claims" for label in pinned["entries"]}
    assert corpora == set(CORPORA)
    for cls, pinned in PINNED.items():
        assert pinned["digest"] == answer_digests.short_hash(pinned["entries"]), cls


def test_a_missing_networkx_skips_only_the_atlas_digests(monkeypatch, answer_table):
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(pytest.skip.Exception):
        test_answers_match_the_committed_digests(answer_table, "atlas")
    test_answers_match_the_committed_digests(answer_table, "capped")


def test_the_script_refuses_to_write_without_networkx(monkeypatch, tmp_path, capsys):
    """Rather than a file without the atlas entries, exit 2 and write
    nothing."""
    monkeypatch.setitem(sys.modules, "networkx", None)
    monkeypatch.setattr(answer_digests, "DIGEST_FILE", tmp_path / "digests.json")
    assert answer_digests.main(["--write"]) == 2
    assert not answer_digests.DIGEST_FILE.exists()
    assert "networkx" in capsys.readouterr().err
