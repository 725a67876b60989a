"""Every answer class against the committed digests; see answer_digests.py
for the classes, the corpus and the regeneration command."""

import json

import answer_digests


def test_answers_match_the_committed_digests():
    pinned = json.loads(answer_digests.DIGEST_FILE.read_text())
    assert answer_digests.moved(answer_digests.digests(), pinned) == {}
