"""The autocomplete completion cache: LRU hit/miss behavior, request
identity (node ids included) in the key, deadline-carrying calls
reading it while only untruncated answers are written, and wholesale
drop on hot reload."""

from __future__ import annotations

from repro.engine.database import LotusXDatabase
from repro.resilience.deadline import Deadline
from repro.server.reload import DatabaseHolder, ReloadSource
from repro.twig.pattern import Axis, TwigPattern

from tests.conftest import SMALL_XML


def _fresh_db() -> LotusXDatabase:
    return LotusXDatabase.from_string(SMALL_XML)


def test_repeat_completion_hits_cache():
    db = _fresh_db()
    engine = db.autocomplete
    first = db.complete_tag(prefix="a")
    assert engine.cache_info() == {
        "entries": 1,
        "max_size": 256,
        "hits": 0,
        "misses": 1,
    }
    assert db.complete_tag(prefix="a") == first
    info = engine.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    # Cached answers are defensive copies: mutating one does not poison
    # the next.
    got = db.complete_tag(prefix="a")
    got.clear()
    assert db.complete_tag(prefix="a") == first


def test_cache_key_is_full_request_identity():
    db = _fresh_db()
    engine = db.autocomplete
    pattern = db.parse_query("//article")
    db.complete_tag(pattern, pattern.root, prefix="t")
    db.complete_tag(pattern, pattern.root, prefix="ti")
    db.complete_tag(pattern, pattern.root, prefix="t", axis=Axis.DESCENDANT)
    db.complete_tag(pattern, pattern.root, prefix="t", k=3)
    db.complete_tag(prefix="t")
    info = engine.cache_info()
    assert info["entries"] == 5 and info["misses"] == 5 and info["hits"] == 0
    # Prefix normalization folds into the key: same question, new hit.
    db.complete_tag(pattern, pattern.root, prefix="  T ")
    assert engine.cache_info()["hits"] == 1


def test_value_completions_cached_too():
    db = _fresh_db()
    engine = db.autocomplete
    pattern = db.parse_query("//article/author")
    node = pattern.nodes()[-1]
    first = db.complete_value(pattern, node, prefix="j")
    assert db.complete_value(pattern, node, prefix="j") == first
    info = engine.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1


def test_deadline_requests_read_and_write_the_cache():
    db = _fresh_db()
    engine = db.autocomplete
    # A deadline that does not trip caches its answer like any call…
    deadline = Deadline.after_ms(60_000)
    first = db.complete_tag(prefix="a", deadline=deadline)
    assert not deadline.tripped
    assert engine.cache_info()["entries"] == 1
    assert db.complete_tag(prefix="a") == first
    # …and a served (deadline-carrying) call reads it: the hit costs no
    # deadline step and is never reported truncated.
    deadline = Deadline(max_steps=0)
    assert db.complete_tag(prefix="a", deadline=deadline) == first
    assert deadline.steps == 0 and not deadline.tripped
    pattern = db.parse_query("//article/author")
    node = pattern.nodes()[-1]
    values = db.complete_value(pattern, node, "j", deadline=Deadline.after_ms(60_000))
    deadline = Deadline(max_steps=0)
    assert db.complete_value(pattern, node, "j", deadline=deadline) == values
    assert not deadline.tripped
    assert engine.cache_info()["hits"] == 3


def test_truncated_results_never_cached():
    db = _fresh_db()
    engine = db.autocomplete
    deadline = Deadline(max_steps=1)
    truncated = db.complete_tag(prefix="", deadline=deadline)
    assert deadline.tripped
    assert engine.cache_info()["entries"] == 0
    # The full answer is computed fresh, not served from the truncated run.
    assert len(db.complete_tag(prefix="")) >= len(truncated)
    pattern = db.parse_query("//article/author")
    node = pattern.nodes()[-1]
    deadline = Deadline(max_steps=1)
    db.complete_value(pattern, node, "j", deadline=deadline)
    assert deadline.tripped
    assert engine.cache_info()["entries"] == 1  # only the full tag answer


def test_cache_key_includes_node_ids():
    """Equal patterns numbered differently must not share answers: the
    anchor is named by node id, and a GUI session numbers nodes in the
    order the user adds them."""
    numbered = TwigPattern("a")
    b = numbered.add_child(numbered.root, "b")  # b = 1
    numbered.add_child(numbered.root, "c")  # c = 2
    renumbered = TwigPattern("a")
    c = renumbered.add_child(renumbered.root, "c")  # c = 1
    renumbered.add_child(renumbered.root, "b")  # b = 2
    renumbered.root.children.reverse()  # the same shape: a[b][c]
    assert numbered.signature() == renumbered.signature()
    assert b.node_id == c.node_id

    def texts(candidates) -> list[str]:
        return [candidate.text for candidate in candidates]

    tags = LotusXDatabase.from_string("<a><b><x/></b><c><y/></c></a>")
    assert texts(tags.complete_tag(numbered, b)) == ["x"]
    assert texts(tags.complete_tag(renumbered, c)) == ["y"]
    values = LotusXDatabase.from_string("<a><b>bee</b><c>sea</c></a>")
    assert texts(values.complete_value(numbered, b, "")) == ["bee"]
    assert texts(values.complete_value(renumbered, c, "")) == ["sea"]


def test_lru_eviction_at_capacity():
    db = _fresh_db()
    engine = db.autocomplete
    engine.CACHE_SIZE = 3
    for k in range(1, 5):
        db.complete_tag(prefix="a", k=k)
    assert engine.cache_info()["entries"] == 3
    # k=1 (the oldest) was evicted; k=4 (the newest) still hits.
    db.complete_tag(prefix="a", k=4)
    assert engine.cache_info()["hits"] == 1
    db.complete_tag(prefix="a", k=1)
    assert engine.cache_info()["misses"] == 5


def test_hot_reload_drops_completion_cache(tmp_path):
    corpus = tmp_path / "small.xml"
    corpus.write_text(SMALL_XML, encoding="utf-8")
    db = _fresh_db()
    holder = DatabaseHolder(db, ReloadSource("xml", str(corpus)))
    expected = db.complete_tag(prefix="a")
    db.complete_tag(prefix="a")
    assert db.autocomplete.cache_info()["hits"] == 1
    holder.reload()
    fresh = holder.current
    assert fresh is not db
    # The swapped-in database answers identically from a cold cache.
    assert fresh.autocomplete.cache_info() == {
        "entries": 0,
        "max_size": 256,
        "hits": 0,
        "misses": 0,
    }
    assert fresh.complete_tag(prefix="a") == expected
    assert fresh.autocomplete.cache_info()["misses"] == 1
