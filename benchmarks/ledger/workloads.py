"""The four pinned workloads: corpus, CLI flags, request lists, checks.

Everything here is derived from ``(workload name, seed, scale)`` alone.
The program under test sees only the corpus *file* and the encoded HTTP
requests; nothing from ``repro.datasets`` / ``repro.bench`` /
``repro.twig.sample`` is imported, so a product change cannot silently
change the load.

Request classes are stratified (fixed counts per template and per
record kind) so that a different seed changes which values are quoted
but not how much work each class does.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import corpus as corpora


# ----------------------------------------------------------------------
# Twig text
# ----------------------------------------------------------------------


@dataclass
class Twig:
    """A twig node; ``children[:-1]`` render as ``[./…]`` branches and
    ``children[-1]`` continues the main path, so the parser's preorder
    numbering equals a preorder walk of this tree."""

    tag: str
    axis: str = "/"
    op: str | None = None
    value: str | None = None
    children: list["Twig"] = field(default_factory=list)

    def preorder(self) -> list["Twig"]:
        nodes = [self]
        for child in self.children:
            nodes.extend(child.preorder())
        return nodes

    def _predicate(self) -> str:
        value = self.value if self.value.isdigit() else f'"{self.value}"'
        return f"{self.op}{value}"

    def render(self, placed: set[int] | None = None, bare: "Twig | None" = None) -> str:
        """Twig text.  ``placed`` (``id`` of nodes) restricts the text to
        a partial twig; ``bare`` is rendered without its predicate."""
        text = f"{self.axis}{self.tag}"
        if self.op is not None and self is not bare:
            text += f"[.{self._predicate()}]"
        children = [
            child for child in self.children if placed is None or id(child) in placed
        ]
        for branch in children[:-1]:
            if branch.op is not None and branch is not bare and not branch.children:
                text += f"[.{branch.axis}{branch.tag}{branch._predicate()}]"
            else:
                text += f"[.{branch.render(placed, bare)}]"
        if children:
            text += children[-1].render(placed, bare)
        return text


def path_twig(root_tag: str, *branches: Twig, out: Twig) -> str:
    return Twig(root_tag, "//", children=[*branches, out]).render()


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One HTTP request plus what a correct answer must show."""

    op: str  #: op class the latency is filed under
    method: str
    path: str
    payload: dict | None = None
    #: ``total_matches`` / ``candidate`` / ``applied`` expectations that
    #: hold by construction of the workload (on top of the mono compare).
    expect: dict = field(default_factory=dict)

    def body(self) -> bytes:
        if self.payload is None:
            return b""
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")

    def encode(self) -> bytes:
        body = self.body()
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\n"
            "Host: ledger\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body


def search(op: str, query: str, **expect) -> Request:
    return Request(op, "POST", "/api/search", {"query": query, "k": 10}, expect)


def complete(op: str, payload: dict, **expect) -> Request:
    payload = {"k": 10, **payload}
    return Request(op, "POST", "/api/complete", payload, expect)


# ----------------------------------------------------------------------
# DBLP twig pools
# ----------------------------------------------------------------------

_KINDS = [name for name, _ in corpora.DBLP_KINDS]
_KIND_FIELDS = {
    "article": ["title", "author", "year", "journal", "volume", "pages"],
    "inproceedings": ["title", "author", "year", "booktitle", "pages"],
    "book": ["title", "author", "year", "publisher", "isbn"],
    "phdthesis": ["title", "author", "year", "school"],
}


def structural_twigs() -> dict[int, list[str]]:
    """Every predicate-free record-anchored twig of 2, 3 and 4 nodes the
    DBLP schema admits, in a fixed order.  These are the heavy requests
    (they match every record of a kind), so which of them a workload
    sends is a function of its scale only — never of the seed."""
    pools: dict[int, list[str]] = {2: [], 3: [], 4: []}
    for kind, fields in _KIND_FIELDS.items():
        for out in fields:
            pools[2].append(path_twig(kind, out=Twig(out)))
            pools[2].append(path_twig(kind, out=Twig(out, "//")))
            others = [f for f in fields if f != out]
            for first in others:
                pools[3].append(path_twig(kind, Twig(first), out=Twig(out)))
                for second in others:
                    if first < second:
                        pools[4].append(
                            path_twig(kind, Twig(first), Twig(second), out=Twig(out))
                        )
    return pools


def _spaced(pool: list[str], count: int) -> list[str]:
    """``count`` evenly spaced members of ``pool``."""
    if count > len(pool):
        raise ValueError(f"only {len(pool)} structural twigs of this size exist")
    return [pool[i * len(pool) // count] for i in range(count)]


def _title_word(record: corpora.Record, rng: random.Random) -> str:
    return rng.choice(record.fields["title"][0].split())


def _venue(record: corpora.Record) -> tuple[str, str]:
    tag = corpora.DBLP_VENUE[record.kind][0]
    return tag, record.fields[tag][0]


def predicate_twig(template: int, record: corpora.Record, rng: random.Random) -> str:
    """A satisfiable value-predicate twig quoting ``record`` (its witness)."""
    kind = record.kind
    year = record.fields["year"][0]
    author = rng.choice(record.fields["author"])
    venue_tag, venue = _venue(record)
    if template == 0:
        return path_twig(kind, Twig("year", op="=", value=year), out=Twig("title"))
    if template == 1:
        return path_twig(kind, Twig("author", op="=", value=author), out=Twig("title"))
    if template == 2:
        word = _title_word(record, rng)
        return path_twig(kind, Twig("title", op="~", value=word), out=Twig("author"))
    if template == 3:
        return path_twig(kind, Twig(venue_tag, op="=", value=venue), out=Twig("title"))
    if template == 4:
        return path_twig(
            kind,
            Twig(venue_tag, op="=", value=venue),
            Twig("year", op=">=", value=year),
            out=Twig("title"),
        )
    if template == 5:
        return path_twig(kind, Twig("author", op="=", value=author), out=Twig("year"))
    if template == 6:
        return path_twig(
            kind,
            Twig("author", op="=", value=author),
            Twig("year", op="=", value=year),
            out=Twig("title"),
        )
    word = _title_word(record, rng)
    return path_twig(
        kind,
        Twig("title", op="~", value=word),
        Twig("year", op="<=", value=year),
        out=Twig("author"),
    )


PREDICATE_TEMPLATES = 8


def overconstrained_twig(
    template: int, record: corpora.Record, records, rng: random.Random
) -> str:
    """A twig with no exact match, so the rewriter has to relax it."""
    kind = record.kind
    author = rng.choice(record.fields["author"])
    if template == 0:
        years = {
            other.fields["year"][0]
            for other in records
            if other.kind == kind and author in other.fields["author"]
        }
        free = [year for year in corpora.YEARS if year not in years]
        return path_twig(
            kind,
            Twig("author", op="=", value=author),
            Twig("year", op="=", value=rng.choice(free)),
            out=Twig("title"),
        )
    # A venue field another kind owns: structurally unsatisfiable here.
    other_kind = rng.choice([k for k in _KINDS if k != kind])
    tag, values = corpora.DBLP_VENUE[other_kind]
    return path_twig(kind, Twig(tag, op="=", value=rng.choice(values)), out=Twig("title"))


def _by_kind(records) -> dict[str, list[corpora.Record]]:
    grouped: dict[str, list[corpora.Record]] = {kind: [] for kind in _KINDS}
    for record in records:
        grouped[record.kind].append(record)
    return grouped


def _distinct(count: int, seen: set[str], make) -> list[str]:
    """``count`` new distinct texts from ``make(i)`` (retried on repeats)."""
    made: list[str] = []
    attempts = 0
    while len(made) < count:
        attempts += 1
        if attempts > count * 200:
            raise RuntimeError("could not draw enough distinct twigs")
        text = make(len(made))
        if text not in seen:
            seen.add(text)
            made.append(text)
    return made


def dblp_twig_mix(
    records,
    rng: random.Random,
    structural: tuple[int, int, int],
    predicate: int,
    overconstrained: int,
    seen: set[str] | None = None,
    templates: tuple[int, ...] = tuple(range(PREDICATE_TEMPLATES)),
) -> dict[str, list[str]]:
    """Distinct DBLP twigs by class, with kinds cycled so every class
    gets the same kind mix whatever the seed."""
    seen = set() if seen is None else seen
    grouped = _by_kind(records)
    pools = structural_twigs()

    def witness(i: int, cycle: int) -> corpora.Record:
        # Kinds advance once per pass over a cycle of templates, so
        # every template meets every kind equally often.
        return rng.choice(grouped[_KINDS[i // cycle % len(_KINDS)]])

    mix = {"struct": []}
    for nodes, count in zip((2, 3, 4), structural):
        fresh = _spaced([text for text in pools[nodes] if text not in seen], count)
        seen.update(fresh)
        mix["struct"].extend(fresh)
    mix["pred"] = _distinct(
        predicate,
        seen,
        lambda i: predicate_twig(
            templates[i % len(templates)], witness(i, len(templates)), rng
        ),
    )
    # Two author+year contradictions for every foreign venue field.
    mix["relax"] = _distinct(
        overconstrained,
        seen,
        lambda i: overconstrained_twig(i % 3 // 2, witness(i, 3), records, rng),
    )
    return mix


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    seed: int
    scale: dict
    corpus: corpora.Corpus
    primary: str
    secondary: str
    #: Search whose correct ``total_matches`` ends a restart cycle.
    probe: Request
    #: The request list of one round (read-only workloads replay it
    #: verbatim; a writable workload builds one list per round instead).
    requests: list[Request] = field(default_factory=list)
    #: Twig texts the NAIVE-oracle gate samples from.
    gate_twigs: list[str] = field(default_factory=list)
    #: Extra ``lotusx index`` flags.
    index_args: list[str] = field(default_factory=list)
    #: Served ``--writable --wal``; rounds then carry writes.
    writable: bool = False
    #: Author names the written documents draw from.
    live_authors: list[str] = field(default_factory=list)

    def round_requests(self, round_index: int) -> list[Request]:
        if self.writable:
            return live_round(self, round_index)
        return self.requests

    def digests(self) -> dict:
        """sha256 of the corpus file and of the encoded request list
        (round 0), as pinned in ``pins.json`` for the default seed."""
        encoded = b"".join(r.encode() for r in self.round_requests(0))
        return {
            "corpus_sha256": hashlib.sha256(self.corpus.xml.encode("utf-8")).hexdigest(),
            "requests_sha256": hashlib.sha256(encoded).hexdigest(),
        }


#: A heavy structural twig: restarts are timed until it answers correctly.
PROBE = "//article[./author]/title"


def _interleave(tail: list[Request], head: list[Request], repeats: int) -> list[Request]:
    """``head`` sent ``repeats`` times, evenly spread between the tail."""
    slots = len(head) * repeats
    merged: list[Request] = []
    taken = 0
    for slot in range(slots):
        upto = len(tail) * (slot + 1) // slots
        merged.extend(tail[taken:upto])
        taken = upto
        merged.append(head[slot % len(head)])
    return merged


def twig_search(seed: int, scale: dict) -> Workload:
    rng = random.Random(f"twig_search:{seed}")
    corpus = corpora.generate_dblp(scale["publications"], seed)
    seen: set[str] = set()
    tail_mix = dblp_twig_mix(
        corpus.records,
        rng,
        tuple(scale["tail_structural"]),
        scale["tail_predicate"],
        scale["tail_overconstrained"],
        seen,
    )
    # Hot twigs quote venues only: the corpus deals those per kind, so a
    # hot twig matches the same number of records on any seed.
    head_mix = dblp_twig_mix(
        corpus.records,
        rng,
        tuple(scale["head_structural"]),
        scale["head_predicate"],
        0,
        seen,
        templates=(3,),
    )
    tail_texts = tail_mix["struct"] + tail_mix["pred"] + tail_mix["relax"]
    rng.shuffle(tail_texts)
    head_texts = head_mix["struct"] + head_mix["pred"]
    rng.shuffle(head_texts)
    tail = [search("tail", text) for text in tail_texts]
    head = [search("head", text) for text in head_texts]
    return Workload(
        name="twig_search",
        seed=seed,
        scale=scale,
        corpus=corpus,
        primary="tail",
        secondary="head",
        probe=search("probe", PROBE),
        requests=_interleave(tail, head, scale["head_repeats"]),
        gate_twigs=tail_texts,
    )


# Typing sessions on the XMark shape: per record kind, the paths a user
# may add below the record node (each value-carrying leaf can take a
# predicate).  Paths are *relative* to the record element.
_TYPING_PATHS = {
    "item": [
        "location", "name", "quantity", "payment", "description/text",
        "description/parlist/listitem/text",
    ],
    "person": [
        "name", "emailaddress", "address/city", "address/country",
        "profile/education", "profile/business",
    ],
    "open_auction": [
        "initial", "current", "bidder/increase", "annotation/description/text",
    ],
}
#: Short-valued leaves, where whole-value completion is what a user wants.
_VALUE_PATHS = {
    "location", "payment", "quantity", "address/city", "address/country",
    "profile/education", "profile/business",
}


def _typing_twig(record: corpora.Record, rng: random.Random, branches: int) -> Twig:
    """A twig carved from ``record``: ``branches`` of its relative paths
    (sharing common prefixes), a value predicate on each short leaf, and
    now and then a ``//`` edge straight to a deep leaf — which widens the
    position set the completion has to consider."""
    present = [p for p in _TYPING_PATHS[record.kind] if p in record.fields]
    chosen = rng.sample(present, min(branches, len(present)))
    chosen.sort(key=present.index)
    root = Twig(record.kind, "//")
    for path in chosen:
        steps = path.split("/")
        if len(steps) > 2 and rng.random() < 0.5:
            leaf = Twig(steps[-1], "//")
            root.children.append(leaf)
        else:
            leaf = root
            for step in steps:
                child = next(
                    (c for c in leaf.children if c.tag == step and c.axis == "/"), None
                )
                if child is None:
                    child = Twig(step)
                    leaf.children.append(child)
                leaf = child
        if path in _VALUE_PATHS:
            leaf.op, leaf.value = "=", rng.choice(record.fields[path])
    return root


def typing_session(twig: Twig) -> list[Request]:
    """The keystrokes of building ``twig`` node by node in preorder."""
    nodes = twig.preorder()
    parent_of: dict[int, Twig] = {}
    for node in nodes:
        for child in node.children:
            parent_of[id(child)] = node
    keystrokes: list[Request] = []
    placed: set[int] = set()
    for index, node in enumerate(nodes):
        if index == 0:
            base: dict = {"kind": "tag"}
        else:
            parent = parent_of[id(node)]
            # Predicates of already placed nodes stay in the partial twig.
            base = {
                "kind": "tag",
                "query": twig.render(placed),
                "node": nodes.index(parent),
                "axis": node.axis,
            }
        for length in range(0, 4):
            prefix = node.tag[:length]
            expect = {"candidate": node.tag} if length == 3 else {}
            keystrokes.append(complete("tag", {**base, "prefix": prefix}, **expect))
        placed.add(id(node))
        if node.op is not None:
            # While the value is being typed the node has no predicate yet.
            query = twig.render(placed, bare=node)
            for length in range(1, 5):
                prefix = node.value[:length]
                expect = {"candidate": node.value} if length == 4 else {}
                keystrokes.append(
                    complete(
                        "value",
                        {"kind": "value", "query": query, "node": index, "prefix": prefix},
                        **expect,
                    )
                )
    return keystrokes


def keystroke_typing(seed: int, scale: dict) -> Workload:
    rng = random.Random(f"keystroke_typing:{seed}")
    corpus = corpora.generate_xmark(scale["items"], seed)
    grouped: dict[str, list[corpora.Record]] = {}
    for record in corpus.records:
        grouped.setdefault(record.kind, []).append(record)
    kinds = sorted(grouped)
    requests: list[Request] = []
    gate_twigs: list[str] = []
    for index in range(scale["sessions"]):
        record = rng.choice(grouped[kinds[index % len(kinds)]])
        twig = _typing_twig(record, rng, 2 + index % 2)
        gate_twigs.append(twig.render())
        requests.extend(typing_session(twig))
    return Workload(
        name="keystroke_typing",
        seed=seed,
        scale=scale,
        corpus=corpus,
        primary="tag",
        secondary="value",
        probe=search("probe", "//item[./location]/name"),
        requests=requests,
        gate_twigs=gate_twigs,
    )


def _keyword_queries(records, rng: random.Random, count: int) -> list[str]:
    """Two-term keyword queries whose terms co-occur in one record."""
    made: list[str] = []
    seen: set[str] = set()
    grouped = _by_kind(records)
    while len(made) < count:
        record = rng.choice(grouped[_KINDS[len(made) % len(_KINDS)]])
        surname = rng.choice(record.fields["author"]).split()[1]
        if len(made) % 2:
            text = f"{surname} {_title_word(record, rng)}"
        else:
            text = f"{surname} {record.fields['year'][0]}"
        if text not in seen:
            seen.add(text)
            made.append(text)
    return made


def sharded_mix(seed: int, scale: dict) -> Workload:
    rng = random.Random(f"sharded_mix:{seed}")
    corpus = corpora.generate_dblp(scale["publications"], seed)
    mix = dblp_twig_mix(
        corpus.records,
        rng,
        tuple(scale["twig_structural"]),
        scale["twig_predicate"],
        scale["twig_overconstrained"],
    )
    twig_texts = mix["struct"] + mix["pred"] + mix["relax"]
    requests = [search("twig", text) for text in twig_texts]
    for text in _keyword_queries(corpus.records, rng, scale["keyword"]):
        payload = {"query": text, "k": 10, "semantics": "slca"}
        requests.append(Request("keyword", "POST", "/api/keyword", payload))
    tags = sorted({tag for fields in _KIND_FIELDS.values() for tag in fields} | set(_KINDS))
    for index in range(scale["complete"]):
        tag = tags[index % len(tags)]
        prefix = tag[: index // len(tags) % 4]
        requests.append(complete("complete", {"kind": "tag", "prefix": prefix}))
    rng.shuffle(requests)
    return Workload(
        name="sharded_mix",
        seed=seed,
        scale=scale,
        corpus=corpus,
        primary="twig",
        secondary="keyword",
        probe=search("probe", PROBE),
        requests=requests,
        gate_twigs=twig_texts,
        index_args=["--shards", str(scale["shards"])],
    )


#: The program keeps a value as a whole-value completion only up to this
#: many characters (longer ones complete token-wise); a written title
#: must stay below it for the completion on its marker to find it.
VALUE_COMPLETION_LIMIT = 64


def marker(seed: int, round_index: int, slot: int, version: int = 0) -> str:
    """The unique term that identifies one written document version.

    The seed enters as a fixed-width tag, so the term — and with it the
    title that leads with it — is as long on any seed."""
    tag = hashlib.sha256(str(seed).encode("ascii")).hexdigest()[:5]
    return f"mk{tag}r{round_index}s{slot}v{version}"


def marker_search(op: str, term: str, total: int) -> Request:
    """The search that must bind ``total`` authors of the one document
    whose title carries ``term`` (no rewriting: 0 has to mean absent)."""
    query = path_twig("article", Twig("title", op="~", value=term), out=Twig("author"))
    payload = {"query": query, "k": 10, "rewrite": False}
    return Request(op, "POST", "/api/search", payload, {"total_matches": total})


def live_document(workload: Workload, round_index: int, slot: int, version: int) -> str:
    """The XML of one inserted/updated document, deterministic in its
    coordinates; its title leads with the unique marker term."""
    rng = random.Random(f"live:{workload.seed}:{round_index}:{slot}:{version}")
    record = corpora.make_dblp_record(
        rng,
        "article",
        rng.sample(workload.live_authors, 1 + slot % 3),
        3,
        True,
        rng.choice(corpora.YEARS),
        rng.choice(corpora.JOURNALS),
    )
    title = marker(workload.seed, round_index, slot, version) + " " + record.fields["title"][0]
    assert len(title) <= VALUE_COMPLETION_LIMIT, title
    record.fields["title"][0] = title
    return corpora.dblp_record_xml(record, f"live/{round_index}/{slot}/{version}")


def _spaced_slots(total: int, count: int) -> set[int]:
    return {i * total // count for i in range(count)}


def live_fates(scale: dict, round_index: int) -> tuple[set[int], set[int]]:
    """``(updated, deleted)`` slots of a round, evenly spaced.

    The write path folds delta segments into one delta that only ever
    grows (there is no automatic major compaction), and every update or
    delete rebuilds it — so a workload that accumulated documents would
    get slower with every round.  This one reaches a steady state: the
    warm-up round leaves ``standing`` documents behind (the delta every
    later write has to rebuild, and what the durability check must find
    after the SIGKILL); every measured round deletes all it inserts.
    """
    inserts = scale["inserts"]
    survivors = _spaced_slots(inserts, scale["standing"]) if round_index == 0 else set()
    return _spaced_slots(inserts, scale["updates"]), set(range(inserts)) - survivors


def live_round(workload: Workload, round_index: int) -> list[Request]:
    """One round of ``live_ingest``: every write is followed by a search
    for the written marker and two completions.

    Slot ``i`` is inserted, updated ``lag`` writes later (if it is an
    updated slot) and deleted ``2 * lag`` writes later (unless it
    survives) — every round does the same work on fresh ids.
    """
    scale = workload.scale
    seed = workload.seed
    updated, deleted = live_fates(scale, round_index)
    requests: list[Request] = []

    def cycle(action: str, slot: int) -> None:
        doc_id = f"live-{seed}-{round_index}-{slot}"
        payload: dict = {"action": action, "id": doc_id, "wait": True}
        version = 1 if action == "update" or (action == "delete" and slot in updated) else 0
        if action != "delete":
            payload["xml"] = live_document(workload, round_index, slot, version)
        requests.append(
            Request("write", "POST", "/api/documents", payload, {"applied": True})
        )
        term = marker(seed, round_index, slot, version)
        found = 0 if action == "delete" else 1 + slot % 3
        requests.append(marker_search("search_after_write", term, found))
        requests.append(complete("complete_after_write", {"kind": "tag", "prefix": "au"}))
        requests.append(
            complete(
                "complete_after_write",
                {"kind": "value", "query": "//article/title", "node": 1, "prefix": term},
                candidates=0 if action == "delete" else 1,
            )
        )

    lag = 3
    due: dict[int, list[tuple[str, int]]] = {}
    for slot in range(scale["inserts"]):
        cycle("insert", slot)
        if slot in updated:
            due.setdefault(slot + lag, []).append(("update", slot))
        if slot in deleted:
            due.setdefault(slot + 2 * lag, []).append(("delete", slot))
        for action, target in due.pop(slot, ()):
            cycle(action, target)
    for when in sorted(due):
        for action, target in due[when]:
            cycle(action, target)
    return requests


def live_final_documents(workload: Workload, rounds: int) -> list[tuple[str, int, str]]:
    """``(marker, author count, xml)`` of every document that outlives
    ``rounds`` rounds, in document order (inserts append in arrival
    order, updates replace in place)."""
    alive = []
    for round_index in range(rounds):
        updated, deleted = live_fates(workload.scale, round_index)
        for slot in range(workload.scale["inserts"]):
            if slot in deleted:
                continue
            version = 1 if slot in updated else 0
            alive.append(
                (
                    marker(workload.seed, round_index, slot, version),
                    1 + slot % 3,
                    live_document(workload, round_index, slot, version),
                )
            )
    return alive


def live_dead_markers(workload: Workload, rounds: int) -> list[str]:
    """Marker terms no search may find after ``rounds`` rounds: deleted
    documents and the overwritten first version of updated ones."""
    dead = []
    for round_index in range(rounds):
        updated, deleted = live_fates(workload.scale, round_index)
        for slot in range(workload.scale["inserts"]):
            if slot in updated:
                dead.append(marker(workload.seed, round_index, slot, 0))
            if slot in deleted:
                dead.append(marker(workload.seed, round_index, slot, 1 if slot in updated else 0))
    return dead


def live_ingest(seed: int, scale: dict) -> Workload:
    rng = random.Random(f"live_ingest:{seed}")
    corpus = corpora.generate_dblp(scale["publications"], seed)
    mix = dblp_twig_mix(corpus.records, rng, (4, 8, 4), 14, 2)
    return Workload(
        name="live_ingest",
        seed=seed,
        scale=scale,
        corpus=corpus,
        primary="write",
        secondary="search_after_write",
        probe=search("probe", PROBE),
        gate_twigs=mix["struct"] + mix["pred"] + mix["relax"],
        writable=True,
        live_authors=corpora.author_pool(rng, 200),
    )


BUILDERS = {
    "twig_search": twig_search,
    "keystroke_typing": keystroke_typing,
    "sharded_mix": sharded_mix,
    "live_ingest": live_ingest,
}
