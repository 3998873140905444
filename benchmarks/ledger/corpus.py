"""Seeded corpus generators owned by the ledger benchmark.

Deliberately independent of ``repro.datasets`` / ``repro.bench``: the
load must not change when the product's own generators do.  Both
generators emit XML *text* (the program only ever sees files and HTTP
bodies) plus the per-record facts the request generators quote, so
every generated twig has a known witness.

Steadiness across seeds: record counts per type, authors per record and
optional-field shares are fixed by ``scale`` (shuffled, not sampled), so
a seed changes *which* values sit where, not how much work a request
class does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FIRST_NAMES = (
    "wei jing ana maria john david yuki sofia ivan elena omar fatima liam"
    " noah emma olivia lucas mia arjun priya chen hana kofi amara diego"
    " lucia marco nina pavel tanya erik astrid jean claire hugo ines tom"
    " kate sam ruth"
).split()
LAST_NAMES = (
    "lu lin ling cautis smith johnson garcia mueller tanaka kim chan wang"
    " silva kumar patel ivanov novak kowalski haddad okafor nguyen tran"
    " hansen berg dubois moreau rossi ferrari lopez diaz brown wilson"
    " taylor white martin hall young walker wright scott"
).split()
TOPIC_WORDS = (
    "xml twig query holistic join pattern matching index labeling dewey"
    " region keyword search ranking completion graphical interface"
    " streaming database schema dataguide semantics optimization algorithm"
    " structural relaxation rewriting position aware efficient scalable"
    " adaptive distributed probabilistic temporal spatial graph tree path"
    " document"
).split()
FILLER_WORDS = (
    "system approach framework study analysis evaluation model method"
    " technique survey processing management integration exploration"
    " discovery estimation selection generation compression summarization"
).split()
JOURNALS = [
    "tods", "vldbj", "tkde", "sigmod record", "information systems",
    "jacm", "dke", "is journal", "acm computing surveys", "pvldb",
]
CONFERENCES = [
    "icde", "sigmod", "vldb", "edbt", "cikm", "www", "kdd", "sigir",
    "dasfaa", "xsym",
]
PUBLISHERS = [
    "springer", "acm press", "morgan kaufmann", "ieee press", "elsevier",
    "mit press", "cambridge", "oxford", "wiley", "oreilly",
]
SCHOOLS = [
    "renmin university", "national university of singapore", "mit",
    "stanford", "tsinghua", "eth zurich", "cmu", "berkeley", "oxford",
    "waterloo",
]
CITIES = (
    "beijing singapore paris berlin tokyo seoul madrid rome london boston"
    " seattle sydney toronto mumbai lagos cairo lima oslo prague vienna"
).split()
COUNTRIES = (
    "china singapore france germany japan korea spain italy uk usa"
    " australia canada india nigeria egypt peru norway czechia austria"
    " brazil"
).split()
CATEGORY_NAMES = (
    "books electronics music art antiques sports toys garden jewelry"
    " stamps coins maps instruments photography furniture"
).split()
REGIONS = ["africa", "asia", "australia", "europe", "namerica", "samerica"]

#: Publication-type shares of the DBLP shape, in per-mille of ``scale``.
DBLP_KINDS = (
    ("article", 450),
    ("inproceedings", 400),
    ("book", 80),
    ("phdthesis", 70),
)
#: The venue-like field each DBLP kind carries.
DBLP_VENUE = {
    "article": ("journal", JOURNALS),
    "inproceedings": ("booktitle", CONFERENCES),
    "book": ("publisher", PUBLISHERS),
    "phdthesis": ("school", SCHOOLS),
}


@dataclass
class Record:
    """One top-level record and the values a twig may quote from it."""

    kind: str
    #: ``field tag -> list of text values`` in document order.
    fields: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class Corpus:
    xml: str
    records: list[Record]

    @property
    def xml_bytes(self) -> int:
        return len(self.xml.encode("utf-8"))


def _spread(total: int, shares) -> list[str]:
    """``total`` labels with exact per-mille ``shares`` (remainder to the
    first label), so every seed gets the same counts."""
    labels: list[str] = []
    for name, share in shares:
        labels.extend([name] * (total * share // 1000))
    labels.extend([shares[0][0]] * (total - len(labels)))
    return labels


def _cycled(rng: random.Random, values, count: int) -> list:
    """``count`` draws that use every value equally often, shuffled."""
    values = list(values)
    draws = [values[i % len(values)] for i in range(count)]
    rng.shuffle(draws)
    return draws


def title_phrase(rng: random.Random, words: int) -> str:
    picked = [rng.choice(TOPIC_WORDS) for _ in range(words - 1)]
    picked.append(rng.choice(FILLER_WORDS))
    return " ".join(picked)


def dblp_record_xml(record: Record, key: str) -> str:
    """One DBLP-shaped record as an XML fragment (also the body of a
    ``POST /api/documents`` insert)."""
    parts = [f'<{record.kind} key="{key}">']
    for tag, values in record.fields.items():
        parts.extend(f"<{tag}>{value}</{tag}>" for value in values)
    parts.append(f"</{record.kind}>")
    return "".join(parts)


YEARS = [str(year) for year in range(1990, 2013)]


def make_dblp_record(
    rng: random.Random,
    kind: str,
    authors: list[str],
    title_words: int,
    with_pages: bool,
    year: str,
    venue: str,
) -> Record:
    fields: dict[str, list[str]] = {
        "title": [title_phrase(rng, title_words)],
        "author": authors,
        "year": [year],
    }
    fields[DBLP_VENUE[kind][0]] = [venue]
    if kind == "article":
        fields["volume"] = [str(rng.randint(1, 40))]
    if kind == "book":
        fields["isbn"] = ["-".join(str(rng.randint(100, 999)) for _ in range(3))]
    if with_pages and kind in ("article", "inproceedings"):
        start = rng.randint(1, 400)
        fields["pages"] = [f"{start}-{start + rng.randint(5, 30)}"]
    return Record(kind, fields)


def author_pool(rng: random.Random, size: int) -> list[str]:
    names = [f"{first} {last}" for first in FIRST_NAMES for last in LAST_NAMES]
    rng.shuffle(names)
    return names[:size]


def generate_dblp(scale: int, seed: int) -> Corpus:
    """A flat ``<dblp>`` bibliography of ``scale`` publications."""
    rng = random.Random(f"dblp:{seed}")
    kinds = _spread(scale, DBLP_KINDS)
    rng.shuffle(kinds)
    pool = author_pool(rng, max(10, scale // 3))
    author_counts = _cycled(rng, (1, 2, 3, 4), scale)
    title_lengths = _cycled(rng, (3, 4, 5, 6, 7), scale)
    pages = _cycled(rng, (True, True, True, True, False), scale)
    # Years and venues are dealt per kind, so "kind K in year Y" and
    # "kind K at venue V" match the same number of records on any seed.
    years = {k: _cycled(rng, YEARS, kinds.count(k)) for k, _ in DBLP_KINDS}
    venues = {k: _cycled(rng, DBLP_VENUE[k][1], kinds.count(k)) for k, _ in DBLP_KINDS}
    records = []
    parts = ["<dblp>"]
    for index, kind in enumerate(kinds):
        authors = rng.sample(pool, author_counts[index])
        record = make_dblp_record(
            rng,
            kind,
            authors,
            title_lengths[index],
            pages[index],
            years[kind].pop(),
            venues[kind].pop(),
        )
        records.append(record)
        parts.append(dblp_record_xml(record, f"{kind}/{index}"))
    parts.append("</dblp>")
    return Corpus("\n".join(parts), records)


def _sentence(rng: random.Random, words: int) -> str:
    pool = TOPIC_WORDS + FILLER_WORDS
    return " ".join(rng.choice(pool) for _ in range(words))


def generate_xmark(scale: int, seed: int) -> Corpus:
    """An auction ``<site>`` with ``scale`` items: regions/items with
    nested descriptions, people with address/profile, open and closed
    auctions — deeper paths than DBLP, so completion depends on position.

    ``records`` holds one entry per item / person / open auction, whose
    ``fields`` map *relative paths* (``"description/text"``) to values.
    """
    rng = random.Random(f"xmark:{seed}")
    people_count = scale // 2 + 5
    parts = ["<site>", "<regions>"]
    records: list[Record] = []

    item_regions = _cycled(rng, REGIONS, scale)
    with_parlist = _cycled(rng, (True, False, False, True, False), scale)
    per_region: dict[str, list[str]] = {name: [] for name in REGIONS}
    for index in range(scale):
        fields = {
            "location": [rng.choice(COUNTRIES)],
            "name": [title_phrase(rng, rng.randint(2, 4))],
            "quantity": [str(rng.randint(1, 10))],
            "payment": [rng.choice(["cash", "creditcard", "money order"])],
            "description/text": [_sentence(rng, rng.randint(6, 14))],
        }
        body = [f'<item id="item{index}">']
        for tag in ("location", "name", "quantity", "payment"):
            body.append(f"<{tag}>{fields[tag][0]}</{tag}>")
        body.append(f"<description><text>{fields['description/text'][0]}</text>")
        if with_parlist[index]:
            texts = [_sentence(rng, rng.randint(3, 8)) for _ in range(2)]
            fields["description/parlist/listitem/text"] = texts
            body.append(
                "<parlist>"
                + "".join(f"<listitem><text>{t}</text></listitem>" for t in texts)
                + "</parlist>"
            )
        body.append("</description>")
        body.append(
            f'<incategory category="category{rng.randrange(len(CATEGORY_NAMES))}"/>'
        )
        body.append("</item>")
        per_region[item_regions[index]].append("".join(body))
        records.append(Record("item", fields))
    for name in REGIONS:
        parts.append(f"<{name}>" + "\n".join(per_region[name]) + f"</{name}>")
    parts.append("</regions>")

    parts.append("<people>")
    names = author_pool(rng, people_count)
    with_address = _cycled(rng, (True, True, True, False), people_count)
    with_profile = _cycled(rng, (True, True, False), people_count)
    for index in range(people_count):
        fields = {
            "name": [names[index % len(names)]],
            "emailaddress": [f"mailto:user{index}@example.org"],
        }
        body = [
            f'<person id="person{index}"><name>{fields["name"][0]}</name>'
            f"<emailaddress>{fields['emailaddress'][0]}</emailaddress>"
        ]
        if with_address[index]:
            fields["address/city"] = [rng.choice(CITIES)]
            fields["address/country"] = [rng.choice(COUNTRIES)]
            body.append(
                f"<address><street>{rng.randint(1, 99)} main st</street>"
                f"<city>{fields['address/city'][0]}</city>"
                f"<country>{fields['address/country'][0]}</country></address>"
            )
        if with_profile[index]:
            fields["profile/education"] = [
                rng.choice(["high school", "college", "graduate school"])
            ]
            fields["profile/business"] = [rng.choice(["yes", "no"])]
            body.append(
                f"<profile><education>{fields['profile/education'][0]}</education>"
                f"<business>{fields['profile/business'][0]}</business>"
                + "".join(
                    f'<interest category="{rng.choice(CATEGORY_NAMES)}"/>'
                    for _ in range(index % 3)
                )
                + "</profile>"
            )
        body.append("</person>")
        parts.append("".join(body))
        records.append(Record("person", fields))
    parts.append("</people>")

    parts.append("<open_auctions>")
    for index in range(scale // 2):
        bidders = index % 4 + 1
        fields = {
            "initial": [f"{rng.uniform(1, 200):.2f}"],
            "current": [f"{rng.uniform(1, 500):.2f}"],
            "bidder/increase": [f"{rng.uniform(1, 50):.2f}" for _ in range(bidders)],
            "annotation/description/text": [_sentence(rng, rng.randint(4, 10))],
        }
        body = [
            f'<open_auction id="open_auction{index}">'
            f"<initial>{fields['initial'][0]}</initial>"
        ]
        for increase in fields["bidder/increase"]:
            body.append(
                f"<bidder><date>{_date(rng)}</date>"
                f'<personref person="person{rng.randrange(people_count)}"/>'
                f"<increase>{increase}</increase></bidder>"
            )
        body.append(
            f"<current>{fields['current'][0]}</current>"
            f'<itemref item="item{rng.randrange(scale)}"/>'
            f'<seller person="person{rng.randrange(people_count)}"/>'
            "<annotation><description><text>"
            f"{fields['annotation/description/text'][0]}"
            "</text></description></annotation></open_auction>"
        )
        parts.append("".join(body))
        records.append(Record("open_auction", fields))
    parts.append("</open_auctions>")

    parts.append("<closed_auctions>")
    for index in range(scale // 4):
        parts.append(
            f'<closed_auction><seller person="person{rng.randrange(people_count)}"/>'
            f'<buyer person="person{rng.randrange(people_count)}"/>'
            f'<itemref item="item{rng.randrange(scale)}"/>'
            f"<price>{rng.uniform(1, 500):.2f}</price>"
            f"<date>{_date(rng)}</date></closed_auction>"
        )
    parts.append("</closed_auctions>")

    parts.append("<categories>")
    for index, name in enumerate(CATEGORY_NAMES):
        parts.append(
            f'<category id="category{index}"><name>{name}</name>'
            f"<description><text>{_sentence(rng, 8)}</text></description></category>"
        )
    parts.append("</categories>")
    parts.append("</site>")
    return Corpus("\n".join(parts), records)


def _date(rng: random.Random) -> str:
    return f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/{rng.randint(1998, 2012)}"
