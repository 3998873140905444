"""The ``lotusx`` command-line interface.

Subcommands::

    lotusx generate dblp --size 1000 --seed 42 -o dblp.xml
    lotusx stats dblp.xml
    lotusx search dblp.xml '//article[./title~"twig"]/author' -k 5
    lotusx complete dblp.xml --query '//article' --prefix t
    lotusx keyword dblp.xml 'jiaheng twig' --semantics elca
    lotusx examples dblp.xml
    lotusx samples dblp.xml --count 10
    lotusx explain dblp.xml '//article/author'
    lotusx profile dblp.xml '//article[./author][./year]'
    lotusx schema dblp.xml
    lotusx index dblp.xml dblp.lxsnap
    lotusx index dblp.xml ./dblp-shards --shards 4
    lotusx serve dblp.xml --port 8080
    lotusx serve dblp.xml --shards 4
    lotusx serve dblp.xml --writable --wal dblp.lxwal
    lotusx serve --snapshot dblp.lxsnap --port 8080
    lotusx serve --snapshot ./dblp-shards --port 8080
    lotusx serve dblp.xml --legacy-threaded
    lotusx serve --corpus dblp=dblp.xml --corpus mark=xmark.lxsnap
    lotusx serve --corpus a=a.xml,quota=2 --corpus b=b.xml,quota=4
    lotusx tenant list --url http://127.0.0.1:8080
    lotusx tenant add books books.xml --url http://127.0.0.1:8080
    lotusx tenant reload dblp --url http://127.0.0.1:8080

Global flag: ``--expand-attributes`` indexes attributes as queryable
``@name`` nodes for every corpus-reading subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.engine.database import LotusXDatabase
from repro.twig.parse import TwigSyntaxError
from repro.twig.planner import Algorithm
from repro.xmlio.errors import XMLError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotusx",
        description="LotusX: position-aware XML twig search with auto-completion",
    )
    parser.add_argument(
        "--expand-attributes",
        action="store_true",
        help="index attributes as queryable @name nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("dataset", choices=["dblp", "xmark", "books", "treebank"])
    generate.add_argument("--size", type=int, default=1000, help="record count")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("-o", "--output", default="-", help="file or - for stdout")

    stats = sub.add_parser("stats", help="print corpus statistics")
    stats.add_argument("corpus", help="XML file to index")

    search = sub.add_parser("search", help="ranked twig search")
    search.add_argument("corpus")
    search.add_argument("query", help="twig query text")
    search.add_argument("-k", type=int, default=10, help="results to show")
    search.add_argument(
        "--algorithm",
        choices=[algorithm.value for algorithm in Algorithm],
        default=Algorithm.AUTO.value,
    )
    search.add_argument(
        "--no-rewrite", action="store_true", help="disable query rewriting"
    )
    search.add_argument("--json", action="store_true", help="JSON output")

    complete = sub.add_parser("complete", help="autocompletion candidates")
    complete.add_argument("corpus")
    complete.add_argument(
        "--query", default="", help="partial twig (empty = first node)"
    )
    complete.add_argument("--node", type=int, default=None, help="anchor node index")
    complete.add_argument("--prefix", default="", help="typed prefix")
    complete.add_argument(
        "--values", action="store_true", help="complete values instead of tags"
    )
    complete.add_argument(
        "--axis", choices=["/", "//"], default="/", help="edge type for new tag"
    )
    complete.add_argument("-k", type=int, default=10)

    keyword = sub.add_parser("keyword", help="schema-free SLCA keyword search")
    keyword.add_argument("corpus")
    keyword.add_argument("query", help="keywords, e.g. 'jiaheng twig'")
    keyword.add_argument("-k", type=int, default=10)
    keyword.add_argument(
        "--semantics", choices=["slca", "elca"], default="slca"
    )

    explain = sub.add_parser("explain", help="show the evaluation plan")
    explain.add_argument("corpus")
    explain.add_argument("query")

    profile = sub.add_parser(
        "profile", help="time the query under every applicable algorithm"
    )
    profile.add_argument("corpus")
    profile.add_argument("query")
    profile.add_argument("--repeats", type=int, default=3)

    examples = sub.add_parser(
        "examples", help="suggest verified starter queries for a corpus"
    )
    examples.add_argument("corpus")
    examples.add_argument("-k", type=int, default=5)

    samples = sub.add_parser(
        "samples", help="sample random satisfiable twig queries (workloads)"
    )
    samples.add_argument("corpus")
    samples.add_argument("--count", type=int, default=10)
    samples.add_argument("--seed", type=int, default=42)
    samples.add_argument("--max-nodes", type=int, default=5)

    schema = sub.add_parser("schema", help="print the inferred DTD-like schema")
    schema.add_argument("corpus")

    index = sub.add_parser(
        "index", help="build the full index and write a snapshot file"
    )
    index.add_argument("corpus", help="XML file to index")
    index.add_argument("snapshot", help="snapshot file (or directory with --shards)")
    index.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition the corpus into N shard databases and write a"
        " sharded snapshot directory instead of a single file",
    )

    serve = sub.add_parser("serve", help="run the web GUI / JSON API")
    serve.add_argument(
        "corpus",
        nargs="?",
        default=None,
        help="XML file to index (or use --snapshot for a warm start)",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        metavar="FILE",
        help="warm-start from a snapshot written by 'lotusx index'"
        " (a .lxsnap file or a sharded snapshot directory)"
        " instead of indexing an XML corpus",
    )
    serve.add_argument(
        "--corpus",
        action="append",
        default=None,
        dest="corpora",
        metavar="NAME=PATH[,OPT=VAL...]",
        help="serve a named corpus as a tenant at /api/t/NAME/"
        " (repeatable; multi-tenant serving). PATH is an XML file, a"
        " .lxsnap snapshot, or a sharded snapshot directory"
        " (auto-detected). Options: quota=N (concurrency slice),"
        " shards=N (XML only), writable=1, wal=FILE. The first --corpus"
        " is the default tenant bare /api/ paths route to",
    )
    serve.add_argument(
        "--default-tenant",
        default=None,
        metavar="NAME",
        help="which --corpus tenant bare /api/ paths route to"
        " (default: the first --corpus)",
    )
    serve.add_argument(
        "--tenant-admin",
        action="store_true",
        help="allow POST /api/tenants to load new corpora at runtime"
        " (default: the tenant set is fixed at startup)",
    )
    serve.add_argument(
        "--mmap",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve snapshot hot sections zero-copy from an mmap of the"
        " file (a snapshot written with a foreign byte layout falls back"
        " to the copying loader). --no-mmap forces the copying loader."
        " Ignored without --snapshot",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition an XML corpus into N shards and serve them with"
        " scatter-gather execution (ignored with --snapshot: a sharded"
        " snapshot directory carries its own shard count)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="serve each shard with N replicas behind health checks,"
        " retries, hedged requests, and per-replica circuit breakers"
        " (sharded serving only; default 1 = no fleet)",
    )
    serve.add_argument(
        "--hedge-ms",
        type=float,
        default=None,
        metavar="MS",
        help="hedged-request trigger: fire a second replica when the"
        " first exceeds MS milliseconds (0 disables hedging; default:"
        " adaptive p95 per replica)",
    )
    serve.add_argument(
        "--breaker-cooldown-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-replica circuit-breaker open→half-open cooldown"
        " (default 1000)",
    )
    serve.add_argument(
        "--breaker-failure-threshold",
        type=float,
        default=None,
        metavar="RATE",
        help="failure rate (0..1] over the breaker's outcome window that"
        " trips it open (default 0.5)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per shard sub-request across replicas, with"
        " jittered exponential backoff budgeted against the request"
        " deadline (default 3)",
    )
    serve.add_argument(
        "--degraded-policy",
        choices=["salvage", "strict"],
        default="salvage",
        help="when whole shard groups are down: 'salvage' (default)"
        " returns partial results marked degraded; 'strict' rejects"
        " them with HTTP 503",
    )
    serve.add_argument(
        "--writable",
        action="store_true",
        help="enable the live write path: POST /api/documents mutations"
        " are WAL-logged, applied as delta segments, and become"
        " queryable without a restart (monolithic serving only)",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="FILE",
        help="write-ahead-log path for --writable (default:"
        " <corpus>.lxwal next to the corpus or snapshot)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        metavar="N",
        help="requests allowed to execute at once (default 8);"
        " excess load waits briefly, then is shed with HTTP 429",
    )
    serve.add_argument(
        "--default-timeout-ms",
        type=int,
        default=None,
        metavar="MS",
        help="default per-request deadline in milliseconds (default"
        " 10000; /api/complete uses a tighter 1000); expiring requests"
        " return partial results marked truncated",
    )
    serve.add_argument(
        "--legacy-threaded",
        action="store_true",
        help="serve with the legacy thread-per-request stdlib server"
        " instead of the event-driven front end (no keep-alive,"
        " coalescing, keystroke batching, or streamed responses)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=None,
        metavar="N",
        help="event-driven transport: concurrent connections accepted"
        " before new ones are refused with HTTP 429 (default 256)",
    )
    serve.add_argument(
        "--idle-timeout-s",
        type=float,
        default=None,
        metavar="S",
        help="event-driven transport: drop a connection idle (or"
        " dribbling a partial request) longer than S seconds"
        " (default 30)",
    )

    tenant = sub.add_parser(
        "tenant", help="inspect/administer a running multi-tenant server"
    )
    tenant_sub = tenant.add_subparsers(dest="tenant_command", required=True)
    tenant_list = tenant_sub.add_parser(
        "list", help="list the server's tenants"
    )
    tenant_add = tenant_sub.add_parser(
        "add", help="load a new corpus into a --tenant-admin server"
    )
    tenant_add.add_argument("name", help="tenant name ([a-z0-9_-]{1,64})")
    tenant_add.add_argument(
        "path", help="server-side corpus path (XML or snapshot)"
    )
    tenant_add.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="concurrency slice for the new tenant",
    )
    tenant_add.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition an XML corpus into N shards",
    )
    tenant_reload = tenant_sub.add_parser(
        "reload", help="hot-reload one tenant from its configured source"
    )
    tenant_reload.add_argument("name", help="tenant to reload")
    for tenant_cmd in (tenant_list, tenant_add, tenant_reload):
        tenant_cmd.add_argument(
            "--url",
            default="http://127.0.0.1:8080",
            help="base URL of the running server",
        )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.engine.store import StoreError

    try:
        return _dispatch(args)
    except (TwigSyntaxError, XMLError, StoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "index":
        return _cmd_index(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "tenant":
        return _cmd_tenant(args)
    database = LotusXDatabase.from_file(
        args.corpus, expand_attributes=args.expand_attributes
    )
    if args.command == "stats":
        return _cmd_stats(database)
    if args.command == "search":
        return _cmd_search(database, args)
    if args.command == "complete":
        return _cmd_complete(database, args)
    if args.command == "keyword":
        return _cmd_keyword(database, args)
    if args.command == "explain":
        print(json.dumps(database.explain(args.query), indent=2))
        return 0
    if args.command == "examples":
        for example in database.example_queries(k=args.k):
            print(f"{example.query:50} -- {example.description}")
        return 0
    if args.command == "samples":
        from repro.twig.sample import sample_workload

        for pattern in sample_workload(
            database.labeled, args.seed, args.count, max_nodes=args.max_nodes
        ):
            print(f"{str(pattern):60} # {len(database.matches(pattern))} matches")
        return 0
    if args.command == "profile":
        data = database.profile(args.query, repeats=args.repeats)
        print(f"query:     {data['query']}")
        print(f"planner:   {data['algorithm']}")
        print(f"xpath:     {data['xpath']}")
        header = f"{'algorithm':18} {'median_ms':>10} {'scanned':>9} {'interm':>8} {'matches':>8}"
        print(header)
        print("-" * len(header))
        for profile_row in data["profiles"]:
            print(
                f"{profile_row['algorithm']:18}"
                f" {profile_row['median_ms']:>10}"
                f" {profile_row['elements_scanned']:>9}"
                f" {profile_row['intermediate_results']:>8}"
                f" {profile_row['matches']:>8}"
            )
        return 0
    if args.command == "schema":
        from repro.summary.schema import infer_schema

        print(infer_schema(database.document).to_dtd())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import (
        generate_books_xml,
        generate_dblp_xml,
        generate_treebank_xml,
        generate_xmark_xml,
    )

    generators = {
        "dblp": generate_dblp_xml,
        "xmark": generate_xmark_xml,
        "books": generate_books_xml,
        "treebank": generate_treebank_xml,
    }
    xml_text = generators[args.dataset](args.size, args.seed)
    if args.output == "-":
        print(xml_text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(xml_text)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_stats(database: LotusXDatabase) -> int:
    for key, value in database.statistics().as_dict().items():
        print(f"{key:22} {value}")
    return 0


def _cmd_search(database: LotusXDatabase, args: argparse.Namespace) -> int:
    response = database.search(
        args.query,
        k=args.k,
        algorithm=Algorithm(args.algorithm),
        rewrite=not args.no_rewrite,
    )
    if args.json:
        print(json.dumps(response.as_dict(), indent=2))
        return 0
    print(
        f"{response.total_matches} matches"
        f" ({response.elapsed_seconds * 1000:.1f} ms"
        + (", rewritten" if response.used_rewrites else "")
        + ")"
    )
    for rank, hit in enumerate(response, start=1):
        print(f"{rank:2}. [{hit.score.combined:.3f}] {hit.xpath}")
        if hit.snippet:
            print(f"      {hit.snippet}")
        if hit.rewrite_steps:
            print(f"      (rewritten: {'; '.join(hit.rewrite_steps)})")
    return 0


def _cmd_complete(database: LotusXDatabase, args: argparse.Namespace) -> int:
    from repro.server.api import handle_complete

    payload = {
        "kind": "value" if args.values else "tag",
        "prefix": args.prefix,
        "k": args.k,
        "query": args.query,
        "node": args.node,
        "axis": args.axis,
    }
    if not args.query:
        payload.pop("query")
        payload.pop("node")
    for candidate in handle_complete(database, payload)["candidates"]:
        paths = f"  ({', '.join(candidate['sample_paths'])})" if candidate["sample_paths"] else ""
        print(f"{candidate['text']:30} x{candidate['count']}{paths}")
    return 0


def _cmd_keyword(database: LotusXDatabase, args: argparse.Namespace) -> int:
    response = database.keyword_search(
        args.query, k=args.k, semantics=args.semantics
    )
    print(f"{response.total_slcas} answers for terms {list(response.terms)}")
    for rank, hit in enumerate(response, start=1):
        data = hit.as_dict()
        print(f"{rank:2}. [{data['score']:.3f}] <{data['tag']}> {data['xpath']}")
        if data["snippet"]:
            print(f"      {data['snippet']}")
    return 0


def _print_section_table(section_sizes: dict, total_bytes: int) -> None:
    """Per-section byte sizes of a freshly written snapshot."""
    header = f"{'section':16} {'bytes':>12} {'share':>7}"
    print(header)
    print("-" * len(header))
    for section, size in sorted(section_sizes.items(), key=lambda kv: -kv[1]):
        share = size / total_bytes if total_bytes else 0.0
        print(f"{section:16} {size:>12,} {share:>6.1%}")
    print(f"{'total':16} {total_bytes:>12,}")


def _cmd_index(args: argparse.Namespace) -> int:
    import time

    if args.shards < 1:
        raise ValueError("--shards must be at least 1")

    started = time.perf_counter()
    if args.shards > 1:
        from repro.engine.store import save_sharded_snapshot
        from repro.shard.database import ShardedDatabase

        if args.expand_attributes:
            raise ValueError("sharded indexing does not support --expand-attributes")
        database = ShardedDatabase.from_file(args.corpus, args.shards)
        built = time.perf_counter() - started
        info = save_sharded_snapshot(database, args.snapshot)
        saved = time.perf_counter() - started - built
        print(
            f"indexed {info.element_count} elements into"
            f" {info.shard_count} shards in {built:.2f}s"
        )
        database.close()
    else:
        from repro.engine.store import save_snapshot

        database = LotusXDatabase.from_file(
            args.corpus, expand_attributes=args.expand_attributes
        )
        built = time.perf_counter() - started
        info = save_snapshot(database, args.snapshot)
        saved = time.perf_counter() - started - built
        print(
            f"indexed {info.element_count} elements ({info.path_count} paths)"
            f" in {built:.2f}s"
        )
    _print_section_table(info.section_sizes, info.size_bytes)
    print(
        f"wrote {info.path} ({info.size_bytes / 1e6:.2f} MB) in {saved:.2f}s;"
        f" warm-start with: lotusx serve --snapshot {info.path}"
    )
    return 0


def _fleet_config(args: argparse.Namespace):
    """A FleetConfig from the serve flags, or None for fleet defaults."""
    tuned = {}
    if args.hedge_ms is not None:
        tuned["hedge_ms"] = args.hedge_ms
    if args.breaker_cooldown_ms is not None:
        if args.breaker_cooldown_ms <= 0:
            raise ValueError("--breaker-cooldown-ms must be positive")
        tuned["breaker_cooldown_ms"] = args.breaker_cooldown_ms
    if args.breaker_failure_threshold is not None:
        tuned["breaker_failure_threshold"] = args.breaker_failure_threshold
    if args.retries is not None:
        if args.retries < 1:
            raise ValueError("--retries must be at least 1")
        from repro.resilience.retry import RetryPolicy

        tuned["retry"] = RetryPolicy(max_attempts=args.retries)
    if not tuned and args.replicas <= 1:
        return None
    from repro.fleet import FleetConfig

    return FleetConfig(replicas=max(args.replicas, 1), **tuned)


def _replica_banner(replicas: int) -> str:
    return f", {replicas} replicas each" if replicas > 1 else ""


def _server_config(args: argparse.Namespace):
    """A ServerConfig from the serve flags (shared by both transports)."""
    from repro.server.pipeline import ServerConfig

    overrides = {"degraded_policy": args.degraded_policy}
    if args.max_concurrency is not None:
        if args.max_concurrency < 1:
            raise ValueError("--max-concurrency must be at least 1")
        overrides["max_concurrency"] = args.max_concurrency
    if args.default_timeout_ms is not None:
        if args.default_timeout_ms < 1:
            raise ValueError("--default-timeout-ms must be positive")
        overrides["default_timeout_ms"] = args.default_timeout_ms
    if args.max_connections is not None:
        if args.max_connections < 1:
            raise ValueError("--max-connections must be at least 1")
        overrides["max_connections"] = args.max_connections
    if args.idle_timeout_s is not None:
        if args.idle_timeout_s <= 0:
            raise ValueError("--idle-timeout-s must be positive")
        overrides["idle_timeout_s"] = args.idle_timeout_s
    return ServerConfig(**overrides)


def _serve(args: argparse.Namespace, holder, config) -> None:
    """Run the selected transport until Ctrl-C."""
    transport = "threaded (legacy)" if args.legacy_threaded else "event-driven"
    print(
        f"LotusX serving http://{args.host}:{args.port}/"
        f"  [{transport}]  (Ctrl-C to stop)"
    )
    try:
        if args.legacy_threaded:
            from repro.server.app import serve

            serve(holder, args.host, args.port, config)
        else:
            from repro.server.aio import serve_async

            serve_async(holder, args.host, args.port, config)
    except KeyboardInterrupt:
        print("\nbye")


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.server.reload import DatabaseHolder, ReloadSource

    if args.corpora:
        if args.corpus is not None or args.snapshot is not None:
            raise ValueError(
                "--corpus (multi-tenant) cannot be combined with a"
                " positional corpus or --snapshot"
            )
        if args.writable or args.wal is not None:
            raise ValueError(
                "use --corpus NAME=PATH,writable=1[,wal=FILE] for"
                " writable tenants"
            )
        return _cmd_serve_tenants(args)
    if args.default_tenant is not None or args.tenant_admin:
        raise ValueError("--default-tenant/--tenant-admin require --corpus")

    if (args.corpus is None) == (args.snapshot is None):
        raise ValueError("serve needs exactly one of: a corpus file, or --snapshot")

    if args.shards < 1:
        raise ValueError("--shards must be at least 1")
    if args.replicas < 1:
        raise ValueError("--replicas must be at least 1")

    # Deterministic fault injection for resilience drills: the fault
    # harness (LOTUSX_FAULT_SPEC) arms named sites such as
    # fleet.replica.<shard>.<replica> before any request is served.
    from repro.resilience import faults

    faults.install_from_env()

    if args.writable:
        if args.shards > 1:
            raise ValueError("--writable requires monolithic serving (--shards 1)")
        if args.replicas > 1:
            raise ValueError("--writable is incompatible with --replicas")
        if args.expand_attributes:
            raise ValueError("--writable does not support --expand-attributes")
        return _cmd_serve_writable(args)
    if args.wal is not None:
        raise ValueError("--wal requires --writable")

    fleet_config = _fleet_config(args)

    started = time.perf_counter()
    if args.snapshot is not None:
        from repro.engine.store import (
            is_mmap_backed,
            is_sharded_snapshot,
            load_sharded_snapshot,
            load_snapshot,
        )

        if is_sharded_snapshot(args.snapshot):
            database = load_sharded_snapshot(
                args.snapshot,
                replicas=args.replicas,
                fleet_config=fleet_config,
                mmap=args.mmap,
            )
            banner = (
                f"sharded snapshot {args.snapshot}"
                f" ({database.shard_count} shards"
                f"{_replica_banner(args.replicas)}"
                f"{', mmap' if is_mmap_backed(database) else ''})"
            )
        else:
            if args.replicas > 1:
                raise ValueError(
                    "--replicas requires a sharded snapshot directory"
                )
            database = load_snapshot(args.snapshot, mmap=args.mmap)
            banner = f"snapshot {args.snapshot}" + (
                " (mmap)" if is_mmap_backed(database) else ""
            )
        source = ReloadSource(
            "snapshot",
            args.snapshot,
            replicas=args.replicas,
            fleet_config=fleet_config,
            mmap=args.mmap,
        )
    elif args.shards > 1:
        from repro.shard.database import ShardedDatabase

        if args.expand_attributes:
            raise ValueError("sharded serving does not support --expand-attributes")
        database = ShardedDatabase.from_file(
            args.corpus,
            args.shards,
            replicas=args.replicas,
            fleet_config=fleet_config,
        )
        source = ReloadSource(
            "xml",
            args.corpus,
            shards=args.shards,
            replicas=args.replicas,
            fleet_config=fleet_config,
        )
        banner = (
            f"corpus {args.corpus} ({args.shards} shards"
            f"{_replica_banner(args.replicas)})"
        )
    else:
        if args.replicas > 1:
            raise ValueError("--replicas requires sharded serving (--shards > 1)")
        database = LotusXDatabase.from_file(
            args.corpus, expand_attributes=args.expand_attributes
        )
        source = ReloadSource("xml", args.corpus, args.expand_attributes)
        banner = f"corpus {args.corpus}"
    holder = DatabaseHolder(database, source)
    print(f"loaded {banner} in {time.perf_counter() - started:.2f}s")

    _serve(args, holder, _server_config(args))
    return 0


def _parse_corpus_spec(spec: str) -> tuple[str, str, dict]:
    """Decode one ``--corpus NAME=PATH[,OPT=VAL...]`` value."""
    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise ValueError(
            f"--corpus needs NAME=PATH[,OPT=VAL...], got {spec!r}"
        )
    parts = rest.split(",")
    path = parts[0]
    options: dict = {"quota": None, "shards": 1, "writable": False, "wal": None}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep or key not in options:
            raise ValueError(
                f"--corpus {name}: unknown option {part!r}"
                " (expected quota=N, shards=N, writable=1, or wal=FILE)"
            )
        if key in ("quota", "shards"):
            options[key] = int(value)
        elif key == "writable":
            options[key] = value not in ("0", "false", "")
        else:
            options[key] = value
    if options["quota"] is not None and options["quota"] < 1:
        raise ValueError(f"--corpus {name}: quota must be at least 1")
    if options["shards"] < 1:
        raise ValueError(f"--corpus {name}: shards must be at least 1")
    if options["writable"] and options["shards"] > 1:
        raise ValueError(f"--corpus {name}: writable tenants cannot shard")
    return name, path, options


def _build_tenant_holder(name: str, path: str, options: dict, mmap: bool):
    """Load one named corpus into a labeled DatabaseHolder."""
    from repro.server.pipeline import _detect_source_kind
    from repro.server.reload import DatabaseHolder, ReloadSource

    if options["writable"]:
        from repro.write.writer import open_writable_database

        base = LotusXDatabase.from_file(path)
        wal_path = options["wal"] or f"{path}.lxwal"
        database = open_writable_database(base, wal_path)
        holder = DatabaseHolder(database, label=name)
        database.writer.attach_holder(holder)
        return holder
    if options["wal"]:
        raise ValueError(f"--corpus {name}: wal= requires writable=1")
    kind = _detect_source_kind(path)
    source = ReloadSource(
        kind,
        path,
        shards=options["shards"] if kind == "xml" else 1,
        mmap=mmap if kind == "snapshot" else False,
    )
    return DatabaseHolder(source.build(), source, label=name)


def _cmd_serve_tenants(args: argparse.Namespace) -> int:
    """``lotusx serve --corpus a=a.xml --corpus b=b.xml ...``"""
    import time

    from repro.server.reload import serving_element_count
    from repro.tenant.registry import TenantRegistry

    registry = TenantRegistry()
    registry.admin_enabled = args.tenant_admin
    for spec in args.corpora:
        name, path, options = _parse_corpus_spec(spec)
        started = time.perf_counter()
        holder = _build_tenant_holder(name, path, options, args.mmap)
        tenant = registry.add(
            name,
            holder=holder,
            quota=options["quota"],
            default=name == args.default_tenant,
        )
        quota_note = (
            f", quota {options['quota']}" if options["quota"] else ""
        )
        print(
            f"loaded tenant {name} from {path}"
            f" ({serving_element_count(holder.current)} elements"
            f"{quota_note}) in {time.perf_counter() - started:.2f}s"
        )
        del tenant
    if args.default_tenant is not None and (
        registry.default_name != args.default_tenant
    ):
        raise ValueError(
            f"--default-tenant {args.default_tenant!r} is not a --corpus"
        )
    print(
        f"serving {len(registry)} tenants"
        f" (default: {registry.default_name};"
        f" tenant admin {'on' if args.tenant_admin else 'off'})"
    )
    _serve(args, registry, _server_config(args))
    return 0


def _http_json(method: str, url: str, payload: dict | None = None):
    """One JSON request to a running server; ``(status, body_dict)``."""
    import urllib.error
    import urllib.request

    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read())
        except ValueError:
            body = {"error": str(exc)}
        return exc.code, body


def _cmd_tenant(args: argparse.Namespace) -> int:
    """``lotusx tenant list|add|reload`` against a running server."""
    base = args.url.rstrip("/")
    if args.tenant_command == "list":
        status, body = _http_json("GET", f"{base}/api/tenants")
        if status != 200:
            print(f"error: {body.get('error', status)}", file=sys.stderr)
            return 1
        header = (
            f"{'name':20} {'gen':>4} {'elements':>9} {'requests':>9}"
            f" {'quota':>6}  source"
        )
        print(header)
        print("-" * len(header))
        for row in body["tenants"]:
            marker = "*" if row["name"] == body["default"] else " "
            quota = row["quota"] if row["quota"] is not None else "-"
            print(
                f"{marker}{row['name']:19} {row['generation']:>4}"
                f" {row['elements']:>9} {row['requests']:>9}"
                f" {quota:>6}  {row['source'] or '-'}"
            )
        print(f"(* = default; admin {'on' if body['admin_enabled'] else 'off'})")
        return 0
    if args.tenant_command == "add":
        payload: dict = {"name": args.name, "path": args.path}
        if args.quota is not None:
            payload["quota"] = args.quota
        if args.shards > 1:
            payload["shards"] = args.shards
        status, body = _http_json("POST", f"{base}/api/tenants", payload)
        if status != 200:
            print(f"error: {body.get('error', status)}", file=sys.stderr)
            return 1
        print(
            f"added tenant {body['tenant']}"
            f" (tenants now: {', '.join(body['tenants'])})"
        )
        return 0
    if args.tenant_command == "reload":
        status, body = _http_json(
            "POST", f"{base}/api/t/{args.name}/reload", {}
        )
        if status != 200:
            print(f"error: {body.get('error', status)}", file=sys.stderr)
            return 1
        print(
            f"reloaded tenant {body.get('tenant', args.name)}:"
            f" generation {body['generation']},"
            f" {body['elements']} elements,"
            f" {body['elapsed_seconds']}s"
        )
        return 0
    raise AssertionError(f"unhandled tenant command {args.tenant_command!r}")


def _cmd_serve_writable(args: argparse.Namespace) -> int:
    """Serve a monolithic corpus with the live write path enabled.

    The base index becomes segment 0 of a
    :class:`~repro.write.segments.SegmentedCorpus`; mutations arriving at
    ``POST /api/documents`` are WAL-logged and applied as delta
    segments.  Writable serving has no reload source — the WAL *is* the
    authority for post-start changes, so ``POST /api/reload`` answers
    400 ``reload_unavailable``.
    """
    import time

    from repro.server.reload import DatabaseHolder
    from repro.write.writer import open_writable_database

    started = time.perf_counter()
    base_seqno = 0
    if args.snapshot is not None:
        from repro.engine.store import (
            is_sharded_snapshot,
            load_snapshot,
            read_snapshot_info,
        )

        if is_sharded_snapshot(args.snapshot):
            raise ValueError("--writable cannot serve a sharded snapshot")
        info = read_snapshot_info(args.snapshot)
        base_seqno, base_ids = info.seqno, info.document_ids
        # The write path only ever patches columns copy-on-write, so an
        # mmap-backed base segment is safe under live mutations.
        base = load_snapshot(args.snapshot, mmap=args.mmap)
        source_path = args.snapshot
        banner = f"snapshot {args.snapshot} (checkpoint seqno {base_seqno})"
    else:
        base = LotusXDatabase.from_file(args.corpus)
        base_ids = None
        source_path = args.corpus
        banner = f"corpus {args.corpus}"
    wal_path = args.wal if args.wal is not None else f"{source_path}.lxwal"

    database = open_writable_database(
        base, wal_path, base_seqno=base_seqno, document_ids=base_ids
    )
    holder = DatabaseHolder(database)
    database.writer.attach_holder(holder)
    writer_stats = database.writer.statistics()
    print(
        f"loaded {banner} in {time.perf_counter() - started:.2f}s"
        f" (writable; wal {wal_path},"
        f" {writer_stats['wal_records']} log records,"
        f" last applied seqno {writer_stats['last_applied_seqno']})"
    )

    try:
        _serve(args, holder, _server_config(args))
    finally:
        database.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
