"""Command line entrypoint: the `bioling` tool.

All subcommands stream JSON Lines documents in input order, so they
compose via pipes. Exit codes: 0 success, 1 usage error, 2 data error.
Environment: BIOLING_RULES and BIOLING_SEG_CONFIG supply default paths
for --rules / --seg-config. tokenize, segment, abbrev and link share one
document stream and differ only in what they write for each document.
`bioling link` detects abbreviations only in documents that have mentions.
`bioling bench` reads the same documents, untokenized, since it times
tokenize itself, and links their mentions as `link` does.

Input is checked where it enters: each flag value as it is parsed, a bad
one exiting 1 before any file is read ("argument --k: must be an integer
>= 1, got '0'"); each line of each input file as `lines.open_lines` reads
it, a bad one exiting 2 ("<file>: line <n>: ...").
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

from . import __version__
from .abbrev import expansion_map, find_abbreviations
from .bench import run_bench
from .doc import Document, from_json_obj, json_line
from .evals import (
    GoldMention, make_citation_corpus, recall_at_k, segmentation_accuracy,
)
from .index import IndexFormatError, build_index, load_index, save_index
from .kb import kb_stats, load_kb
from .lines import InputError, Lines, open_lines
from .linker import generate_candidates
from .segmenter import (
    citation_split_rate, default_segmenter_config, load_segmenter_config, segment,
)
from .tokenizer import default_biomedical_rules, load_rules, tokenize
from .vectorizer import NgramVectorizer


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


@contextlib.contextmanager
def _open_in(path: str):
    """The `Lines` of the file at `path`, or of standard input for "-"."""
    with contextlib.ExitStack() as stack:
        yield _load_file(path, lambda p: stack.enter_context(open_lines(p)),
                         "input file")


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        try:
            fp = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc.strerror}") from None
        with fp:
            yield fp


def _load_file(path: str, loader, what: str):
    """`loader(path)`, with a missing or unreadable file as a DataError."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None


# argument attribute -> (environment variable, loader, what it is, default)
_CONFIGS = {
    "rules": ("BIOLING_RULES", load_rules, "rules file", default_biomedical_rules),
    "seg_config": ("BIOLING_SEG_CONFIG", load_segmenter_config, "segmenter config",
                   default_segmenter_config),
}


def _get_config(args, attr: str):
    """The --rules or --seg-config file (`attr`), else the one its
    environment variable names, else the default."""
    env, loader, what, default = _CONFIGS[attr]
    path = getattr(args, attr, None) or os.environ.get(env)
    if path:
        return _load_file(path, loader, what)
    return default()


def _iter_doc_lines(lines: Lines, rules=None):
    """Yield (lineno, doc, obj) per nonempty input line: a JSON object with
    a "text" field is a core_text document, any other line raw text (`obj`
    {}). With `rules`, raw text and a document with text but no tokens are
    tokenized with them."""
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("{"):
            obj = lines.json_object(lineno, line)
            if "text" not in obj:
                raise lines.error(lineno, "document object needs a 'text' field")
            try:
                doc = from_json_obj(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise lines.error(lineno, f"malformed document: {exc}") from None
        else:
            doc, obj = Document(line), {}
        if rules is not None and not doc.tokens and doc.text.strip():
            doc = tokenize(doc.text, rules)
        yield lineno, doc, obj


def _stream(args, step) -> int:
    """Write to --output the text `step(doc, obj, cfg, error)` yields per
    --input document, JSON lines: `cfg` is any --seg-config, `error(message)`
    names its line."""
    rules = _get_config(args, "rules")
    cfg = _get_config(args, "seg_config") if "seg_config" in vars(args) else None
    with _open_in(args.input) as fin, _open_out(args.output) as fout:
        for lineno, doc, obj in _iter_doc_lines(fin, rules):
            fout.writelines(step(doc, obj, cfg, functools.partial(fin.error, lineno)))
    return 0


def _json_lines(objs):
    """The JSON line of each object."""
    return (json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)


def _abbreviations(doc: Document, cfg):
    """The abbreviation pairs of `doc`, segmented with `cfg` if it has no sentences."""
    return find_abbreviations(doc if doc.sentences else segment(doc, cfg))


# -- subcommands --------------------------------------------------------

_cmd_tokenize = functools.partial(_stream, step=lambda doc, obj, cfg, error: json_line(doc))
_cmd_segment = functools.partial(
    _stream, step=lambda doc, obj, cfg, error: json_line(segment(doc, cfg)))
_cmd_abbrev = functools.partial(_stream, step=lambda doc, obj, cfg, error: _json_lines(
    {"short": {"start": pair.short_form.start, "end": pair.short_form.end},
     "long": {"start": pair.long_form.start, "end": pair.long_form.end}}
    for pair in _abbreviations(doc, cfg)))


def _cmd_kb(args) -> int:
    kb = _load_file(args.input, load_kb, "KB file")
    if args.kb_cmd == "validate":
        print(f"OK: {len(kb.concepts)} concepts, {len(kb.alias_table)} aliases")
        return 0
    print(json.dumps(dataclasses.asdict(kb_stats(kb))))
    return 0


def _cmd_index_build(args) -> int:
    kb = _load_file(args.kb, load_kb, "KB file")
    aliases = kb.alias_surfaces()
    if not aliases:
        raise DataError("KB has no aliases to index")
    try:
        vectorizer = NgramVectorizer.fit(aliases, min_df=args.min_df)
    except ValueError as exc:
        raise DataError(str(exc))
    index = build_index(kb, vectorizer)
    try:
        save_index(index, args.output)
    except OSError as exc:
        raise DataError(f"cannot write index {args.output}: {exc.strerror}") from None
    print(f"indexed {len(index)} alias keys -> {args.output}", file=sys.stderr)
    return 0


def _mention_spans(doc: Document, obj: dict, error) -> list[tuple[int, int]]:
    mentions = obj.get("mentions", [])
    if not isinstance(mentions, list):
        raise error("'mentions' must be a list")
    spans = []
    for i, m in enumerate(mentions):
        if not isinstance(m, dict):
            raise error(f"mention {i} must be an object")
        start, end = m.get("start"), m.get("end")
        # only JSON integers are offsets; bool is an int subclass in Python
        if type(start) is not int or type(end) is not int:
            raise error(f"mention {i} needs integer 'start' and 'end': {m!r}")
        if not (0 <= start < end <= len(doc.text)):
            raise error(f"mention span out of range {m!r}")
        spans.append((start, end))
    return spans


def _cmd_link(args) -> int:
    index = _load_file(args.index, load_index, "index file")

    def step(doc, obj, cfg, error):
        spans = _mention_spans(doc, obj, error)
        expansion = None if args.no_abbrev or not spans else expansion_map(
            _abbreviations(doc, cfg))
        for start, end in spans:
            mention = doc.text[start:end]
            cs = generate_candidates(index, index.alias_table, mention,
                                     args.k, expansion, start, end)
            yield {
                "mention": mention,
                "start": start,
                "end": end,
                "query_text": cs.query_text,
                "candidates": [
                    {"concept_id": c.concept_id, "alias": c.alias,
                     "score": c.similarity}
                    for c in cs.candidates
                ],
            }
    return _stream(args, lambda *doc_args: _json_lines(step(*doc_args)))


def _cmd_eval_recall(args) -> int:
    index = _load_file(args.index, load_index, "index file")
    gold = []
    with _open_in(args.gold) as lines:
        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            obj = lines.json_object(lineno, line)
            for field in ("mention", "concept_id"):
                if not isinstance(obj.get(field), str) or not obj[field]:
                    raise lines.error(lineno, f"'{field}' must be a nonempty string")
            gold.append(GoldMention(obj["mention"], obj["concept_id"]))
    if not gold:
        raise DataError("empty gold mention set")
    curve = recall_at_k(index, gold, args.k_list)
    with _open_out(args.output) as fout:
        fout.write("k,recall,mean_candidates,max_candidates\n")
        for p in curve:
            fout.write(f"{p.k},{p.recall:.6f},{p.mean_candidates:.2f},"
                       f"{p.max_candidates}\n")
    return 0


def _read_docs_jsonl(path: str):
    docs = []
    with _open_in(path) as lines:
        for lineno, doc, obj in _iter_doc_lines(lines):
            if not obj:
                raise lines.error(lineno, "expected core_text JSONL documents")
            docs.append(doc)
    return docs


def _cmd_eval_segmentation(args) -> int:
    pred = _read_docs_jsonl(args.pred)
    gold = _read_docs_jsonl(args.gold)
    try:
        acc = segmentation_accuracy(pred, gold)
    except ValueError as exc:
        raise DataError(str(exc))
    print(json.dumps({"sentence_acc": acc.sentence_acc,
                      "abstract_acc": acc.abstract_acc}))
    return 0


def _nonempty_lines(path: str) -> list[str]:
    """The stripped nonempty lines of a file; a file with none is a DataError."""
    with _open_in(path) as lines:
        found = [line.strip() for _, line in lines if line.strip()]
        if not found:
            raise DataError(f"{lines.name}: no nonempty lines")
    return found


def _cmd_eval_citations(args) -> int:
    base = _nonempty_lines(args.base)
    cfg = _get_config(args, "seg_config")
    try:
        corpus = [sent for sent, _ in make_citation_corpus(base, args.seed, args.n)]
        rate = citation_split_rate(corpus, cfg)
    except ValueError as exc:
        raise DataError(str(exc))
    print(json.dumps({"n": args.n, "seed": args.seed, "intact_rate": rate}))
    return 0


def _cmd_bench(args) -> int:
    index = _load_file(args.index, load_index, "index file") if args.index else None
    with _open_in(args.input) as fin:
        corpus = [(doc.text, _mention_spans(doc, obj, functools.partial(fin.error, lineno)))
                  for lineno, doc, obj in _iter_doc_lines(fin)]
        if not corpus:
            raise DataError(f"{fin.name}: no nonempty lines")
    report = run_bench(corpus, reps=args.reps, warmup=args.warmup, index=index)
    print(json.dumps(dataclasses.asdict(report)))
    return 0


# -- argument wiring ----------------------------------------------------

def _checked(parse, ok, expected: str):
    """An argparse type: `parse(text)`, if that passes `ok`."""
    def check(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := parse(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
    return check


_POSITIVE = _checked(int, lambda n: n >= 1, "an integer >= 1")
_K_LIST = _checked(lambda text: [int(k) for k in text.split(",") if k],
                   lambda ks: ks and ks[0] >= 1 and all(a < b for a, b in zip(ks, ks[1:])),
                   "integers, increasing from 1 or more")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bioling", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stream(p, func, seg_config=True):
        """--rules, --seg-config unless told not to, --input and --output."""
        p.add_argument("--rules", metavar="FILE")
        if seg_config:
            p.add_argument("--seg-config", dest="seg_config", metavar="FILE")
        p.add_argument("--input", default="-", metavar="FILE|-")
        p.add_argument("--output", default="-", metavar="FILE|-")
        p.set_defaults(func=func)

    add_stream(sub.add_parser("tokenize", help="tokenize raw text or documents"),
               _cmd_tokenize, seg_config=False)
    add_stream(sub.add_parser("segment", help="add sentence spans"), _cmd_segment)
    add_stream(sub.add_parser("abbrev", help="detect abbreviation definitions"),
               _cmd_abbrev)

    p = sub.add_parser("kb", help="knowledge-base utilities")
    kb_sub = p.add_subparsers(dest="kb_cmd", required=True)
    for name in ("validate", "stats"):
        kp = kb_sub.add_parser(name)
        kp.add_argument("--input", required=True, metavar="FILE")
        kp.set_defaults(func=_cmd_kb)

    p = sub.add_parser("index", help="build a searchable alias index")
    idx_sub = p.add_subparsers(dest="index_cmd", required=True)
    bp = idx_sub.add_parser("build")
    bp.add_argument("--kb", required=True, metavar="FILE")
    bp.add_argument("--min-df", dest="min_df", type=_POSITIVE, default=10)
    bp.add_argument("--output", required=True, metavar="FILE")
    bp.set_defaults(func=_cmd_index_build)

    p = sub.add_parser("link", help="generate linking candidates for mentions")
    p.add_argument("--index", required=True, metavar="FILE")
    p.add_argument("--k", type=_POSITIVE, default=30)
    p.add_argument("--no-abbrev", dest="no_abbrev", action="store_true")
    add_stream(p, _cmd_link)

    p = sub.add_parser("eval", help="evaluation utilities")
    ev_sub = p.add_subparsers(dest="eval_cmd", required=True)

    rp = ev_sub.add_parser("recall")
    rp.add_argument("--index", required=True, metavar="FILE")
    rp.add_argument("--gold", required=True, metavar="FILE")
    rp.add_argument("--k-list", dest="k_list", type=_K_LIST, default="1,5,10,25,50,100")
    rp.add_argument("--output", default="-", metavar="FILE|-")
    rp.set_defaults(func=_cmd_eval_recall)

    sp = ev_sub.add_parser("segmentation")
    sp.add_argument("--pred", required=True, metavar="FILE")
    sp.add_argument("--gold", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_eval_segmentation)

    cp = ev_sub.add_parser("citations")
    cp.add_argument("--n", type=_POSITIVE, default=500)
    cp.add_argument("--seed", type=int, default=13)
    cp.add_argument("--base", required=True, metavar="FILE")
    cp.add_argument("--seg-config", dest="seg_config", metavar="FILE")
    cp.set_defaults(func=_cmd_eval_citations)

    p = sub.add_parser("bench", help="throughput benchmark")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--index", metavar="FILE")
    p.add_argument("--reps", type=_POSITIVE, default=3)
    p.add_argument("--warmup", type=_checked(int, lambda n: n >= 0, "an integer >= 0"),
                   default=1)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except (DataError, InputError, IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
