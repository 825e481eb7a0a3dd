"""Command line entrypoint: the `bioling` tool.

All subcommands stream JSON Lines documents in input order, so they
compose via pipes. Exit codes: 0 success, 1 usage error, 2 data error.
A file that cannot be read or written exits 2 ("error: <path>: <reason>"),
and so does, before any file is opened, an output that is a regular file
the command reads, standard output included, or an `index build --output`
that exists and is not a regular file.
Environment: BIOLING_RULES and BIOLING_SEG_CONFIG supply default paths
for --rules / --seg-config. tokenize, segment, abbrev and link run each
document of one stream through `bench.run_pipeline`, which `bioling bench`
times; `link` finds abbreviations only in documents that have mentions.

Input is checked where it enters: each flag value as it is parsed, a bad
one exiting 1 before any file is read ("argument --k: must be an integer
>= 1, got '0'"); each line of each input file as `lines.open_lines` reads
it, a bad one exiting 2 ("<file>: line <n>: ..."), and each document
object, mentions included, by `doc.from_json_obj`, for every command.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import stat
import sys

from . import __version__
from .bench import STAGES, run_bench, run_pipeline
from .doc import Document, from_json_obj, json_line
from .evals import (
    GoldMention, make_citation_corpus, recall_at_k, segmentation_accuracy,
)
from .index import IndexFormatError, build_index, load_index, save_index
from .kb import kb_stats, load_kb
from .lines import InputError, Lines, open_lines
from .segmenter import citation_split_rate, load_segmenter_config
from .tokenizer import load_rules
from .vectorizer import NgramVectorizer


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _open_out(path: str):
    """The file at `path` opened for writing, or standard output for "-"."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


# the arguments that name a file a command reads, "-" for standard input
_READS = ("input", "kb", "index", "gold", "pred", "base", "rules", "seg_config")


def _regular_file(path: str, stream):
    """The stat of the regular file at `path` (`stream`'s for "-"), else None."""
    with contextlib.suppress(OSError, ValueError):  # no such file, or a stream without one
        st = os.fstat(stream.fileno()) if path == "-" else os.stat(path)
        return st if stat.S_ISREG(st.st_mode) else None
    return None


def _iter_doc_lines(lines: Lines):
    """Yield (lineno, doc, spans) per nonempty input line: a line opening with
    "{" is a core_text document object that `from_json_obj` checks, `spans`
    its mentions' (start, end) pairs; any other line raw text, `spans` None."""
    for lineno, line in lines:
        if line.lstrip().startswith("{"):
            obj = lines.json_object(lineno, line)
            try:
                doc = from_json_obj(obj)
            except ValueError as exc:
                raise lines.error(lineno, f"malformed document: {exc}") from None
            spans = [(m["start"], m["end"]) for m in obj.get("mentions", [])]
        else:
            doc, spans = Document(line), None
        yield lineno, doc, spans


def _stream(args, step) -> int:
    """Write to --output the text `step(doc, spans, run)` yields per --input
    document and its mention spans, JSON lines: `run(doc, stages, ...)` is
    `run_pipeline` with the --rules and any --seg-config."""
    cfg = load_segmenter_config(args.seg_config) if "seg_config" in vars(args) else None
    run = functools.partial(run_pipeline, rules=load_rules(args.rules), seg_config=cfg)
    with open_lines(args.input) as fin, _open_out(args.output) as fout:
        for _, doc, spans in _iter_doc_lines(fin):
            fout.writelines(step(doc, spans, run))
    return 0


def _json_lines(objs):
    """The JSON line of each object."""
    return (json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)


# -- subcommands --------------------------------------------------------

_cmd_tokenize = functools.partial(
    _stream, step=lambda doc, spans, run: json_line(run(doc, STAGES[:1]).doc))
# existing sentences dropped, so that segment always segments
_cmd_segment = functools.partial(_stream, step=lambda doc, spans, run: json_line(
    run(doc.with_sentences(()), STAGES[:2]).doc))
_cmd_abbrev = functools.partial(_stream, step=lambda doc, spans, run: _json_lines(
    {"short": {"start": pair.short_form.start, "end": pair.short_form.end},
     "long": {"start": pair.long_form.start, "end": pair.long_form.end}}
    for pair in run(doc, STAGES[:3]).pairs))


def _cmd_kb(args) -> int:
    kb = load_kb(args.input)
    if args.kb_cmd == "validate":
        print(f"OK: {len(kb.concepts)} concepts, {len(kb.alias_table)} aliases")
        return 0
    # standard input has no file to size, whatever file is named "-"
    size = 0 if args.input == "-" else os.path.getsize(args.input)
    print(json.dumps(dataclasses.asdict(kb_stats(kb, size))))
    return 0


def _cmd_index_build(args) -> int:
    # `save_index` renames a file over it, which would replace a FIFO or device
    if os.path.exists(args.output) and not os.path.isfile(args.output):
        raise DataError(f"--output {args.output}: not a regular file")
    kb = load_kb(args.kb)
    aliases = kb.alias_surfaces()
    if not aliases:  # every concept has an alias, so the file had no concept
        raise DataError(f"{'standard input' if args.kb == '-' else args.kb}: no nonempty lines")
    try:
        vectorizer = NgramVectorizer.fit(aliases, min_df=args.min_df)
    except ValueError as exc:
        raise DataError(str(exc))
    index = build_index(kb, vectorizer)
    try:
        save_index(index, args.output)
    except OSError as exc:  # it names its temporary file, not the user's path
        raise OSError(exc.errno, exc.strerror, args.output) from exc
    print(f"indexed {len(index)} alias keys -> {args.output}", file=sys.stderr)
    return 0


def _cmd_link(args) -> int:
    index = load_index(args.index)

    def step(doc, spans, run):
        stages = STAGES if spans and not args.no_abbrev else STAGES[3:]
        return _json_lines(
            {"mention": cs.mention, "start": cs.start, "end": cs.end,
             "query_text": cs.query_text,
             "candidates": [{"concept_id": c.concept_id, "alias": c.alias,
                             "score": c.similarity} for c in cs.candidates]}
            for cs in run(doc, stages, index=index, spans=spans or (), k=args.k).candidate_sets)
    return _stream(args, step)


def _cmd_eval_recall(args) -> int:
    index = load_index(args.index)
    gold = []
    with open_lines(args.gold) as lines:
        for lineno, line in lines:
            obj = lines.json_object(lineno, line)
            for field in ("mention", "concept_id"):
                if not isinstance(obj.get(field), str) or not obj[field]:
                    raise lines.error(lineno, f"'{field}' must be a nonempty string")
            gold.append(GoldMention(obj["mention"], obj["concept_id"]))
        if not gold:
            raise DataError(f"{lines.name}: no nonempty lines")
    curve = recall_at_k(index, gold, args.k_list)
    with _open_out(args.output) as fout:
        fout.write("k,recall,mean_candidates,max_candidates\n")
        for p in curve:
            fout.write(f"{p.k},{p.recall:.6f},{p.mean_candidates:.2f},"
                       f"{p.max_candidates}\n")
    return 0


def _read_docs_jsonl(path: str):
    docs = []
    with open_lines(path) as lines:
        for lineno, doc, spans in _iter_doc_lines(lines):
            if spans is None:
                raise lines.error(lineno, "expected core_text JSONL documents")
            docs.append(doc)
        if not docs:
            raise DataError(f"{lines.name}: no nonempty lines")
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


def _cmd_eval_citations(args) -> int:
    with open_lines(args.base) as lines:
        base = [line.strip() for _, line in lines]
        if not base:
            raise DataError(f"{lines.name}: no nonempty lines")
    cfg = load_segmenter_config(args.seg_config)
    try:
        corpus = [sent for sent, _ in make_citation_corpus(base, args.seed, args.n)]
        rate = citation_split_rate(corpus, cfg)
    except ValueError as exc:
        raise DataError(str(exc))
    print(json.dumps({"n": args.n, "seed": args.seed, "intact_rate": rate}))
    return 0


def _cmd_bench(args) -> int:
    index = load_index(args.index) if args.index else None
    with open_lines(args.input) as fin:
        corpus = [(doc.text, spans or ()) for _, doc, spans in _iter_doc_lines(fin)]
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
_FILE = _checked(str, lambda path: path != "-", "a file path other than '-'")
_K_LIST = _checked(lambda text: [int(k) for k in text.split(",") if k],
                   lambda ks: ks and ks[0] >= 1 and all(a < b for a, b in zip(ks, ks[1:])),
                   "integers, increasing from 1 or more")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bioling", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stream(p, func, seg_config=True):
        """--rules, --seg-config unless told not to, --input and --output."""
        p.add_argument("--rules", metavar="FILE", default=os.environ.get("BIOLING_RULES"))
        if seg_config:
            p.add_argument("--seg-config", metavar="FILE",
                           default=os.environ.get("BIOLING_SEG_CONFIG"))
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
    bp.add_argument("--output", required=True, type=_FILE, metavar="FILE")
    bp.set_defaults(func=_cmd_index_build)

    p = sub.add_parser("link", help="generate linking candidates for mentions")
    p.add_argument("--index", required=True, type=_FILE, metavar="FILE")
    p.add_argument("--k", type=_POSITIVE, default=30)
    p.add_argument("--no-abbrev", dest="no_abbrev", action="store_true")
    add_stream(p, _cmd_link)

    p = sub.add_parser("eval", help="evaluation utilities")
    ev_sub = p.add_subparsers(dest="eval_cmd", required=True)

    rp = ev_sub.add_parser("recall")
    rp.add_argument("--index", required=True, type=_FILE, metavar="FILE")
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
    cp.add_argument("--seg-config", metavar="FILE", default=os.environ.get("BIOLING_SEG_CONFIG"))
    cp.set_defaults(func=_cmd_eval_citations)

    p = sub.add_parser("bench", help="throughput benchmark")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--index", type=_FILE, metavar="FILE")
    p.add_argument("--reps", type=_POSITIVE, default=3)
    p.add_argument("--warmup", type=_checked(int, lambda n: n >= 0, "an integer >= 0"),
                   default=1)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    target = "standard output"  # where the command writes, for errors
    try:
        args = parser.parse_args(argv)
        output = getattr(args, "output", "-")
        if output != "-":
            target = f"--output {output}"
        # no command writes to a regular file it reads, before any is opened:
        # opening it would empty it, and appending to it might never end
        if out := _regular_file(output, sys.stdout):
            for attr in _READS:
                path = getattr(args, attr, None)
                src = path and _regular_file(path, sys.stdin)
                if src and os.path.samestat(src, out):
                    flag = "--" + attr.replace("_", "-")
                    raise DataError(f"{target} is the input file ({flag} {path})")
        code = args.func(args)
        sys.stdout.flush()  # a write error here, not at exit, where it would be ignored
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except (DataError, InputError, IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        # an error that names no file comes from writing, flushing or
        # closing the output
        print(f"error: {exc.filename or target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:  # what stdout still holds would fail again at exit, ignored, with code 120
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
