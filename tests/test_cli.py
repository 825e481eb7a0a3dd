import contextlib
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bioling
from bioling.abbrev import expansion_map, find_abbreviations
from bioling.cli import main
from bioling.doc import SentenceSpan
from bioling.index import build_index, load_index, save_index
from bioling.linker import generate_candidates
from bioling.segmenter import segment
from bioling.tokenizer import tokenize
from bioling.vectorizer import NgramVectorizer

from conftest import BLIX_CORRUPTIONS, to_json_obj, write_corrupt_blix


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(argv, stdin=""):
        import io
        import sys
        # a byte stream under a text wrapper, as the real stdin is
        raw = stdin if isinstance(stdin, bytes) else stdin.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def index_path(toy_kb, tmp_path):
    vec = NgramVectorizer.fit(toy_kb.alias_surfaces(), min_df=1)
    path = str(tmp_path / "toy.blix")
    save_index(build_index(toy_kb, vec), path)
    return path


def out_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_tokenize_raw_text(run):
    code, out, _ = run(["tokenize"], stdin="IL-2 (interleukin-2).\n")
    assert code == 0
    (doc,) = out_lines(out)
    assert doc["text"] == "IL-2 (interleukin-2)."
    assert len(doc["tokens"]) == 5


def test_tokenize_json_passthrough(run):
    line = json.dumps({"text": "p<0.05"})
    code, out, _ = run(["tokenize"], stdin=line + "\n")
    assert code == 0
    (doc,) = out_lines(out)
    assert [doc["text"][t["start"]:t["end"]] for t in doc["tokens"]] \
        == ["p", "<", "0.05"]


def test_segment_pipe_from_tokenize(run):
    code, out, _ = run(["tokenize"], stdin="One result. Two results.\n")
    assert code == 0
    code, out, _ = run(["segment"], stdin=out)
    assert code == 0
    (doc,) = out_lines(out)
    assert len(doc["sentences"]) == 2


def test_abbrev_offsets(run):
    text = "The heat shock protein (HSP) response was induced."
    code, out, _ = run(["abbrev"], stdin=text + "\n")
    assert code == 0
    (pair,) = out_lines(out)
    assert text[pair["short"]["start"]:pair["short"]["end"]] == "HSP"
    assert text[pair["long"]["start"]:pair["long"]["end"]] \
        == "heat shock protein"


def test_kb_validate_and_stats(run, toy_kb_path):
    code, out, _ = run(["kb", "validate", "--input", toy_kb_path])
    assert code == 0 and "5 concepts" in out
    code, out, _ = run(["kb", "stats", "--input", toy_kb_path])
    assert code == 0
    stats = json.loads(out)
    assert stats["n_concepts"] == 5 and stats["n_shared_aliases"] == 1
    assert stats["bytes_on_disk"] == os.path.getsize(toy_kb_path) > 0


def test_kb_stats_of_stdin_sizes_no_file(run, toy_kb_path, tmp_path, monkeypatch):
    # a file named "-" in the working directory is not standard input
    (tmp_path / "-").write_text("sixteen bytes..\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["kb", "stats", "--input", "-"],
                       stdin=pathlib.Path(toy_kb_path).read_text())
    assert code == 0
    stats = json.loads(out)
    assert stats["n_concepts"] == 5 and stats["bytes_on_disk"] == 0
    # the fields of `KBStats`, in order, on one line
    assert out == ('{"n_concepts": 5, "n_aliases": 14, "n_shared_aliases": 1, '
                   '"bytes_on_disk": 0}\n')


def test_kb_validate_bad_file_exits_2(run, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    code, _, err = run(["kb", "validate", "--input", str(bad)])
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("line, field", [
    ("[1, 2]", "JSON object"),
    ('{"concept_id": "X1", "canonical_name": "A", "types": "T1"}', "types"),
    ('{"concept_id": "X1", "canonical_name": "A", "definition": 5}', "definition"),
])
def test_kb_validate_malformed_concept_exits_2(run, tmp_path, line, field):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    code, _, err = run(["kb", "validate", "--input", str(bad)])
    assert code == 2
    assert "line 1" in err and field in err
    assert "Traceback" not in err


def test_index_build_and_link_end_to_end(run, toy_kb_path, tmp_path):
    out_path = str(tmp_path / "built.blix")
    code, _, err = run([
        "index", "build", "--kb", toy_kb_path, "--min-df", "1",
        "--output", out_path,
    ])
    assert code == 0
    assert "indexed" in err

    doc_line = json.dumps({
        "text": "Patients with lung carcinoma were treated.",
        "mentions": [{"start": 14, "end": 28}],
    })
    code, out, _ = run(["link", "--index", out_path, "--k", "5"],
                       stdin=doc_line + "\n")
    assert code == 0
    (result,) = out_lines(out)
    assert result["mention"] == "lung carcinoma"
    assert any(c["concept_id"] == "C01" for c in result["candidates"])
    scores = [c["score"] for c in result["candidates"]]
    assert scores == sorted(scores, reverse=True)


def test_link_uses_abbreviation_expansion(run, index_path):
    text = ("The heat shock protein (HSP) was induced. "
            "Levels of HSP remained high.")
    pos = text.index("HSP", 40)
    doc_line = json.dumps({
        "text": text, "mentions": [{"start": pos, "end": pos + 3}],
    })
    code, out, _ = run(["link", "--index", index_path], stdin=doc_line + "\n")
    assert code == 0
    (result,) = out_lines(out)
    assert result["query_text"] == "heat shock protein"
    code, out, _ = run(["link", "--index", index_path, "--no-abbrev"],
                       stdin=doc_line + "\n")
    (raw,) = out_lines(out)
    assert raw["query_text"] == "HSP"


@pytest.mark.parametrize("obj, calls", [
    ({"text": "The heat shock protein (HSP) was induced."}, 0),
    ({"text": "The heat shock protein (HSP) was induced.", "mentions": []}, 0),
    ({"text": "The heat shock protein (HSP) was induced.",
      "mentions": [{"start": 24, "end": 27}]}, 1),
], ids=["no mentions key", "empty mentions", "one mention"])
def test_link_finds_abbreviations_only_with_mentions(run, index_path, monkeypatch,
                                                      obj, calls):
    seen = []

    def counting(doc):
        seen.append(doc.text)
        return find_abbreviations(doc)

    monkeypatch.setattr("bioling.abbrev.find_abbreviations", counting)
    code, out, _ = run(["link", "--index", index_path], stdin=json.dumps(obj) + "\n")
    assert code == 0
    assert len(seen) == calls
    assert len(out_lines(out)) == len(obj.get("mentions", []))


def _mixed_stream_input():
    """Lines of a stream input and, per nonempty line, the document it
    holds and its mention spans: raw text, a blank line, whitespace-only
    documents, and documents with and without tokens, sentences and
    mentions. `one_sentence` is one sentence over all its tokens, where
    segmenting it would split it; abbrev and link must keep it."""
    hsp = "The heat shock protein (HSP) was induced. Levels of HSP remained high [1]."
    pkc = "We measured protein. Kinase C (PKC) was active (IL-2)."
    tnf = "Tumor necrosis factor (TNF) rose. TNF (tumor necrosis factor) fell [2]."
    il2 = "IL-2 (interleukin-2) levels rose."
    at = hsp.index("HSP", 45)
    tokenized = tokenize(pkc)
    one_sentence = tokenized.with_sentences((SentenceSpan(0, len(tokenized.tokens) - 1),))
    cases = [  # (line, document, mention spans); a blank line has no document
        (hsp, tokenize(hsp), []),
        ("", None, None),
        (json.dumps({"text": "   "}), tokenize("   "), []),
        (json.dumps({"text": hsp, "mentions": [{"start": at, "end": at + 3},
                                               {"start": 4, "end": 22}]}),
         tokenize(hsp), [(at, at + 3), (4, 22)]),
        (json.dumps({**to_json_obj(tokenize(hsp)),
                     "mentions": [{"start": at, "end": at + 3}]}),
         tokenize(hsp), [(at, at + 3)]),
        (json.dumps({**to_json_obj(segment(tokenize(tnf))),
                     "mentions": [{"start": 34, "end": 37}]}),
         segment(tokenize(tnf)), [(34, 37)]),
        (json.dumps({**to_json_obj(one_sentence),
                     "mentions": [{"start": 31, "end": 34}, {"start": 12, "end": 19}]}),
         one_sentence, [(31, 34), (12, 19)]),
        (json.dumps({"text": "", "mentions": []}), tokenize(""), []),
        ("   ", None, None),
        (il2, tokenize(il2), []),
    ]
    # segmenting `one_sentence` changes its abbreviations, so skipping it shows
    assert find_abbreviations(one_sentence) != find_abbreviations(segment(one_sentence))
    stdin = "".join(line + "\n" for line, _, _ in cases)
    return stdin, [(doc, spans) for _, doc, spans in cases if doc is not None]


@pytest.mark.parametrize("argv", [["tokenize"], ["segment"], ["abbrev"], ["link"],
                                  ["link", "--no-abbrev"]],
                         ids=["tokenize", "segment", "abbrev", "link", "link no-abbrev"])
def test_stream_command_equals_library_calls(run, index_path, argv):
    stdin, docs = _mixed_stream_input()
    index = load_index(index_path)
    expected = []
    for doc, spans in docs:
        if argv == ["tokenize"]:
            expected.append(to_json_obj(doc))
        elif argv == ["segment"]:
            expected.append(to_json_obj(segment(doc)))
        elif argv == ["abbrev"]:
            expected += [{"short": {"start": p.short_form.start, "end": p.short_form.end},
                          "long": {"start": p.long_form.start, "end": p.long_form.end}}
                         for p in find_abbreviations(doc if doc.sentences else segment(doc))]
        else:
            expansion = None if "--no-abbrev" in argv else expansion_map(
                find_abbreviations(doc if doc.sentences else segment(doc)))
            for start, end in spans:
                cs = generate_candidates(index, index.alias_table, doc.text[start:end], 10,
                                         expansion, start, end)
                expected.append({
                    "mention": doc.text[start:end], "start": start, "end": end,
                    "query_text": cs.query_text,
                    "candidates": [{"concept_id": c.concept_id, "alias": c.alias,
                                    "score": c.similarity} for c in cs.candidates]})
    if argv[0] == "link":
        argv = argv + ["--index", index_path, "--k", "10"]
    code, out, err = run(argv, stdin=stdin)
    assert code == 0, err
    assert out_lines(out) == expected
    assert len(expected) >= 3


@pytest.mark.parametrize("command", ["tokenize", "segment"])
def test_stream_writes_the_bytes_of_json_dumps(run, command):
    texts = ["Heat shock protein (HSP) rose. See Fig. 2.",
             'Tλ \x01 "q" \\ 😀\x7f rose.\tIt fell.', "", "   "]
    stdin = "".join(json.dumps({"text": t}) + "\n" for t in texts)
    code, out, err = run([command], stdin=stdin)
    assert code == 0, err
    docs = [tokenize(t) for t in texts]
    if command == "segment":
        docs = [segment(doc) for doc in docs]
    assert out == "".join(json.dumps(to_json_obj(doc), ensure_ascii=False) + "\n"
                          for doc in docs)


def test_link_missing_index_names_path(run):
    code, _, err = run(["link", "--index", "/nope/missing.blix"], stdin="")
    assert code == 2
    assert "/nope/missing.blix" in err


@pytest.mark.parametrize("case", sorted(BLIX_CORRUPTIONS))
def test_link_corrupt_index_exits_2(run, toy_index, tmp_path, case):
    path = str(tmp_path / "bad.blix")
    write_corrupt_blix(toy_index, case, path)
    code, _, err = run(["link", "--index", path], stdin="")
    assert code == 2
    assert path in err


def test_link_version_1_index_exits_2(run):
    path = str(pathlib.Path(__file__).parent / "data" / "toy-v1.blix")
    code, _, err = run(["link", "--index", path], stdin="")
    assert code == 2
    assert path in err
    assert "rebuild the index with `bioling index build`" in err


def test_link_bad_mention_span_exits_2(run, index_path):
    doc_line = json.dumps({"text": "short", "mentions": [{"start": 0, "end": 99}]})
    code, out, err = run(["link", "--index", index_path], stdin=doc_line + "\n")
    assert (code, out) == (2, "")
    assert err == ("error: standard input: line 1: malformed document: mention 0: span "
                   "[0, 99) is empty or past the end of the text (5)\n")


@pytest.mark.parametrize("argv", [
    ["tokenize"], ["segment"], ["abbrev"],
    ["eval", "segmentation", "--pred", "-", "--gold", "{gold}"],
], ids=["tokenize", "segment", "abbrev", "eval segmentation"])
def test_every_command_checks_mentions(run, tmp_path, argv):
    """The mentions of a document are checked for every command, not only
    those that link them."""
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"text": "A b"}\n')
    argv = [arg.format(gold=gold) for arg in argv]
    code, out, err = run(argv, stdin='{"text": "A b", "mentions": 5}\n')
    assert (code, out) == (2, "")
    assert err == "error: standard input: line 1: malformed document: 'mentions' must be a list\n"


@pytest.mark.parametrize("mentions", [
    [{"start": 0.9, "end": "5"}],
    [{"start": True, "end": 5}],
    [{"start": 0, "end": 5.0}],
    [{"start": 0}],
    [5],
    {"start": 0, "end": 5},
], ids=["float and string", "bool", "float end", "missing end", "not an object",
        "not a list"])
def test_link_malformed_mention_exits_2(run, index_path, mentions):
    good = json.dumps({"text": "tumor cells", "mentions": [{"start": 0, "end": 5}]})
    bad = json.dumps({"text": "tumor cells", "mentions": mentions})
    code, _, err = run(["link", "--index", index_path], stdin=f"{good}\n{bad}\n")
    assert code == 2
    assert "line 2" in err and "Traceback" not in err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_link_k_below_1_exits_1(run, index_path, k):
    code, _, err = run(["link", "--index", index_path, "--k", k], stdin="")
    assert code == 1
    assert "--k" in err and "Traceback" not in err


def test_eval_recall_csv(run, index_path, tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        json.dumps({"mention": "lung carcinoma", "concept_id": "C01"}) + "\n"
        + json.dumps({"mention": "tumor", "concept_id": "C03"}) + "\n"
    )
    code, out, _ = run([
        "eval", "recall", "--index", index_path, "--gold", str(gold),
        "--k-list", "1,5",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,recall,mean_candidates,max_candidates"
    assert lines[1].startswith("1,") and lines[2].startswith("5,")
    assert float(lines[2].split(",")[1]) >= float(lines[1].split(",")[1])


def test_eval_recall_bad_k_list_exits_1(run, index_path, tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"mention": "tumor", "concept_id": "C03"}) + "\n")
    code, _, err = run([
        "eval", "recall", "--index", index_path, "--gold", str(gold),
        "--k-list", "5,x",
    ])
    assert code == 1


@pytest.mark.parametrize("line, field", [
    ("[1, 2]", "JSON object"),
    ('{"mention": 5, "concept_id": "C03"}', "mention"),
    ('{"mention": "tumor"}', "concept_id"),
    ('{"mention": "tumor", "concept_id": ""}', "concept_id"),
])
def test_eval_recall_malformed_gold_exits_2(run, index_path, tmp_path, line, field):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"mention": "tumor", "concept_id": "C03"}) + "\n"
                    + line + "\n")
    code, _, err = run(["eval", "recall", "--index", index_path, "--gold", str(gold)])
    assert code == 2
    assert f"{gold}: line 2:" in err and field in err and "Traceback" not in err


def test_eval_citations_one_word_base_sentence(run):
    code, out, err = run(["eval", "citations", "--base", "-", "--n", "8"],
                         stdin="Mice\n")
    assert code == 0, err
    assert json.loads(out) == {"n": 8, "seed": 13, "intact_rate": 1.0}


@pytest.mark.parametrize("argv, flag", [
    (["eval", "citations", "--base", "{missing}", "--n", "0"], "--n"),
    (["eval", "citations", "--base", "{missing}", "--n", "-5"], "--n"),
    (["eval", "recall", "--index", "{missing}", "--gold", "{missing}", "--k-list", "5,x"],
     "--k-list"),
    (["bench", "--input", "{missing}", "--reps", "0"], "--reps"),
    (["bench", "--input", "{missing}", "--warmup", "-3"], "--warmup"),
    (["eval", "recall", "--index", "{missing}", "--gold", "{missing}", "--k-list", "0,5"],
     "--k-list"),
    (["eval", "recall", "--index", "{missing}", "--gold", "{missing}", "--k-list", "5,1"],
     "--k-list"),
    (["eval", "recall", "--index", "{missing}", "--gold", "{missing}", "--k-list", "5,5"],
     "--k-list"),
    (["link", "--index", "{missing}", "--k", "x"], "--k"),
    (["index", "build", "--kb", "{missing}", "--min-df", "1.5", "--output", "{missing}"],
     "--min-df"),
    (["bench", "--input", "{missing}", "--reps", ""], "--reps"),
    # bench runs every stage its inputs allow and prints only JSON
    (["bench", "--input", "{missing}", "--stages", "tokenize"], "--stages"),
    (["bench", "--input", "{missing}", "--json"], "--json"),
    # the lowest accepted values: no flag is named and the command runs
    (["link", "--index", "{index}", "--k", "1"], None),
    (["bench", "--input", "{text}", "--reps", "1", "--warmup", "0"], None),
    (["eval", "citations", "--base", "{text}", "--n", "1"], None),
], ids=["n 0", "n -5", "k-list", "reps 0", "warmup -3",
        "k-list 0", "k-list decreasing", "k-list repeated", "k not an integer",
        "min-df not an integer", "reps empty", "no --stages", "no --json", "k 1", "warmup 0",
        "n 1"])
def test_bad_flag_value_exits_1(run, tmp_path, index_path, argv, flag):
    # checked before any file is read, so the missing file is not reported
    missing = str(tmp_path / "missing.txt")
    text = tmp_path / "text.txt"
    text.write_text("Mice were treated.\n")
    code, out, err = run([a.format(missing=missing, index=index_path, text=text)
                          for a in argv])
    if flag is None:
        assert code == 0, err
        return
    assert code == 1 and out == ""
    assert flag in err and "missing.txt" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "citations", "--base", "{path}"],
    ["bench", "--input", "{path}"],
    ["eval", "recall", "--index", "{index}", "--gold", "{path}"],
    ["index", "build", "--kb", "{path}", "--output", "{out}"],
    # --pred is read first, so the missing --gold is not reported
    ["eval", "segmentation", "--pred", "{path}", "--gold", "{missing}"],
], ids=["base sentences", "bench corpus", "gold", "KB", "pred documents"])
def test_file_of_blank_lines_exits_2(run, tmp_path, index_path, argv):
    content = "\n  \n\x0c\n"
    path = tmp_path / "blank.txt"
    path.write_text(content)
    out = tmp_path / "out.blix"
    # the file by its path, standard input by that name
    for source, name, stdin in [(path, path, ""), ("-", "standard input", content)]:
        code, _, err = run([a.format(path=source, index=index_path, out=out,
                                     missing=tmp_path / "missing.jsonl") for a in argv],
                           stdin=stdin)
        assert code == 2
        assert err == f"error: {name}: no nonempty lines\n"
        assert not out.exists()


def test_eval_segmentation(run, tmp_path):
    code, out, _ = run(["segment"], stdin="One thing. Another thing.\n")
    pred = tmp_path / "docs.jsonl"
    pred.write_text(out)
    code, out, _ = run([
        "eval", "segmentation", "--pred", str(pred), "--gold", str(pred),
    ])
    assert code == 0
    acc = json.loads(out)
    assert acc == {"sentence_acc": 1.0, "abstract_acc": 1.0}


def test_eval_citations(run, tmp_path):
    base = tmp_path / "base.txt"
    base.write_text(
        "Treatment significantly reduced tumor growth in the cohort.\n"
        "Expression of the receptor was elevated in affected tissue.\n"
    )
    code, out, _ = run([
        "eval", "citations", "--base", str(base), "--n", "100", "--seed", "7",
    ])
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 100
    assert result["intact_rate"] >= 0.95


def test_bench_json(run, index_path, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Tumor growth was reduced. HSP levels rose [1].\n" * 3)
    code, out, _ = run([
        "bench", "--input", str(corpus), "--index", index_path,
        "--reps", "1", "--warmup", "0",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["n_docs"] == 3
    assert report["stages"] == ["tokenize", "segment", "abbrev", "link"]
    assert list(report["stage_ms_per_abstract_median"]) == report["stages"]
    assert [len(t) for t in report["per_rep_stage_s"].values()] == [1] * 4
    assert list(report)[-2:] == ["n_tokens", "n_abbreviation_pairs"]


def test_bench_without_index_runs_the_text_stages(run, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("A sentence.\n")
    code, out, err = run(["bench", "--input", str(corpus), "--reps", "1", "--warmup", "0"])
    assert code == 0, err
    [line] = out.splitlines()
    report = json.loads(line)
    assert report["stages"] == ["tokenize", "segment", "abbrev"]
    assert report["n_mentions"] == 0 and report["link_counters"] == {}


def test_bench_links_the_mentions_link_does(run, index_path, tmp_path):
    """On one file of documents with and without mentions and of raw text,
    bench links one mention per line that `bioling link` writes."""
    docs = tmp_path / "docs.jsonl"
    docs.write_text("\n".join([
        json.dumps({"text": "Heat shock protein (HSP) rose. HSP fell.",
                    "mentions": [{"start": 0, "end": 18}, {"start": 31, "end": 34}]}),
        json.dumps({"text": "Lung carcinoma and a tumor in xyzzyq mice.",
                    "mentions": [{"start": 0, "end": 14}, {"start": 21, "end": 26},
                                 {"start": 30, "end": 36}]}),
        json.dumps({"text": "Interleukin-2 levels were unchanged."}),
        "Expression of interleukin-2 (IL-2) was measured in mammary carcinoma.",
    ]) + "\n")
    code, out, err = run(["link", "--index", index_path, "--input", str(docs)])
    assert code == 0, err
    n_lines = len(out.splitlines())
    assert n_lines == 5
    code, out, err = run(["bench", "--index", index_path, "--input", str(docs),
                          "--reps", "1", "--warmup", "0"])
    assert code == 0, err
    report = json.loads(out)
    assert report["n_docs"] == 4
    assert report["n_mentions"] == n_lines and report["n_oov_mentions"] == 1


def test_unknown_command_exits_1(run):
    assert run(["frobnicate"])[0] == 1


def test_missing_input_file_exits_2(run):
    code, _, err = run(["tokenize", "--input", "/nope/missing.txt"])
    assert code == 2
    assert "/nope/missing.txt" in err


def test_invalid_json_line_exits_2(run):
    for line, where in [
        ('{"text": broken}', "column 10 (char 9)"),
        # columns count from the start of the line, not of the object
        ('  {"text": broken}', "column 12 (char 11)"),
        ('\t{"text": "A"} {}', "Extra data: line 1 column 16 (char 15)"),
    ]:
        code, _, err = run(["tokenize"], stdin=line + "\n")
        assert code == 2
        assert err.startswith("error: standard input: line 1: invalid JSON: ")
        assert err.endswith(f"{where}\n"), err


# nested past the recursion limit, so `json.loads` raises RecursionError
DEEP_JSON_LINE = '{"text": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_deeply_nested_document_exits_2(run):
    code, _, err = run(["tokenize"], stdin=DEEP_JSON_LINE + "\n")
    assert code == 2
    assert "line 1: invalid JSON" in err and "Traceback" not in err


def test_deeply_nested_gold_line_exits_2(run, index_path, tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(DEEP_JSON_LINE + "\n")
    code, _, err = run(["eval", "recall", "--index", index_path, "--gold", str(gold)])
    assert code == 2
    assert f"{gold}: line 1: invalid JSON" in err and "Traceback" not in err


def test_boolean_offsets_exit_2(run):
    line = ('{"text":"a","tokens":[{"start":false,"end":true}],'
            '"sentences":[{"first_token":false,"last_token":false}]}')
    code, out, err = run(["segment"], stdin=line + "\n")
    assert code == 2 and out == ""
    assert "line 1" in err and "token 0" in err


def test_bad_token_span_exits_2(run):
    line = '{"text":"cancer","tokens":[{"start":0,"end":99}],"leading_ws":""}'
    code, _, err = run(["abbrev"], stdin=line + "\n")
    assert code == 2
    assert "line 1" in err and "token 0" in err


def test_bad_sentence_span_exits_2(run):
    line = ('{"text":"Heat shock","tokens":[{"start":0,"end":4},{"start":5,"end":10}],'
            '"sentences":[{"first_token":0,"last_token":9}]}')
    code, _, err = run(["abbrev"], stdin=line + "\n")
    assert code == 2
    assert "line 1" in err and "sentence 0" in err


@pytest.mark.parametrize("line, message", [
    ('{"text": "ab", "tokens": [{"start": 0}]}', "token 0: needs 'start' and 'end'"),
    ('{"text": "ab", "tokens": [1]}', "token 0: needs 'start' and 'end'"),
    ('{"text": "ab", "tokens": null}', "'tokens' must be a list"),
    ('{"text": "ab", "sentences": [{"first_token": 0}]}',
     "sentence 0: needs 'first_token' and 'last_token'"),
    ('{"text": "ab", "tokens": [{"start": 5, "end": 9}, 7]}',
     "token 0: span [5, 9) is empty, past the end of the text (2) or overlaps the previous "
     "token"),
    ('{"tokens": []}', "'text' must be a string"),
    ('{"text": "A b", "mentions": [{"start": 0, "end": 1}, {"start": 0, "end": 9}]}',
     "mention 1: span [0, 9) is empty or past the end of the text (3)"),
    ('{"text": "A b", "mentions": [{"start": 0.5, "end": 1}]}',
     "mention 0: start and end must be integers"),
    ('{"text": "A b", "mentions": [5]}', "mention 0: needs 'start' and 'end'"),
], ids=["no end", "not an object", "tokens null", "no last_token", "first fault", "no text",
        "mention span", "mention not integers", "mention not an object"])
def test_malformed_document_names_its_field(run, line, message):
    code, out, err = run(["tokenize"], stdin=line + "\n")
    assert (code, out) == (2, "")
    assert err == f"error: standard input: line 1: malformed document: {message}\n"


def test_custom_rules_via_flag_and_env(run, tmp_path, monkeypatch):
    rules = tmp_path / "rules.txt"
    rules.write_text("INFIX @\n")
    code, out, _ = run(["tokenize", "--rules", str(rules)], stdin="a@b\n")
    (doc,) = out_lines(out)
    assert len(doc["tokens"]) == 3
    monkeypatch.setenv("BIOLING_RULES", str(rules))
    code, out, _ = run(["tokenize"], stdin="a@b\n")
    (doc,) = out_lines(out)
    assert len(doc["tokens"]) == 3


def test_empty_rules_flag_is_the_shipped_rules(run, tmp_path, monkeypatch):
    # the variable is the flag's default, which an explicit "" overrides
    rules = tmp_path / "rules.txt"
    rules.write_text("INFIX @\n")
    shipped = run(["tokenize"], stdin="a@b\n")
    monkeypatch.setenv("BIOLING_RULES", str(rules))
    assert run(["tokenize"], stdin="a@b\n") != shipped
    assert run(["tokenize", "--rules", ""], stdin="a@b\n") == shipped


def test_missing_seg_config_fails_only_the_commands_that_read_it(run, tmp_path, monkeypatch):
    missing = str(tmp_path / "missing.txt")
    monkeypatch.setenv("BIOLING_SEG_CONFIG", missing)
    code, out, err = run(["tokenize"], stdin="a b\n")
    assert (code, err) == (0, "")
    code, out, err = run(["segment"], stdin="a b\n")
    assert (code, out, err) == (2, "", f"error: {missing}: No such file or directory\n")


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", ["abbrev", "link"])
@pytest.mark.parametrize("flag, env, config, text, default_pairs", [
    ("--rules", "BIOLING_RULES", "INFIX .\nPREFIX (\nSUFFIX )\nSUFFIX .\n",
     "Tumor.Necrosis factor (TNF) rose. TNF fell.", 1),
    ("--seg-config", "BIOLING_SEG_CONFIG", "NOSPLIT factor.\n",
     "Mice got tumor necrosis factor. (TNF) rose. TNF fell.", 0),
], ids=["rules", "seg-config"])
def test_abbrev_and_link_apply_rules_and_seg_config(run, index_path, tmp_path, monkeypatch,
                                                     via, command, flag, env, config, text,
                                                     default_pairs):
    """Rules that split "Tumor.Necrosis" end a sentence inside the long form;
    a segmenter config that does not split after "factor." keeps it in the
    sentence of "(TNF)". Either way the document's one pair comes or goes,
    and with it the expansion of the mention of the last "TNF"."""
    path = tmp_path / "config.txt"
    path.write_text(config)
    at = text.rindex("TNF")
    line = json.dumps({"text": text, "mentions": [{"start": at, "end": at + 3}]}) + "\n"
    argv = [command] + (["--index", index_path] if command == "link" else [])

    def n_pairs(extra):
        code, out, err = run(argv + extra, stdin=line)
        assert code == 0, err
        if command == "abbrev":
            return len(out_lines(out))
        (linked,) = out_lines(out)
        return int(linked["query_text"] != "TNF")

    assert n_pairs([]) == default_pairs
    if via == "env":
        monkeypatch.setenv(env, str(path))
    assert n_pairs([flag, str(path)] if via == "flag" else []) == 1 - default_pairs


def test_bad_rules_file_exits_2(run, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("FROBNICATE x\n")
    code, _, err = run(["tokenize", "--rules", str(rules)], stdin="abc\n")
    assert code == 2
    assert "line 1" in err


def test_rules_literal_with_whitespace_exits_2(run, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("SUFFIX .\nPROTECT e. g.\n")
    code, out, err = run(["tokenize", "--rules", str(rules)], stdin="e. g.\n")
    assert code == 2
    assert out == ""
    assert "line 2: whitespace in protected literal 'e. g.'" in err


def test_seg_config_stoplist_with_whitespace_exits_2(run, tmp_path):
    config = tmp_path / "seg.txt"
    config.write_text("NOSPLIT al.\nNOSPLIT e. g.\n")
    code, out, err = run(["segment", "--seg-config", str(config)], stdin="See e. g. this.\n")
    assert code == 2
    assert out == ""
    assert "line 2: whitespace in stoplist literal 'e. g.'" in err


@pytest.mark.parametrize("command, flag", [("tokenize", "--rules"),
                                           ("segment", "--seg-config")])
@pytest.mark.parametrize("kind", ["not UTF-8", "directory"])
def test_unreadable_rules_file_exits_2(run, tmp_path, command, flag, kind):
    path = tmp_path / "rules"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"PREFIX \xff\n")
    code, _, err = run([command, flag, str(path)], stdin="abc\n")
    assert code == 2
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["tokenize"], ["segment"], ["abbrev"],
                                  ["kb", "validate"]])
def test_non_utf8_input_exits_2(run, tmp_path, argv):
    # line 1 is valid for the command, so the undecodable line 2 is the
    # first bad line
    first = (b'{"concept_id": "C1", "canonical_name": "fine"}' if argv[0] == "kb"
             else b'{"text": "fine"}')
    path = tmp_path / "input.jsonl"
    path.write_bytes(first + b"\n\xff\xfe\n")
    code, _, err = run(argv + ["--input", str(path)])
    assert code == 2
    assert f"{path}: line 2: not valid UTF-8" in err and "Traceback" not in err


_GOOD_GOLD = b'{"mention": "tumor", "concept_id": "C03"}'
_GOOD_CONCEPT = b'{"concept_id": "C1", "canonical_name": "A"}'
# the UTF-8 byte order mark, U+FEFF encoded
BOM = "\ufeff".encode()
# input -> (argv, with {path} for the file or "-", a good line 1, a bad line 2)
_LINE_INPUTS = {
    "document file": (["tokenize", "--input", "{path}"], b'{"text": "A"}',
                      b'{"text": "A", "tokens": [{"start": 0, "end": 9}]}'),
    "document stdin": (["abbrev", "--input", "{path}"], b"A line.", b'{"tokens": []}'),
    "pred documents": (["eval", "segmentation", "--pred", "{path}", "--gold", "{path}"],
                       b'{"text": ""}', b"raw text"),
    "mentions": (["link", "--index", "{index}", "--input", "{path}"], b'{"text": "A"}',
                 b'{"text": "A", "mentions": [{"start": 0, "end": 5}]}'),
    # the same concept twice: a duplicate concept_id
    "KB": (["kb", "validate", "--input", "{path}"], _GOOD_CONCEPT, _GOOD_CONCEPT),
    "gold": (["eval", "recall", "--index", "{index}", "--gold", "{path}"], _GOOD_GOLD,
             b'{"mention": "tumor"}'),
    "rules": (["tokenize", "--rules", "{path}", "--input", "{text}"], b"PREFIX (",
              b"FROBNICATE x"),
    "segmenter config": (["segment", "--seg-config", "{path}", "--input", "{text}"],
                         b"NOSPLIT al.", b"CITE_BRACKET yes"),
    "base sentences": (["eval", "citations", "--base", "{path}", "--n", "8"],
                       b"Mice were treated.", None),
    # a bench corpus is read as documents, mention spans checked as for link
    "bench corpus": (["bench", "--input", "{path}", "--reps", "1", "--warmup", "0"],
                     b"Mice were treated.",
                     b'{"text": "A", "mentions": [{"start": 0, "end": 5}]}'),
}  # any line that decodes is a valid base sentence


@pytest.mark.parametrize("kind, bad", [
    *((kind, "malformed") for kind, case in sorted(_LINE_INPUTS.items()) if case[2]),
    *((kind, "not UTF-8") for kind in sorted(_LINE_INPUTS)),
])
def test_bad_line_names_file_and_line(run, index_path, tmp_path, kind, bad):
    argv, good, malformed = _LINE_INPUTS[kind]
    content = good + b"\n" + (b"\xff" if bad == "not UTF-8" else malformed) + b"\n"
    text = tmp_path / "text.txt"
    text.write_text("A line.\n")
    if kind == "document stdin":
        path, name, stdin = "-", "standard input", content
    else:
        path = name = str(tmp_path / "input")
        pathlib.Path(path).write_bytes(content)
        stdin = ""
    code, _, err = run([a.format(path=path, index=index_path, text=text) for a in argv],
                       stdin=stdin)
    assert code == 2
    assert err.startswith(f"error: {name}: line 2: ") and "Traceback" not in err
    if bad == "not UTF-8":
        assert err == f"error: {name}: line 2: not valid UTF-8\n"


@pytest.mark.parametrize("kind", sorted(_LINE_INPUTS))
def test_blank_lines_and_crlf_ends_in_every_input(run, index_path, tmp_path, kind):
    # whitespace-only lines are skipped but counted, CR LF line ends read as
    # LF, and a UTF-8 byte order mark opening the input is dropped: the same
    # output, or the same error at the same line
    argv, good, malformed = _LINE_INPUTS[kind]
    text = tmp_path / "text.txt"
    text.write_text("A line (B) [1].\n")

    def run_lines(lines, end):
        content = b"".join(line + end for line in lines)
        path = tmp_path / "input"
        path.write_bytes(content)
        stdin = kind == "document stdin"
        code, out, err = run([a.format(path="-" if stdin else path, index=index_path, text=text)
                              for a in argv], stdin=content if stdin else b"")
        if kind == "bench corpus" and code == 0:  # its counts, not its times
            out = {k: v for k, v in json.loads(out).items() if k.startswith("n_")}
        return code, out, err

    lines = [b" \t", good, b"\x0c", b"\t\x0c"]
    result = run_lines(lines, b"\n")
    assert result[0] == 0, result
    assert run_lines(lines, b"\r\n") == result
    assert run_lines([BOM + good, *lines[2:]], b"\n") == result
    assert run_lines([BOM + lines[0], *lines[1:]], b"\r\n") == result
    # the malformed KB line is the good one again, bad only after it
    for bad in [b"\xff", *([malformed] if malformed not in (None, good) else [])]:
        lines = [b" \t", b"\x0c", bad]
        code, _, err = result = run_lines(lines, b"\n")
        assert code == 2 and ": line 3: " in err and "Traceback" not in err, err
        assert run_lines(lines, b"\r\n") == result
        assert run_lines([BOM + lines[0], *lines[1:]], b"\n") == result


@pytest.mark.parametrize("argv, line", [
    (["tokenize"], {"text": "IL-2 rose."}),
    (["kb", "validate", "--input", "-"], {"concept_id": "C1", "canonical_name": "A b"}),
    (["eval", "recall", "--index", "{index}", "--gold", "-"],
     {"mention": "tumor", "concept_id": "C03"}),
], ids=["document", "KB", "gold"])
def test_json_line_with_surrounding_whitespace(run, index_path, argv, line):
    # a form feed is whitespace to `str.strip` but not to JSON; a document
    # line that starts with one is still a document, not raw text
    argv = [a.format(index=index_path) for a in argv]
    expected = run(argv, stdin=json.dumps(line) + "\n")
    assert expected[0] == 0, expected
    for padded in (f"\x0c{json.dumps(line)}", f" \x0c{json.dumps(line)}\x0c\t\u3000"):
        assert run(argv, stdin=padded + "\n") == expected
    # a byte order mark opening standard input is not text before the object
    assert run(argv, stdin=BOM + json.dumps(line).encode() + b"\n") == expected


@pytest.mark.parametrize("min_df", ["0", "-3"])
def test_index_build_min_df_below_1_exits_1(run, tmp_path, min_df):
    # checked before the KB is read, so a missing KB is not reported
    code, _, err = run(["index", "build", "--kb", str(tmp_path / "missing.jsonl"),
                        "--min-df", min_df, "--output", str(tmp_path / "x.blix")])
    assert code == 1
    assert "--min-df" in err


@pytest.mark.parametrize("kb", ["toy", "missing"])
def test_index_build_to_stdout_exits_1(run, toy_kb_path, tmp_path, monkeypatch, kb):
    # an index is a file: "-" is refused before the KB is read, not written
    # as a file of that name
    monkeypatch.chdir(tmp_path)
    kb_path = toy_kb_path if kb == "toy" else str(tmp_path / "missing.jsonl")
    code, out, err = run(["index", "build", "--kb", kb_path, "--min-df", "1",
                          "--output", "-"])
    assert code == 1 and out == ""
    assert "argument --output: must be a file path other than '-'" in err
    assert "missing.jsonl" not in err and not (tmp_path / "-").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link to fifo"])
@pytest.mark.parametrize("kb", ["toy", "missing"])
def test_index_build_onto_a_fifo_exits_2(run, toy_kb_path, tmp_path, via_link, kb):
    # the build renames a new file over its target: a FIFO, or a symlink to
    # one, is refused before the KB is read, and left as it is
    fifo = tmp_path / "p"
    os.mkfifo(fifo)
    target = fifo
    if via_link:
        target = tmp_path / "link"
        target.symlink_to(fifo)
    kb_path = toy_kb_path if kb == "toy" else str(tmp_path / "missing.jsonl")
    code, out, err = run(["index", "build", "--kb", kb_path, "--min-df", "1",
                          "--output", str(target)])
    assert (code, out, err) == (2, "", f"error: --output {target}: not a regular file\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and target.resolve() == fifo
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"p", target.name})


@pytest.mark.parametrize("target", ["real.blix", "new.blix", "missing/new.blix"],
                         ids=["live link", "dangling link", "link into a missing directory"])
def test_index_build_through_a_symlink_writes_its_target(run, toy_kb_path, tmp_path, target):
    # the new file is renamed over the file the link names, so the link is kept
    (tmp_path / "real.blix").write_bytes(b"old")
    link = tmp_path / "link.blix"
    link.symlink_to(target)
    argv = ["index", "build", "--kb", toy_kb_path, "--min-df", "1", "--output"]
    assert run([*argv, str(tmp_path / "direct.blix")])[0] == 0
    code, _, err = run([*argv, str(link)])
    assert link.is_symlink() and os.readlink(link) == target
    names = {"direct.blix", "link.blix", "real.blix"}  # and no temporary file
    if target.startswith("missing/"):
        assert (code, err) == (2, f"error: {link}: No such file or directory\n")
    else:
        assert code == 0
        assert (tmp_path / target).read_bytes() == (tmp_path / "direct.blix").read_bytes()
        names.add(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


@pytest.mark.parametrize("command", [["link"], ["eval", "recall", "--gold", "gold.jsonl"],
                                     ["bench", "--input", "docs.txt"]],
                         ids=["link", "eval recall", "bench"])
def test_index_from_stdin_exits_1(run, tmp_path, monkeypatch, command):
    # an index is a file: "-" is refused, not opened as a file of that name
    monkeypatch.chdir(tmp_path)
    code, out, err = run([*command, "--index", "-"])
    assert code == 1 and out == ""
    assert "argument --index: must be a file path other than '-', got '-'" in err


@pytest.mark.parametrize("via", ["same path", "symlink", "hard link", "stdin"])
@pytest.mark.parametrize("command", ["tokenize", "segment", "abbrev", "link"])
def test_output_that_is_the_input_exits_2(run, capsys, index_path, tmp_path, monkeypatch,
                                          via, command):
    # opening --output for writing would empty the input before it is read
    path = tmp_path / "docs.txt"
    content = ('Tumor necrosis factor (TNF) rose.\n'
               '{"text": "TNF fell.", "mentions": [{"start": 0, "end": 3}]}\n')
    path.write_text(content)
    out = path
    if via == "symlink":
        out = tmp_path / "symlink.txt"
        out.symlink_to(path)
    elif via == "hard link":
        out = tmp_path / "hard_link.txt"
        os.link(path, out)
    argv = [command, "--output", str(out)] + (
        ["--index", index_path] if command == "link" else [])
    if via == "stdin":
        with open(path, encoding="utf-8") as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            code, err = main(argv), capsys.readouterr().err
    else:
        code, _, err = run(argv + ["--input", str(path)])
    assert code == 2
    assert f"error: --output {out} is the input file" in err and "Traceback" not in err
    assert path.read_text() == content


# the files of the cases below, by name
_READ_FILES = {"docs": "Tumor necrosis factor (TNF) rose.\n",
               "gold": '{"mention": "tumor", "concept_id": "C03"}\n',
               "rules": "PREFIX (\n", "seg config": "NOSPLIT al.\n"}


@pytest.mark.parametrize("argv, flag, env", [
    pytest.param(["index", "build", "--min-df", "1", "--kb", "{kb}"], "--kb", None,
                 id="index build --kb"),
    pytest.param(["eval", "recall", "--index", "{index}", "--gold", "{gold}"], "--gold", None,
                 id="eval recall --gold"),
    pytest.param(["eval", "recall", "--gold", "{gold}", "--index", "{index}"], "--index", None,
                 id="eval recall --index"),
    pytest.param(["link", "--input", "{docs}", "--index", "{index}"], "--index", None,
                 id="link --index"),
    pytest.param(["tokenize", "--input", "{docs}", "--rules", "{rules}"], "--rules", None,
                 id="tokenize --rules"),
    pytest.param(["segment", "--input", "{docs}", "--seg-config", "{seg config}"],
                 "--seg-config", None, id="segment --seg-config"),
    pytest.param(["abbrev", "--input", "{docs}"], "--seg-config", "BIOLING_SEG_CONFIG",
                 id="abbrev BIOLING_SEG_CONFIG"),
])
def test_output_that_another_input_reads_exits_2(run, toy_kb_path, index_path, tmp_path,
                                                 monkeypatch, argv, flag, env):
    # the output is the file `flag` reads, the last argument or else the one
    # `env` names: writing it would replace or empty that file
    contents = {name: text.encode() for name, text in _READ_FILES.items()}
    contents["kb"] = pathlib.Path(toy_kb_path).read_bytes()
    contents["index"] = pathlib.Path(index_path).read_bytes()
    paths = {name: tmp_path / name.replace(" ", "_") for name in contents}
    for name, data in contents.items():
        paths[name].write_bytes(data)
    read = paths["seg config"] if env else argv[-1].format_map(paths)
    if env:
        monkeypatch.setenv(env, str(read))
    code, _, err = run([a.format_map(paths) for a in argv] + ["--output", str(read)])
    assert code == 2
    assert f"error: --output {read} is the input file ({flag} {read})" in err
    assert "Traceback" not in err
    assert all(paths[name].read_bytes() == data for name, data in contents.items())


def _cli_process(argv: list[str], env: dict | None = None, **kwargs):
    """`bioling` run on `argv` in a new process, with this test's package and,
    unless `env` sets PYTHONUNBUFFERED, the buffered standard output a
    console script gets."""
    package_root = str(pathlib.Path(bioling.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": "", **(env or {}), "PYTHONPATH": package_root}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from bioling.cli import main; sys.exit(main())",
         *argv], env=env, **kwargs)


def test_stdout_appended_to_the_input_exits_2(tmp_path):
    # `bioling tokenize --input docs.txt >> docs.txt` would read its own
    # output back, growing the file without end
    path = tmp_path / "docs.txt"
    content = b"IL-2 (interleukin-2) rose.\n" * 400
    path.write_bytes(content)
    with open(path, "ab") as stdout:
        proc = _cli_process(["tokenize", "--input", str(path)], stdout=stdout,
                            stderr=subprocess.PIPE, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == f"error: standard output is the input file (--input {path})\n".encode()
    assert path.read_bytes() == content


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, target", [
    pytest.param(["tokenize", "--output", "/dev/full"], "--output /dev/full",
                 id="tokenize --output"),
    pytest.param(["tokenize"], "standard output", id="tokenize"),
    pytest.param(["kb", "stats", "--input", "{kb}"], "standard output", id="kb stats"),
    pytest.param(["segment", "--input", "{text}", "--output", "/dev/full"], "--output /dev/full",
                 id="segment --input --output"),
    pytest.param(["eval", "recall", "--index", "{index}", "--gold", "{gold}",
                  "--output", "/dev/full"], "--output /dev/full", id="eval recall --output")])
def test_write_error_exits_2(toy_kb_path, index_path, tmp_path, argv, target, unbuffered):
    # /dev/full fails every write with ENOSPC, as a full disk does; standard
    # output goes there too, where tokenize and kb stats write. Buffered, the
    # output is first written when flushed, after the command has returned.
    # The error names the output, which the OSError of a write does not.
    paths = {"kb": toy_kb_path, "index": index_path,
             "text": tmp_path / "docs.txt", "gold": tmp_path / "gold.jsonl"}
    paths["text"].write_text("IL-2 rose.\n")
    paths["gold"].write_bytes(_GOOD_GOLD + b"\n")
    with open("/dev/full", "wb") as full:
        proc = _cli_process([a.format(**paths) for a in argv], input=b"IL-2 rose.\n",
                            env={"PYTHONUNBUFFERED": unbuffered},
                            stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (
        2, f"error: {target}: No space left on device\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_0_quietly(unbuffered):
    # `bioling tokenize < docs | head -0`: the reader has gone, so writing
    # stops, without a message
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(["tokenize"], env={"PYTHONUNBUFFERED": unbuffered},
                            input=b"IL-2 rose.\n", stdout=write_end,
                            stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_device_as_input_and_output_runs(run):
    # only a regular file is emptied by writing it
    code, out, err = run(["tokenize", "--input", os.devnull, "--output", os.devnull])
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("command", ["index build", "tokenize"])
def test_output_in_missing_directory_exits_2(run, toy_kb_path, tmp_path, command):
    out = str(tmp_path / "no" / "such" / "dir" / "out")
    if command == "tokenize":
        code, _, err = run(["tokenize", "--output", out], stdin="abc\n")
    else:
        code, _, err = run(["index", "build", "--kb", toy_kb_path, "--min-df", "1",
                            "--output", out])
    # index build writes a temporary file beside `out` first, and names `out`
    assert (code, err) == (2, f"error: {out}: No such file or directory\n")


@pytest.mark.parametrize("argv", [
    ["tokenize", "--input"], ["kb", "validate", "--input"], ["kb", "stats", "--input"],
    ["link", "--index"], ["index", "build", "--output", "x.blix", "--kb"],
])
def test_directory_as_input_exits_2(run, tmp_path, argv):
    code, _, err = run(argv + [str(tmp_path)])
    assert code == 2
    assert f"{tmp_path}: Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["kb", "validate"], ["kb", "stats"],
                                  ["index", "build", "--output", "x.blix"]])
def test_lone_surrogate_in_kb_exits_2(run, tmp_path, argv):
    kb = tmp_path / "kb.jsonl"
    kb.write_text('{"concept_id": "C1", "canonical_name": "A"}\n'
                  '{"concept_id": "C2", "canonical_name": "B", "aliases": ["\\ud800"]}\n')
    flag = "--kb" if argv[0] == "index" else "--input"
    code, _, err = run(argv + [flag, str(kb)])
    assert code == 2
    assert "line 2: aliases is not valid UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "x.blix").exists()


def test_non_utf8_stdin_exits_2_under_c_locale():
    # a C locale decodes stdin with surrogateescape unless the CLI checks it
    proc = _cli_process(["tokenize"], env={"LC_ALL": "C", "PYTHONUTF8": "0"},
                        input=b'{"text": "fine"}\n\xff\n', capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert b"standard input: line 2: not valid UTF-8" in proc.stderr
    assert b"\xff" not in proc.stdout and b"Traceback" not in proc.stderr


def test_version_flag(run):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


# -- fuzz: any input line exits 0 or 2 ------------------------------------

# field names of documents, mentions, KB and gold lines, so generated
# objects often hold the right fields with the wrong types
_FIELDS = ["text", "tokens", "sentences", "mentions", "start", "end", "first_token",
           "last_token", "concept_id", "canonical_name", "aliases", "types",
           "definition", "mention"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4),
                                     inner, max_size=5)),
    max_leaves=16)
# rule file and segmenter config directives, so rule lines often parse
_DIRECTIVES = ["PREFIX", "SUFFIX", "INFIX", "PROTECT", "SPECIAL", "NOSPLIT",
               "CITE_BRACKET", "CITE_AUTHOR_YEAR"]
_LINES = (st.text() | _JSON.map(json.dumps)
          | st.tuples(st.sampled_from(_DIRECTIVES), st.text(max_size=8)).map(" ".join))
_TOY_BLIX = str(pathlib.Path(__file__).parent / "data" / "toy.blix")


def _fuzz_commands(path, text):
    """Each command reads `path` as one kind of input; `text` is a fixed
    document file for the commands that read `path` as rules."""
    return [["tokenize", "--input", path], ["segment", "--input", path],
            ["abbrev", "--input", path], ["link", "--index", _TOY_BLIX, "--input", path],
            ["eval", "recall", "--index", _TOY_BLIX, "--gold", path],
            ["eval", "segmentation", "--pred", path, "--gold", path],
            ["kb", "validate", "--input", path],
            ["tokenize", "--rules", path, "--input", text],
            ["segment", "--seg-config", path, "--input", text],
            ["bench", "--input", path, "--reps", "1", "--warmup", "0"],
            ["eval", "citations", "--base", path, "--n", "8"]]


@settings(max_examples=150, deadline=None)
@given(line=_LINES)
@example(line=DEEP_JSON_LINE)
@example(line='{"text": "\\ud800 x", "mentions": [{"start": 0, "end": 1}]}')
@example(line='{"text":"a","tokens":[{"start":false,"end":true}]}')
@example(line="Mice")  # a one-word base sentence
@example(line="SPECIAL (a) => (|a|)")
def test_any_input_line_exits_0_or_2(line):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.jsonl")
        # surrogatepass: a lone surrogate in `line` becomes bytes that are
        # not UTF-8
        with open(path, "wb") as fp:
            fp.write(line.encode("utf-8", "surrogatepass") + b"\n")
        text = os.path.join(directory, "text.txt")
        with open(text, "w", encoding="utf-8") as fp:
            fp.write("Heat shock protein (HSP) rose, e.g. 5-fold [1]. IL-2 fell.\n")
        for argv in _fuzz_commands(path, text):
            # strict UTF-8, as a real stdout, so unwritable output raises
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
                out.flush()
            assert code in (0, 2), argv
