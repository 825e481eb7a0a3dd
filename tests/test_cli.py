import json
import os
import pathlib
import subprocess
import sys

import pytest

import bioling
from bioling.cli import main
from bioling.index import build_index, save_index
from bioling.vectorizer import NgramVectorizer

from conftest import BLIX_CORRUPTIONS, write_corrupt_blix


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(argv, stdin=""):
        import io
        import sys
        # a byte stream under a text wrapper, as the real stdin is
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
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
    code, _, err = run(["link", "--index", index_path], stdin=doc_line + "\n")
    assert code == 2
    assert "out of range" in err


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
    assert f"{gold}:2" in err and field in err and "Traceback" not in err


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
        "--reps", "1", "--warmup", "0", "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["n_docs"] == 3
    assert report["stages"] == ["tokenize", "segment", "abbrev", "link"]


def test_bench_link_without_index_exits_1(run, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("A sentence.\n")
    code, _, err = run(["bench", "--input", str(corpus), "--stages", "link"])
    assert code == 1


def test_unknown_command_exits_1(run):
    assert run(["frobnicate"])[0] == 1


def test_missing_input_file_exits_2(run):
    code, _, err = run(["tokenize", "--input", "/nope/missing.txt"])
    assert code == 2
    assert "/nope/missing.txt" in err


def test_invalid_json_line_exits_2(run):
    code, _, err = run(["tokenize"], stdin='{"text": broken}\n')
    assert code == 2
    assert "line 1" in err


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


def test_bad_rules_file_exits_2(run, tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("FROBNICATE x\n")
    code, _, err = run(["tokenize", "--rules", str(rules)], stdin="abc\n")
    assert code == 2
    assert "line 1" in err


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


NOT_UTF8 = b'{"text": "fine"}\n\xff\xfe\n'


@pytest.mark.parametrize("argv", [["tokenize"], ["segment"], ["abbrev"],
                                  ["kb", "validate"]])
def test_non_utf8_input_exits_2(run, tmp_path, argv):
    path = tmp_path / "input.jsonl"
    path.write_bytes(NOT_UTF8)
    code, _, err = run(argv + ["--input", str(path)])
    assert code == 2
    assert f"{path}:2:" in err or f"{path}: line 2:" in err
    assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("min_df", ["0", "-3"])
def test_index_build_min_df_below_1_exits_1(run, tmp_path, min_df):
    # checked before the KB is read, so a missing KB is not reported
    code, _, err = run(["index", "build", "--kb", str(tmp_path / "missing.jsonl"),
                        "--min-df", min_df, "--output", str(tmp_path / "x.blix")])
    assert code == 1
    assert "--min-df" in err


@pytest.mark.parametrize("command", ["index build", "tokenize"])
def test_output_in_missing_directory_exits_2(run, toy_kb_path, tmp_path, command):
    out = str(tmp_path / "no" / "such" / "dir" / "out")
    if command == "tokenize":
        code, _, err = run(["tokenize", "--output", out], stdin="abc\n")
    else:
        code, _, err = run(["index", "build", "--kb", toy_kb_path, "--min-df", "1",
                            "--output", out])
    assert code == 2
    assert out in err and "Traceback" not in err


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
    package_root = str(pathlib.Path(bioling.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": package_root}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bioling.cli import main; sys.exit(main())",
         "tokenize"],
        input=b'{"text": "fine"}\n\xff\n', capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert b"standard input:2: not valid UTF-8" in proc.stderr
    assert b"\xff" not in proc.stdout and b"Traceback" not in proc.stderr


def test_version_flag(run):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
