"""Dataset directory writing, loading, and split hygiene."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from perceptqa.errors import StoreError
from perceptqa.qagen import GenConfig, generate_items, item_to_dict
from perceptqa.store import (
    _Lock,
    check_leakage,
    load_dataset,
    manifest_from_dict,
    manifest_to_dict,
    split_holdout,
    write_dataset,
)

from support import rendered_pool


@pytest.fixture(scope="module")
def corpus():
    """Six rendered charts, 24 items, two charts held out."""
    charts = rendered_pool(6)
    pairs = [(spec, geom) for spec, _, geom in charts]
    items, _ = generate_items(pairs, GenConfig(per_chart=4, seed=7))
    chart_ids = [spec.chart_id for spec, _, _ in charts]
    _, test_ids = split_holdout(chart_ids, seed=5, fraction=1 / 3)
    held = set(test_ids)
    items = [replace(i, split="test" if i.chart_id in held else "train")
             for i in items]
    return charts, items, test_ids


def _write(root, charts, items, holdout, **kw):
    """write_dataset over charts in chart_id order, each with its items;
    an item on no listed chart goes with the last chart."""
    charts = sorted(charts, key=lambda chart: chart[0].chart_id)
    by_chart = {spec.chart_id: [] for spec, _, _ in charts}
    for item in items:
        by_chart.get(item.chart_id, by_chart[charts[-1][0].chart_id]).append(
            item)
    stream = [(spec, svg, geom, by_chart.pop(spec.chart_id, []))
              for spec, svg, geom in charts]
    return write_dataset(root, "ds-test", stream, holdout,
                         config_digest="cfg0", tool_version="0.1.0", **kw)


# ---------------------------------------------------------------------------
# holdout split

def test_split_is_deterministic_and_order_free():
    ids = ["c3", "c1", "c2", "c4", "c0"]
    first = split_holdout(ids, seed=9, fraction=0.4)
    again = split_holdout(list(reversed(ids)), seed=9, fraction=0.4)
    assert first == again
    train, test = first
    assert sorted(train) == list(train) and sorted(test) == list(test)
    assert set(train) | set(test) == set(ids)
    assert set(train) & set(test) == set()


def test_split_fraction_rounds_to_count():
    ids = [f"c{i}" for i in range(10)]
    _, test = split_holdout(ids, seed=1, fraction=0.3)
    assert len(test) == 3


def test_split_count_zero_keeps_everything_in_train():
    train, test = split_holdout(["a", "b"], seed=0, fraction=0)
    assert test == ()
    assert train == ("a", "b")


def test_split_varies_with_seed():
    ids = [f"c{i}" for i in range(30)]
    picks = {split_holdout(ids, seed=s, fraction=1 / 3)[1] for s in range(6)}
    assert len(picks) > 1


def test_split_dedupes_ids():
    train, test = split_holdout(["a", "b", "a", "c"], seed=0, fraction=1 / 3)
    assert len(train) + len(test) == 3


def test_split_argument_validation():
    ids = ["a", "b", "c"]
    with pytest.raises(StoreError):
        split_holdout(ids, seed=0, fraction=1.0)
    with pytest.raises(StoreError):
        split_holdout(ids, seed=0, fraction=-0.1)
    with pytest.raises(StoreError, match="no training data"):
        split_holdout(ids, seed=0, fraction=0.9)
    with pytest.raises(StoreError):
        split_holdout([], seed=0, fraction=0)


# ---------------------------------------------------------------------------
# leakage

def test_check_leakage_passes_clean_split(corpus):
    _, items, test_ids = corpus
    check_leakage(items, test_ids)


def test_check_leakage_catches_train_item_on_held_out_chart(corpus):
    _, items, test_ids = corpus
    bad = next(i for i in items if i.split == "test")
    with pytest.raises(StoreError, match="leakage"):
        check_leakage([replace(bad, split="train")], test_ids)


def test_check_leakage_catches_test_item_off_the_holdout(corpus):
    _, items, test_ids = corpus
    bad = next(i for i in items if i.split == "train")
    with pytest.raises(StoreError, match="leakage"):
        check_leakage([replace(bad, split="test")], test_ids)


# ---------------------------------------------------------------------------
# writing and loading

def test_write_then_load_round_trip(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    manifest = _write(root, charts, items, test_ids)

    assert manifest.train_size + manifest.test_size == len(items)
    assert manifest.holdout_chart_ids == tuple(sorted(test_ids))
    assert sum(manifest.counts.values()) == len(items)
    for spec, _, _ in charts:
        for ext in (".json", ".svg", ".geom.json"):
            assert (root / "charts" / f"{spec.chart_id}{ext}").is_file()

    ds = load_dataset(root)
    assert ds.manifest == manifest
    assert set(ds.charts) == {spec.chart_id for spec, _, _ in charts}
    assert set(ds.geoms) == set(ds.charts)
    assert ({i.qa_id: item_to_dict(i) for i in ds.items}
            == {i.qa_id: item_to_dict(i) for i in items})
    assert ds.review_rows == ()


def test_manifest_covers_every_written_file(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    manifest = _write(root, charts, items, test_ids)
    on_disk = {
        str(p.relative_to(root))
        for p in root.rglob("*") if p.is_file()
    } - {"manifest.json"}
    assert on_disk == set(manifest.file_digests)
    for rel, digest in manifest.file_digests.items():
        data = (root / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_write_is_byte_stable(corpus, tmp_path):
    charts, items, test_ids = corpus
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, charts, items, test_ids)
    _write(b, charts, items, test_ids)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_load_detects_corruption(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    victim = next((root / "charts").glob("*.svg"))
    victim.write_text(victim.read_text("utf-8") + " ", "utf-8")
    with pytest.raises(StoreError, match="digest mismatch"):
        load_dataset(root)
    # unverified loads skip digests but nothing else
    ds = load_dataset(root, verify=False)
    assert len(ds.items) == len(items)


@pytest.mark.parametrize("stray", ["qa/position.jsonl.tmp", "charts/x.svg"])
def test_load_rejects_unlisted_files(corpus, tmp_path, stray):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    load_dataset(root)  # the clean build passes
    (root / stray).write_text("left over\n", "utf-8")
    with pytest.raises(StoreError, match=f"unlisted file {stray}") as err:
        load_dataset(root)
    assert "\n" not in str(err.value)
    # unverified loads do not look for them
    assert len(load_dataset(root, verify=False).items) == len(items)


def test_load_detects_count_drift(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    path = root / "manifest.json"
    doc = json.loads(path.read_text("utf-8"))
    fam = next(f for f, n in doc["counts"].items() if n > 0)
    doc["counts"][fam] += 1
    path.write_text(json.dumps(doc, indent=2) + "\n", "utf-8")
    with pytest.raises(StoreError, match="manifest says"):
        load_dataset(root)


def test_load_checks_leakage_even_without_verify(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    path = root / "manifest.json"
    doc = json.loads(path.read_text("utf-8"))
    train_chart = next(i.chart_id for i in items if i.split == "train")
    doc["holdout_chart_ids"] = sorted(set(doc["holdout_chart_ids"])
                                      | {train_chart})
    path.write_text(json.dumps(doc, indent=2) + "\n", "utf-8")
    with pytest.raises(StoreError, match="leakage"):
        load_dataset(root, verify=False)


@pytest.mark.parametrize("row", ["{broken", "{}", "[1, 2]"])
def test_malformed_family_line_is_a_one_line_store_error(corpus, tmp_path,
                                                         row):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    path = root / "qa" / f"{items[0].family}.jsonl"
    lines = path.read_text("utf-8").splitlines()
    path.write_text("\n".join(lines + [row]) + "\n", "utf-8")
    with pytest.raises(StoreError) as err:
        load_dataset(root, verify=False)
    assert str(err.value).startswith(f"{path}:{len(lines) + 1}: ")
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_family_line_may_hold_unicode_line_separators(corpus, tmp_path,
                                                      separator):
    """A JSON string may hold a raw U+2028, U+2029 or U+0085; the row
    stays one line, and later line numbers stay right."""
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    path = root / "qa" / f"{items[0].family}.jsonl"
    lines = path.read_text("utf-8").split("\n")[:-1]
    row = json.loads(lines[0])
    row["question"] = row["question"].replace(" ", separator, 1)
    lines[0] = json.dumps(row, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", "utf-8")
    loaded = {i.qa_id: i for i in load_dataset(root, verify=False).items}
    assert loaded[row["qa_id"]].question == row["question"]

    path.write_text("\n".join(lines + ["{broken"]) + "\n", "utf-8")
    with pytest.raises(StoreError) as err:
        load_dataset(root, verify=False)
    assert str(err.value).startswith(f"{path}:{len(lines) + 1}: ")


def test_tampered_family_file_is_a_digest_mismatch_before_malformed(
        corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    path = root / "qa" / f"{items[0].family}.jsonl"
    path.write_text("{broken\n" + path.read_text("utf-8"), "utf-8")
    with pytest.raises(StoreError, match="digest mismatch for qa/"):
        load_dataset(root)
    with pytest.raises(StoreError, match=f"^{path}:1: malformed"):
        load_dataset(root, verify=False)


@pytest.mark.parametrize("victim", ["manifest.json", "chart", "geom",
                                    "review_queue.jsonl"])
def test_malformed_json_file_is_a_one_line_store_error(corpus, tmp_path,
                                                       victim):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids)
    path = {
        "chart": next(p for p in (root / "charts").glob("*.json")
                      if not p.name.endswith(".geom.json")),
        "geom": next((root / "charts").glob("*.geom.json")),
    }.get(victim, root / victim)
    path.write_text('["not", "an", "object"]\n', "utf-8")
    with pytest.raises(StoreError) as err:
        load_dataset(root, verify=False)
    assert str(err.value).startswith(str(path))
    assert "\n" not in str(err.value)


def test_load_requires_manifest(tmp_path):
    with pytest.raises(StoreError, match="manifest"):
        load_dataset(tmp_path)


def test_review_rows_round_trip(corpus, tmp_path):
    charts, items, test_ids = corpus
    rows = [
        {"qa_id": items[0].qa_id, "status": "needs_review",
         "answers": ["41", "42"]},
        {"qa_id": items[1].qa_id, "status": "needs_review",
         "answers": ["B", "C"]},
    ]
    root = tmp_path / "ds"
    _write(root, charts, items, test_ids, review_rows=rows)
    ds = load_dataset(root)
    assert list(ds.review_rows) == rows


def test_manifest_dict_round_trip(corpus, tmp_path):
    charts, items, test_ids = corpus
    manifest = _write(tmp_path / "ds", charts, items, test_ids)
    assert manifest_from_dict(manifest_to_dict(manifest)) == manifest


# ---------------------------------------------------------------------------
# write-time validation: nothing lands on disk when inputs are bad

def test_write_refuses_duplicate_qa_id(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    with pytest.raises(StoreError, match="duplicate qa_id"):
        _write(root, charts, items + [items[0]], test_ids)
    assert not root.exists()


def test_write_refuses_dangling_chart_reference(corpus, tmp_path):
    charts, items, test_ids = corpus
    ghost = replace(items[0], qa_id="ghost-extract-001", chart_id="ghost")
    with pytest.raises(StoreError, match="missing chart"):
        _write(tmp_path / "ds", charts, items + [ghost], test_ids)


def test_write_refuses_duplicate_question_text(corpus, tmp_path):
    charts, items, test_ids = corpus
    twin = replace(items[0], qa_id=items[0].qa_id + "-b",
                   question="  " + items[0].question.upper())
    with pytest.raises(StoreError, match="duplicate question"):
        _write(tmp_path / "ds", charts, items + [twin], test_ids)


def test_write_refuses_unknown_family(corpus, tmp_path):
    charts, items, test_ids = corpus
    bad = replace(items[0], qa_id=items[0].qa_id + "-b", family="layout",
                  question="Which layout is used?")
    with pytest.raises(StoreError, match="unknown family"):
        _write(tmp_path / "ds", charts, items + [bad], test_ids)


def test_write_refuses_duplicate_chart_ids(corpus, tmp_path):
    charts, items, test_ids = corpus
    with pytest.raises(StoreError, match="duplicate chart_id"):
        _write(tmp_path / "ds", charts + [charts[0]], items, test_ids)


def test_write_refuses_unknown_holdout_id(corpus, tmp_path):
    charts, items, test_ids = corpus
    with pytest.raises(StoreError, match="not in chart list"):
        _write(tmp_path / "ds", charts, items, list(test_ids) + ["nope"])


def test_write_refuses_leaky_split(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    all_train = [replace(i, split="train") for i in items]
    with pytest.raises(StoreError, match="leakage"):
        _write(root, charts, all_train, test_ids)
    assert not root.exists()


def test_write_respects_existing_lock(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    root.mkdir()
    (root / ".lock").touch()
    with pytest.raises(StoreError, match="locked by another writer"):
        _write(root, charts, items, test_ids)
    (root / ".lock").unlink()
    _write(root, charts, items, test_ids)
    assert not (root / ".lock").exists()


def test_failed_rename_surfaces_and_leaves_no_temp_file(corpus, tmp_path,
                                                       monkeypatch):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    renamed = []

    def refuse(src, dst):
        renamed.append((Path(src), Path(dst)))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="No space left on device"):
        _write(root, charts, items, test_ids)
    monkeypatch.undo()

    (src, dst), = renamed
    writer = f"{os.getpid()}-{threading.get_ident()}"
    assert src.name == f"{dst.name}.{writer}.tmp"
    assert list(root.rglob("*.tmp")) == []
    assert not (root / ".lock").exists()


def test_lock_records_the_writer_pid(tmp_path):
    with _Lock(tmp_path):
        assert (tmp_path / ".lock").read_text("ascii") == f"{os.getpid()}\n"
    assert not (tmp_path / ".lock").exists()


def test_lock_error_names_a_live_writer(corpus, tmp_path):
    charts, items, test_ids = corpus
    root = tmp_path / "ds"
    root.mkdir()
    (root / ".lock").write_text(f"{os.getpid()}\n", "ascii")
    with pytest.raises(StoreError, match=f"pid {os.getpid()}, still running"):
        _write(root, charts, items, test_ids)


def test_lock_error_names_a_dead_writer(corpus, tmp_path):
    charts, items, test_ids = corpus
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    assert proc.wait(timeout=60) == 0  # reaped, so its pid names no process
    root = tmp_path / "ds"
    root.mkdir()
    (root / ".lock").write_text(f"{proc.pid}\n", "ascii")
    with pytest.raises(StoreError,
                       match=f"pid {proc.pid}, no longer running") as err:
        _write(root, charts, items, test_ids)
    assert "remove .lock" in str(err.value)
    assert (root / ".lock").exists()


# ---------------------------------------------------------------------------
# memory: JSONL files pass through one line at a time

@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """Eight charts at 40 items each, written: its family files are far
    larger than any chart file."""
    charts = rendered_pool(8)
    items, _ = generate_items([(spec, geom) for spec, _, geom in charts],
                              GenConfig(per_chart=40, seed=3))
    root = tmp_path_factory.mktemp("wide") / "ds"
    _write(root, charts, items, ())
    largest = max(p.stat().st_size for p in root.rglob("*") if p.is_file())
    assert largest == max(p.stat().st_size for p in root.glob("qa/*.jsonl"))
    return charts, items, root, largest


def _held_beyond_result(fn):
    """Call fn() under tracemalloc; return the most memory it held at
    once beyond what it still held when it returned."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 - what it returns is held, not transient
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def test_write_dataset_never_holds_a_whole_family_file(wide, tmp_path):
    charts, items, _, largest = wide
    held = _held_beyond_result(
        lambda: _write(tmp_path / "ds", charts, items, ()))
    assert held < largest


def test_load_dataset_never_holds_a_whole_family_file(wide):
    _, items, root, largest = wide
    held = _held_beyond_result(lambda: load_dataset(root))
    assert held < largest
