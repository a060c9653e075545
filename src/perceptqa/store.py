"""Dataset persistence.

A dataset is a directory: chart specs, rendered SVGs, and geometry maps
under charts/, one JSONL file per task family under qa/, a manifest with
per-file content digests, and a review queue for disputed labels.  Writes
are atomic (temp file then rename), guarded by a lock file, and verified
against the manifest on load.  Nothing in the layout depends on the
clock, so identical inputs produce byte-identical datasets.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .charts import ChartSpec, dumps_chart, loads_chart
from .errors import StoreError
from .qagen import QAItem, item_from_dict, item_to_dict
from .queries import FAMILIES
from .render import GeometryMap, dumps_geom, loads_geom

MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".lock"
QA_DIR = "qa"
CHART_DIR = "charts"
REVIEW_NAME = "review_queue.jsonl"


@dataclass(frozen=True)
class DatasetManifest:
    dataset_id: str
    counts: dict                 # family -> item count
    train_size: int
    test_size: int
    holdout_chart_ids: tuple[str, ...]
    config_digest: str
    template_hashes: dict        # template_id -> sha256, empty for synthetic runs
    tool_version: str
    file_digests: dict = field(default_factory=dict)  # relpath -> sha256


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _normalize_question(text: str) -> str:
    return " ".join(text.split()).casefold()


def manifest_to_dict(m: DatasetManifest) -> dict:
    return {
        "dataset_id": m.dataset_id,
        "counts": {k: m.counts[k] for k in sorted(m.counts)},
        "train_size": m.train_size,
        "test_size": m.test_size,
        "holdout_chart_ids": sorted(m.holdout_chart_ids),
        "config_digest": m.config_digest,
        "template_hashes": {k: m.template_hashes[k]
                            for k in sorted(m.template_hashes)},
        "tool_version": m.tool_version,
        "file_digests": {k: m.file_digests[k] for k in sorted(m.file_digests)},
    }


def manifest_from_dict(d: dict) -> DatasetManifest:
    return DatasetManifest(
        dataset_id=d["dataset_id"],
        counts=dict(d["counts"]),
        train_size=d["train_size"],
        test_size=d["test_size"],
        holdout_chart_ids=tuple(d["holdout_chart_ids"]),
        config_digest=d["config_digest"],
        template_hashes=dict(d["template_hashes"]),
        tool_version=d["tool_version"],
        file_digests=dict(d["file_digests"]),
    )


# ---------------------------------------------------------------------------
# holdout split

def split_holdout(chart_ids: list[str], seed: int,
                  fraction: float | None = None,
                  count: int | None = None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition chart ids into (train, test) held-out sets.

    The split is a pure function of the id set and the seed: order of the
    input list does not matter.  Exactly one of fraction/count selects
    the test size; the test set may not swallow every chart.
    """
    ids = sorted(set(chart_ids))
    if not ids:
        raise StoreError("cannot split an empty chart list")
    if (fraction is None) == (count is None):
        raise StoreError("pass exactly one of fraction or count")
    if fraction is not None:
        if not 0 <= fraction < 1:
            raise StoreError(f"holdout fraction {fraction} outside [0, 1)")
        n_test = int(round(len(ids) * fraction))
    else:
        n_test = count
    if n_test < 0:
        raise StoreError(f"negative holdout count {n_test}")
    if n_test >= len(ids):
        raise StoreError(
            f"holdout of {n_test} charts would leave no training data "
            f"({len(ids)} total)")
    rng = random.Random(seed)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    test = tuple(sorted(shuffled[:n_test]))
    train = tuple(sorted(shuffled[n_test:]))
    return train, test


def check_leakage(items: list[QAItem], holdout_chart_ids) -> None:
    """A train item on a held-out chart is label leakage; abort."""
    held = set(holdout_chart_ids)
    for item in items:
        if item.split == "train" and item.chart_id in held:
            raise StoreError(
                f"leakage: train item {item.qa_id} references held-out "
                f"chart {item.chart_id}")
        if item.split == "test" and item.chart_id not in held:
            raise StoreError(
                f"leakage: test item {item.qa_id} references non-held-out "
                f"chart {item.chart_id}")


# ---------------------------------------------------------------------------
# writing

def _lock_holder(path: Path) -> str:
    """Name the writer a lock file records, and say whether it still runs."""
    try:
        pid = int(path.read_text("ascii"))
    except (OSError, UnicodeDecodeError, ValueError):
        pid = 0
    if pid <= 0:
        return f"no pid recorded; remove {LOCK_NAME} if that writer crashed"
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return f"pid {pid}, no longer running; remove {LOCK_NAME}"
    except PermissionError:
        pass  # the process exists, under another user
    return f"pid {pid}, still running"


class _Lock:
    """Exclusive right to write one dataset directory; the lock file
    holds the writer's pid."""

    def __init__(self, root: Path):
        self.path = root / LOCK_NAME

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreError(
                f"dataset {self.path.parent} is locked by another writer "
                f"({_lock_holder(self.path)})")
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return False


def _atomic_write(path: Path, data: bytes) -> str:
    # one temp name per writer, as in the gateway's cache; a failed write
    # or rename leaves no temp file behind
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return _sha256_bytes(data)


def _validate_items(items: list[QAItem], chart_ids: set[str]) -> None:
    seen_ids: set[str] = set()
    seen_questions: set[tuple[str, str]] = set()
    for item in items:
        if item.qa_id in seen_ids:
            raise StoreError(f"duplicate qa_id {item.qa_id}")
        seen_ids.add(item.qa_id)
        if item.chart_id not in chart_ids:
            raise StoreError(
                f"item {item.qa_id} references missing chart {item.chart_id}")
        qkey = (item.chart_id, _normalize_question(item.question))
        if qkey in seen_questions:
            raise StoreError(
                f"duplicate question on chart {item.chart_id}: "
                f"{item.question!r}")
        seen_questions.add(qkey)
        if item.family not in FAMILIES:
            raise StoreError(f"item {item.qa_id} has unknown family {item.family!r}")


def write_dataset(
    root: str | Path,
    dataset_id: str,
    charts: list[tuple[ChartSpec, str, GeometryMap]],
    items: list[QAItem],
    holdout_chart_ids,
    config_digest: str,
    tool_version: str,
    template_hashes: dict | None = None,
    review_rows: list[dict] | None = None,
) -> DatasetManifest:
    """Write a complete dataset directory and return its manifest.

    charts carries (spec, svg_text, geometry) triples.  All validation
    runs before the first byte lands: dangling chart references,
    duplicate ids, duplicate questions, and split leakage all abort the
    write.
    """
    root = Path(root)
    chart_ids = {spec.chart_id for spec, _, _ in charts}
    if len(chart_ids) != len(charts):
        raise StoreError("duplicate chart_id in chart list")
    unknown = set(holdout_chart_ids) - chart_ids
    if unknown:
        raise StoreError(f"held-out ids not in chart list: {sorted(unknown)}")
    _validate_items(items, chart_ids)
    check_leakage(items, holdout_chart_ids)

    counts = {fam: 0 for fam in FAMILIES}
    for item in items:
        counts[item.family] += 1
    train_size = sum(1 for i in items if i.split == "train")
    test_size = len(items) - train_size

    root.mkdir(parents=True, exist_ok=True)
    with _Lock(root):
        digests: dict[str, str] = {}
        (root / CHART_DIR).mkdir(exist_ok=True)
        (root / QA_DIR).mkdir(exist_ok=True)

        for spec, svg, geom in sorted(charts, key=lambda t: t[0].chart_id):
            base = f"{CHART_DIR}/{spec.chart_id}"
            digests[f"{base}.json"] = _atomic_write(
                root / f"{base}.json", dumps_chart(spec).encode("utf-8"))
            digests[f"{base}.svg"] = _atomic_write(
                root / f"{base}.svg", svg.encode("utf-8"))
            digests[f"{base}.geom.json"] = _atomic_write(
                root / f"{base}.geom.json", dumps_geom(geom).encode("utf-8"))

        by_family: dict[str, list[QAItem]] = {fam: [] for fam in FAMILIES}
        for item in items:
            by_family[item.family].append(item)
        for fam in FAMILIES:
            rows = sorted(by_family[fam], key=lambda i: i.qa_id)
            text = "".join(
                json.dumps(item_to_dict(i), separators=(", ", ": ")) + "\n"
                for i in rows
            )
            rel = f"{QA_DIR}/{fam}.jsonl"
            digests[rel] = _atomic_write(root / rel, text.encode("utf-8"))
            if len(rows) != counts[fam]:
                raise StoreError(
                    f"count drift for {fam}: {len(rows)} != {counts[fam]}")

        review_text = "".join(
            json.dumps(row, separators=(", ", ": ")) + "\n"
            for row in (review_rows or [])
        )
        digests[REVIEW_NAME] = _atomic_write(
            root / REVIEW_NAME, review_text.encode("utf-8"))

        manifest = DatasetManifest(
            dataset_id=dataset_id,
            counts=counts,
            train_size=train_size,
            test_size=test_size,
            holdout_chart_ids=tuple(sorted(holdout_chart_ids)),
            config_digest=config_digest,
            template_hashes=dict(template_hashes or {}),
            tool_version=tool_version,
            file_digests=digests,
        )
        payload = json.dumps(manifest_to_dict(manifest), indent=2) + "\n"
        _atomic_write(root / MANIFEST_NAME, payload.encode("utf-8"))
    return manifest


# ---------------------------------------------------------------------------
# loading

# what parsing a malformed file or row raises, from the JSON decoder or
# from the row readers indexing into the wrong shape
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError,
              ArithmeticError)


def _read_text(path: Path) -> str:
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise StoreError(f"{path}: not UTF-8 text: {exc}") from None


def _parse(parse, text: str, path: Path, line: int | None = None):
    """parse(text), with malformed input ending in a one-line StoreError
    that names the file, and the line when given."""
    try:
        return parse(text)
    except _MALFORMED as exc:
        where = path if line is None else f"{path}:{line}"
        raise StoreError(
            f"{where}: malformed ({type(exc).__name__}: {exc})") from None


def _json_object(text: str) -> dict:
    row = json.loads(text)
    if not isinstance(row, dict):
        raise TypeError("expected a JSON object")
    return row


def _read_jsonl(path: Path, parse):
    """Yield parse(line) for every non-blank line, naming path:line on
    a malformed one."""
    for n, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip():
            yield _parse(parse, line, path, n)


@dataclass(frozen=True)
class Dataset:
    manifest: DatasetManifest
    charts: dict          # chart_id -> ChartSpec
    geoms: dict           # chart_id -> GeometryMap
    items: tuple          # all QAItems, family files concatenated
    review_rows: tuple


def load_dataset(root: str | Path, verify: bool = True) -> Dataset:
    """Read a dataset directory back, verifying digests and split
    hygiene.  verify=False skips digest checks (not the leakage check,
    which always runs)."""
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreError(f"no {MANIFEST_NAME} under {root}")
    manifest = _parse(lambda text: manifest_from_dict(json.loads(text)),
                      _read_text(manifest_path), manifest_path)

    if verify:
        for rel, expected in manifest.file_digests.items():
            path = root / rel
            if not path.is_file():
                raise StoreError(f"manifest lists missing file {rel}")
            actual = _sha256_bytes(path.read_bytes())
            if actual != expected:
                raise StoreError(
                    f"digest mismatch for {rel}: manifest {expected[:12]}..., "
                    f"file {actual[:12]}...")

    charts: dict[str, ChartSpec] = {}
    geoms: dict[str, GeometryMap] = {}
    for path in sorted((root / CHART_DIR).glob("*.json")):
        if path.name.endswith(".geom.json"):
            geom = _parse(loads_geom, _read_text(path), path)
            geoms[geom.chart_id] = geom
        else:
            spec = _parse(loads_chart, _read_text(path), path)
            charts[spec.chart_id] = spec

    items: list[QAItem] = []
    for fam in FAMILIES:
        path = root / QA_DIR / f"{fam}.jsonl"
        if not path.is_file():
            continue
        count = 0
        for item in _read_jsonl(
                path, lambda line: item_from_dict(json.loads(line))):
            if item.family != fam:
                raise StoreError(
                    f"{path.name} holds an item of family {item.family!r}")
            items.append(item)
            count += 1
        expected = manifest.counts.get(fam, 0)
        if count != expected:
            raise StoreError(
                f"{path.name}: {count} items, manifest says {expected}")

    _validate_items(items, set(charts))
    check_leakage(items, manifest.holdout_chart_ids)

    review_rows: list[dict] = []
    review_path = root / REVIEW_NAME
    if review_path.is_file():
        review_rows.extend(_read_jsonl(review_path, _json_object))

    return Dataset(
        manifest=manifest,
        charts=charts,
        geoms=geoms,
        items=tuple(items),
        review_rows=tuple(review_rows),
    )
