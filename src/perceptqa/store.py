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


def _atomic_write(path: Path, chunks) -> str:
    """Write the byte chunks to path through a temp file and rename it
    into place; return the sha256 of what was written."""
    # one temp name per writer, as in the gateway's cache; a failed write
    # or rename leaves no temp file behind
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _jsonl_chunks(rows):
    """One encoded JSONL line per row."""
    for row in rows:
        yield (json.dumps(row, separators=(", ", ": ")) + "\n").encode("utf-8")


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
            for rel, text in ((f"{base}.json", dumps_chart(spec)),
                              (f"{base}.svg", svg),
                              (f"{base}.geom.json", dumps_geom(geom))):
                digests[rel] = _atomic_write(root / rel,
                                             (text.encode("utf-8"),))

        by_family: dict[str, list[QAItem]] = {fam: [] for fam in FAMILIES}
        for item in items:
            by_family[item.family].append(item)
        for fam in FAMILIES:
            rows = sorted(by_family[fam], key=lambda i: i.qa_id)
            rel = f"{QA_DIR}/{fam}.jsonl"
            digests[rel] = _atomic_write(
                root / rel, _jsonl_chunks(map(item_to_dict, rows)))
            if len(rows) != counts[fam]:
                raise StoreError(
                    f"count drift for {fam}: {len(rows)} != {counts[fam]}")

        digests[REVIEW_NAME] = _atomic_write(
            root / REVIEW_NAME, _jsonl_chunks(review_rows or ()))

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
        _atomic_write(root / MANIFEST_NAME, (payload.encode("utf-8"),))
    return manifest


# ---------------------------------------------------------------------------
# loading

# what parsing a malformed file or row raises, from the JSON decoder or
# from the row readers indexing into the wrong shape
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError,
              ArithmeticError)


def _open_listed(root: Path, rel: str):
    try:
        return open(root / rel, "rb")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise StoreError(f"manifest lists missing file {rel}") from None


def _check_digest(rel: str, digests: dict, actual: str) -> None:
    expected = digests[rel]
    if actual != expected:
        raise StoreError(
            f"digest mismatch for {rel}: manifest {expected[:12]}..., "
            f"file {actual[:12]}...")


def _read_listed(root: Path, rel: str, digests: dict | None) -> bytes:
    """The bytes of one file the manifest lists, checked against its
    digest when digests is given."""
    with _open_listed(root, rel) as fh:
        data = fh.read()
    if digests is not None:
        _check_digest(rel, digests, _sha256_bytes(data))
    return data


def _decode(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
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


def _listed_rows(root: Path, rel: str, digests: dict | None, parse):
    """Yield parse(line) for every non-blank line of a listed JSONL file,
    naming path:line on a malformed one.

    The file is read and hashed one line at a time, so no whole file is
    held.  A line ends only at a line feed: a JSON string may hold U+2028
    and the other separators that str.splitlines() splits at.  With digests,
    a file that fails its digest is reported as such, also when a line
    of it failed to parse first."""
    path = root / rel
    digest = hashlib.sha256()

    def parse_line(line: bytes):
        return parse(line.decode("utf-8"))

    with _open_listed(root, rel) as fh:
        try:
            for n, line in enumerate(fh, start=1):
                digest.update(line)
                if not line.isspace():
                    yield _parse(parse_line, line, path, n)
        except StoreError:
            if digests is not None:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(chunk)
                _check_digest(rel, digests, digest.hexdigest())
            raise
    if digests is not None:
        _check_digest(rel, digests, digest.hexdigest())


def _family_item(fam: str, path: Path):
    """A row parser for one family file: the row as a QAItem, which must
    belong to that family."""
    def parse(text: str) -> QAItem:
        item = item_from_dict(json.loads(text))
        if item.family != fam:
            raise StoreError(
                f"{path.name} holds an item of family {item.family!r}")
        return item
    return parse


@dataclass(frozen=True)
class Dataset:
    manifest: DatasetManifest
    charts: dict          # chart_id -> ChartSpec
    geoms: dict           # chart_id -> GeometryMap
    items: tuple          # all QAItems, family files concatenated
    review_rows: tuple


def load_dataset(root: str | Path, verify: bool = True) -> Dataset:
    """Read a dataset directory back, verifying digests and split
    hygiene.  Every file the manifest lists is read once: a chart file
    whole, its digest checked before it is parsed; a JSONL file line by
    line, hashed as it is parsed.  Verification also rejects
    any file under charts/ or qa/ that the manifest does not list.
    verify=False skips both checks (not the leakage check, which always
    runs)."""
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreError(f"no {MANIFEST_NAME} under {root}")
    manifest = _parse(lambda text: manifest_from_dict(json.loads(text)),
                      _decode(manifest_path.read_bytes(), manifest_path),
                      manifest_path)
    listed = manifest.file_digests
    digests = listed if verify else None

    if verify:
        for sub in (CHART_DIR, QA_DIR):
            for dirpath, _, names in os.walk(root / sub):
                base = Path(dirpath).relative_to(root).as_posix()
                for name in sorted(names):
                    if f"{base}/{name}" not in listed:
                        raise StoreError(
                            f"unlisted file {base}/{name}: the manifest "
                            f"holds no digest for it")

    # chart specs and geometry are parsed; a listed file that nothing
    # parses (an SVG) is read only to check its digest
    charts: dict[str, ChartSpec] = {}
    geoms: dict[str, GeometryMap] = {}
    qa_rels = {f"{QA_DIR}/{fam}.jsonl" for fam in FAMILIES}
    for rel in sorted(listed):
        if rel.startswith(f"{CHART_DIR}/") and rel.endswith(".json"):
            path = root / rel
            text = _decode(_read_listed(root, rel, digests), path)
            if rel.endswith(".geom.json"):
                geom = _parse(loads_geom, text, path)
                geoms[geom.chart_id] = geom
            else:
                spec = _parse(loads_chart, text, path)
                charts[spec.chart_id] = spec
        elif verify and rel not in qa_rels and rel != REVIEW_NAME:
            _read_listed(root, rel, digests)

    items: list[QAItem] = []
    for fam in FAMILIES:
        rel = f"{QA_DIR}/{fam}.jsonl"
        if rel not in listed:
            continue
        path = root / rel
        before = len(items)
        items.extend(_listed_rows(root, rel, digests, _family_item(fam, path)))
        count, expected = len(items) - before, manifest.counts.get(fam, 0)
        if count != expected:
            raise StoreError(
                f"{path.name}: {count} items, manifest says {expected}")

    _validate_items(items, set(charts))
    check_leakage(items, manifest.holdout_chart_ids)

    review_rows: tuple = ()
    if REVIEW_NAME in listed:
        review_rows = tuple(_listed_rows(root, REVIEW_NAME, digests,
                                         _json_object))

    return Dataset(
        manifest=manifest,
        charts=charts,
        geoms=geoms,
        items=tuple(items),
        review_rows=review_rows,
    )
