"""Dataset persistence.

A dataset is a directory: chart specs, rendered SVGs, and geometry maps
under charts/, one JSONL file per task family under qa/, a manifest with
per-file content digests, and a review queue for disputed labels.  A
dataset is written and read one chart, and one row, at a time.  Every
file is written through a temp file and renamed into place, the manifest
last, under a lock file, and verified against the manifest on load.
Nothing in the layout depends on the clock, so identical inputs produce
byte-identical datasets.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .charts import ChartSpec, dumps_chart, loads_chart
from .errors import SpecValidationError, StoreError
from .qagen import QAItem, _normalize_question, item_from_dict, item_to_dict
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
                  fraction: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition chart ids into (train, test) held-out sets.

    The split is a pure function of the id set and the seed: order of the
    input list does not matter.  The test set holds round(fraction * n)
    of the n distinct ids and may not swallow every chart.
    """
    ids = sorted(set(chart_ids))
    if not ids:
        raise StoreError("cannot split an empty chart list")
    if not 0 <= fraction < 1:
        raise StoreError(f"holdout fraction {fraction} outside [0, 1)")
    n_test = int(round(len(ids) * fraction))
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


def _check_split(item: QAItem, held) -> None:
    if item.split == "train" and item.chart_id in held:
        raise StoreError(
            f"leakage: train item {item.qa_id} references held-out "
            f"chart {item.chart_id}")
    if item.split == "test" and item.chart_id not in held:
        raise StoreError(
            f"leakage: test item {item.qa_id} references non-held-out "
            f"chart {item.chart_id}")


def check_leakage(items: list[QAItem], holdout_chart_ids) -> None:
    """A train item on a held-out chart is label leakage; abort."""
    held = set(holdout_chart_ids)
    for item in items:
        _check_split(item, held)


def _check_item(item: QAItem, chart_ids, held, qa_ids: set,
                questions: set) -> None:
    """Check one item as it streams past: its chart must be in chart_ids,
    its split must match held, and its id and its question on that chart
    must be new to qa_ids and questions, which record them."""
    if item.qa_id in qa_ids:
        raise StoreError(f"duplicate qa_id {item.qa_id}")
    qa_ids.add(item.qa_id)
    if item.chart_id not in chart_ids:
        raise StoreError(
            f"item {item.qa_id} references missing chart {item.chart_id}")
    qkey = (item.chart_id, _normalize_question(item.question))
    if qkey in questions:
        raise StoreError(
            f"duplicate question on chart {item.chart_id}: "
            f"{item.question!r}")
    questions.add(qkey)
    if item.family not in FAMILIES:
        raise StoreError(f"item {item.qa_id} has unknown family {item.family!r}")
    _check_split(item, held)


# ---------------------------------------------------------------------------
# writing

def _cannot_write(path: Path, exc: OSError) -> StoreError:
    return StoreError(f"cannot write {path}: {exc.strerror or exc}")


def make_dir(path: Path) -> None:
    """Create path and its parents unless it exists; a failure is a
    one-line StoreError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


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
        except OSError as exc:
            raise _cannot_write(self.path, exc) from None
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


class AtomicFile:
    """A file written in binary through a temp file and hashed as it is
    written.  Leaving the with block renames it into place; an error in
    the block, or in the rename, removes the temp file instead.  A file
    that cannot be written is a one-line StoreError naming its path."""

    def __init__(self, path: Path):
        self.path = path
        # one temp name per writer, as in the gateway's cache
        self.tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        self.sha256 = hashlib.sha256()

    def __enter__(self):
        try:
            self._fh = open(self.tmp, "wb")
        except OSError as exc:
            raise _cannot_write(self.path, exc) from None
        return self

    def write(self, data: bytes) -> None:
        try:
            self._fh.write(data)
        except OSError as exc:
            raise _cannot_write(self.path, exc) from None
        self.sha256.update(data)

    def __exit__(self, exc_type, *_):
        renamed = False
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self.tmp, self.path)
                renamed = True
        except OSError as exc:
            raise _cannot_write(self.path, exc) from None
        finally:
            if not renamed:
                self.tmp.unlink(missing_ok=True)
        return False


def _atomic_write(path: Path, data: bytes) -> str:
    """Write data to path through a temp file; return its sha256."""
    with AtomicFile(path) as fh:
        fh.write(data)
    return fh.sha256.hexdigest()


def _jsonl_line(row: dict) -> bytes:
    return (json.dumps(row) + "\n").encode("utf-8")


def write_chart_files(root: Path, spec: ChartSpec, svg: str,
                      geom: GeometryMap) -> dict[str, str]:
    """Write a chart's spec, SVG and geometry under root's chart directory;
    return the sha256 of each file by its path relative to root."""
    base = f"{CHART_DIR}/{spec.chart_id}"
    return {
        rel: _atomic_write(root / rel, text.encode("utf-8"))
        for rel, text in ((f"{base}.json", dumps_chart(spec)),
                          (f"{base}.svg", svg),
                          (f"{base}.geom.json", dumps_geom(geom)))
    }


def _append_charts(root: Path, charts, held, families: dict,
                   digests: dict) -> tuple[dict, int]:
    """Write each chart's files, then check its items and append them to
    the open family files; return the item count per family and the
    number of train items."""
    counts = {fam: 0 for fam in FAMILIES}
    last = {fam: "" for fam in FAMILIES}  # the last qa_id in each file
    chart_ids: set[str] = set()
    qa_ids: set[str] = set()
    train_size = 0
    for spec, svg, geom, items in charts:
        chart_id = spec.chart_id
        if chart_id in chart_ids:
            raise StoreError(f"duplicate chart_id in chart list: {chart_id}")
        chart_ids.add(chart_id)
        questions: set = set()
        for item in items:
            _check_item(item, (chart_id,), held, qa_ids, questions)
        digests.update(write_chart_files(root, spec, svg, geom))
        for item in sorted(items, key=attrgetter("qa_id")):
            fam = item.family
            if item.qa_id <= last[fam]:
                raise StoreError(f"{fam} rows out of qa_id order: "
                                 f"{item.qa_id} after {last[fam]}")
            last[fam] = item.qa_id
            families[fam].write(_jsonl_line(item_to_dict(item)))
            counts[fam] += 1
            train_size += item.split == "train"
    unknown = held - chart_ids
    if unknown:
        raise StoreError(f"held-out ids not in chart list: {sorted(unknown)}")
    return counts, train_size


def write_dataset(
    root: str | Path,
    dataset_id: str,
    charts,
    holdout_chart_ids,
    config_digest: str,
    tool_version: str,
    template_hashes: dict | None = None,
    review_rows: list[dict] | None = None,
) -> DatasetManifest:
    """Write a complete dataset directory and return its manifest.

    charts yields one (spec, svg_text, geometry, items) tuple per chart,
    in chart_id order, where items are that chart's QAItems; each chart
    is written before the next is drawn, so one chart is held at a time.
    A duplicate id or question, an item on another chart, an unknown
    family, split leakage, a family file whose qa_ids would not strictly
    increase, a repeated chart or a held-out id that names no chart
    aborts the write.  The family files and then the manifest land last.
    A failed write leaves no manifest and no temp file, and removes root
    if this call created it.
    """
    root = Path(root)
    held = set(holdout_chart_ids)
    created = not root.exists()
    make_dir(root)
    try:
        with _Lock(root):
            # until the new manifest lands the directory is not a dataset
            (root / MANIFEST_NAME).unlink(missing_ok=True)
            make_dir(root / CHART_DIR)
            make_dir(root / QA_DIR)
            digests: dict[str, str] = {}
            with ExitStack() as stack:
                families = {fam: stack.enter_context(
                    AtomicFile(root / QA_DIR / f"{fam}.jsonl"))
                    for fam in FAMILIES}
                counts, train_size = _append_charts(root, charts, held,
                                                    families, digests)
            for fam, fh in families.items():
                digests[f"{QA_DIR}/{fam}.jsonl"] = fh.sha256.hexdigest()
            with AtomicFile(root / REVIEW_NAME) as fh:
                for row in review_rows or ():
                    fh.write(_jsonl_line(row))
            digests[REVIEW_NAME] = fh.sha256.hexdigest()

            manifest = DatasetManifest(
                dataset_id=dataset_id,
                counts=counts,
                train_size=train_size,
                test_size=sum(counts.values()) - train_size,
                holdout_chart_ids=tuple(sorted(held)),
                config_digest=config_digest,
                template_hashes=dict(template_hashes or {}),
                tool_version=tool_version,
                file_digests=digests,
            )
            payload = json.dumps(manifest_to_dict(manifest), indent=2) + "\n"
            _atomic_write(root / MANIFEST_NAME, payload.encode("utf-8"))
    except BaseException:
        if created:
            shutil.rmtree(root, ignore_errors=True)
        raise
    return manifest


# ---------------------------------------------------------------------------
# loading

# what parsing a malformed file or row raises: from the UTF-8 or JSON
# decoder, from the row readers indexing into the wrong shape, from a
# row check refusing a field, or from the chart spec check
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError,
              ArithmeticError, SpecValidationError)


def _open(path, buffering: int = -1):
    try:
        return open(path, "rb", buffering=buffering)
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc.strerror or exc}") from None


def _check_digest(rel: str, digests: dict, actual: str) -> None:
    expected = digests[rel]
    if actual != expected:
        raise StoreError(
            f"digest mismatch for {rel}: manifest {expected[:12]}..., "
            f"file {actual[:12]}...")


def _read_listed(root: Path, rel: str, digests: dict | None) -> bytes:
    """The bytes of one file the manifest lists, checked against its
    digest when digests is given."""
    # a str path: building a Path per file costs about a third of what
    # reading a chart file does
    with _open(f"{root}/{rel}", buffering=0) as fh:
        data = fh.read()
    if digests is not None:
        _check_digest(rel, digests, _sha256_bytes(data))
    return data


def _malformed(where, exc: Exception) -> StoreError:
    return StoreError(f"{where}: malformed ({type(exc).__name__}: {exc})")


def _parse(parse, data: bytes, path: Path):
    """parse(the UTF-8 text of data), with malformed input ending in a
    one-line StoreError that names the file."""
    try:
        return parse(data.decode("utf-8"))
    except _MALFORMED as exc:
        raise _malformed(path, exc) from None


def read_jsonl(path: Path, parse, check_digest=None):
    """Yield parse(obj) for the JSON object on each non-blank line of the
    JSONL file at path; a line that is not UTF-8, not JSON or not an
    object, or that parse rejects with one of _MALFORMED, ends in a
    one-line StoreError naming path:line.

    The file is read and hashed one line at a time, so no whole file is
    held.  A line ends only at a line feed: a JSON string may hold U+2028
    and the other separators that str.splitlines() splits at.  When
    given, check_digest(sha256) is called once the file is read, also
    when a line failed first, so a tampered file is reported as such."""
    digest = hashlib.sha256()
    with _open(path) as fh:
        try:
            for n, line in enumerate(fh, start=1):
                digest.update(line)
                if line.isspace():
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                    if type(obj) is not dict:
                        raise TypeError("expected a JSON object")
                    value = parse(obj)
                except _MALFORMED as exc:
                    raise _malformed(f"{path}:{n}", exc) from None
                yield value
        except StoreError:
            if check_digest is not None:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(chunk)
                check_digest(digest.hexdigest())
            raise
    if check_digest is not None:
        check_digest(digest.hexdigest())


def _chart_file(rel: str) -> tuple[str, bool] | None:
    """For a file at charts/<chart_id>.json or charts/<chart_id>.geom.json
    under a dataset root, its chart id and whether it is a geometry map;
    None for any other file (an SVG)."""
    if not rel.startswith(f"{CHART_DIR}/"):
        return None
    name = rel[len(CHART_DIR) + 1:]
    if name.endswith(".geom.json"):
        return name[:-len(".geom.json")], True
    if name.endswith(".json"):
        return name[:-len(".json")], False
    return None


def read_chart_file(root: Path, rel: str, digests: dict | None = None):
    """The chart spec at root/charts/<chart_id>.json, or the geometry map
    at root/charts/<chart_id>.geom.json, checked to carry <chart_id> and,
    when digests is given, against its digest.  A spec must also pass
    the chart spec check."""
    chart_id, is_geom = _chart_file(rel)
    path = root / rel
    chart = _parse(loads_geom if is_geom else loads_chart,
                   _read_listed(root, rel, digests), path)
    if chart.chart_id != chart_id:
        raise StoreError(
            f"{path}: chart_id {chart.chart_id!r} does not match its file name")
    return chart


class DatasetReader:
    """A dataset directory read back one file at a time.

    Opening it reads the manifest, takes the chart ids from the names of
    the chart specs it lists (charts/<chart_id>.json) and, with verify,
    rejects any file under charts/ or qa/ that the manifest does not
    list.  Then, in any order: charts() yields every chart spec and
    geometry map, or check_charts() only checks the chart files'
    digests; items(fam) yields one family file's items, each checked as
    it is parsed (ids, questions, chart, family, split, qa_id order),
    and checks the file's count once it is read; review_rows() yields the
    review queue.  A file that fails its digest is reported as such even
    when one of its rows failed a check first.  verify=False skips the
    digests and the unlisted files, not the row checks.
    """

    def __init__(self, root: str | Path, verify: bool = True):
        self.root = root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"no {MANIFEST_NAME} under {root}")
        self.manifest = _parse(
            lambda text: manifest_from_dict(json.loads(text)),
            manifest_path.read_bytes(), manifest_path)
        listed = self.manifest.file_digests
        self.digests = listed if verify else None
        self.held = set(self.manifest.holdout_chart_ids)
        # every listed file that items() and review_rows() do not read:
        # the chart files, and any other the manifest names
        family_files = {f"{QA_DIR}/{fam}.jsonl" for fam in FAMILIES}
        self._other_files = [rel for rel in sorted(listed)
                             if rel not in family_files and rel != REVIEW_NAME]
        chart_files = filter(None, map(_chart_file, self._other_files))
        self.chart_ids = {chart_id for chart_id, is_geom in chart_files
                          if not is_geom}
        self.qa_ids: set[str] = set()
        self.questions: set = set()
        if verify:
            for sub in (CHART_DIR, QA_DIR):
                for dirpath, _, names in os.walk(root / sub):
                    base = Path(dirpath).relative_to(root).as_posix()
                    for name in sorted(names):
                        if f"{base}/{name}" not in listed:
                            raise StoreError(
                                f"unlisted file {base}/{name}: the manifest "
                                f"holds no digest for it")

    def check_charts(self) -> None:
        """Check the digest of every listed file that charts() reads,
        parsing none of them."""
        if self.digests is not None:
            for rel in self._other_files:
                _read_listed(self.root, rel, self.digests)

    def charts(self):
        """Yield every chart spec and geometry map, each checked to carry
        the chart id its file name does; a listed file that nothing parses
        (an SVG) is read only to check its digest."""
        root, digests = self.root, self.digests
        for rel in self._other_files:
            if _chart_file(rel) is not None:
                yield read_chart_file(root, rel, digests)
            elif digests is not None:
                _read_listed(root, rel, digests)

    def _rows(self, rel: str, parse):
        """read_jsonl over a listed file, checked against its digest
        unless verify is off."""
        check_digest = (None if self.digests is None
                        else partial(_check_digest, rel, self.digests))
        return read_jsonl(self.root / rel, parse, check_digest)

    def items(self, fam: str):
        rel = f"{QA_DIR}/{fam}.jsonl"
        if rel not in self.manifest.file_digests:
            return
        path = self.root / rel
        last = ""

        def parse(row: dict) -> QAItem:
            nonlocal last
            item = item_from_dict(row)
            if item.family != fam:
                raise StoreError(
                    f"{path.name} holds an item of family {item.family!r}")
            if item.qa_id <= last:
                raise StoreError(
                    f"{path.name}: qa_id {item.qa_id} after {last}")
            last = item.qa_id
            _check_item(item, self.chart_ids, self.held, self.qa_ids,
                        self.questions)
            return item

        count = 0
        for item in self._rows(rel, parse):
            count += 1
            yield item
        expected = self.manifest.counts.get(fam, 0)
        if count != expected:
            raise StoreError(
                f"{path.name}: {count} items, manifest says {expected}")

    def review_rows(self):
        if REVIEW_NAME in self.manifest.file_digests:
            yield from self._rows(REVIEW_NAME, dict)


@dataclass(frozen=True)
class Dataset:
    manifest: DatasetManifest
    charts: dict          # chart_id -> ChartSpec
    geoms: dict           # chart_id -> GeometryMap
    items: tuple          # all QAItems, family files concatenated
    review_rows: tuple


def load_dataset(root: str | Path, verify: bool = True) -> Dataset:
    """Read a whole dataset directory back through a DatasetReader, so
    with the same checks.  Every file the manifest lists is read once."""
    reader = DatasetReader(root, verify)
    charts: dict[str, ChartSpec] = {}
    geoms: dict[str, GeometryMap] = {}
    for chart in reader.charts():
        (geoms if isinstance(chart, GeometryMap) else charts)[
            chart.chart_id] = chart
    items = tuple(chain.from_iterable(map(reader.items, FAMILIES)))
    return Dataset(
        manifest=reader.manifest,
        charts=charts,
        geoms=geoms,
        items=items,
        review_rows=tuple(reader.review_rows()),
    )
