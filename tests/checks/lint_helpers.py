"""Helpers for the repro-lint test suite.

Two project-building styles:

* :func:`make_project` writes hand-written fixture files into a scratch
  ``src/repro`` layout — used to trip each rule on minimal examples;
* the ``real_tree_copy`` fixture (see ``conftest.py``) copies the real
  files a cross-file checker reads into the scratch layout — used by the
  mutation tests, which delete one field or ingredient with
  :func:`mutate` and assert the checker notices.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro.checks.base import Project

REPO_ROOT = Path(__file__).resolve().parents[2]

#: What the cache-key checker reads: the config surface, the key
#: derivation, and an engine module full of real config reads.
CROSS_FILE_INPUTS = (
    "src/repro/pipeline/config.py",
    "src/repro/engine/accel/compiled.py",
    "src/repro/analysis/cache.py",
)


def make_project(root: Path, files: Dict[str, str]) -> Project:
    """Materialise ``files`` (repo-relative path -> text) under ``root``."""
    (root / "src" / "repro").mkdir(parents=True, exist_ok=True)
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return Project(root)


def copy_real_inputs(root: Path) -> Path:
    """Seed ``root`` with the real cross-file checker inputs."""
    for rel in CROSS_FILE_INPUTS:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO_ROOT / rel).read_text(encoding="utf-8"),
                          encoding="utf-8")
    return root


def mutate(root: Path, rel: str, old: str, new: str) -> None:
    """Replace ``old`` with ``new`` in one scratch-project file (must
    match exactly once, so a refactor of the real file fails loudly
    here instead of silently testing nothing)."""
    path = root / rel
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{rel}: expected exactly one {old!r}"
    path.write_text(text.replace(old, new), encoding="utf-8")
