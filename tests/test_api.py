"""The public API is no larger than the command line and the tests need."""

import re
from pathlib import Path

import icand

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used():
    sources = [ROOT / "src" / "icand" / "cli.py"]
    sources += [p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unused = [n for n in icand.__all__ if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert unused == []
