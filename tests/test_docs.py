"""README.md agrees with the package: one short Layout row per module, and
the `search` keys that the config schema takes."""

import re
from pathlib import Path

from bmtas.schema import CONFIG_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
LAYOUT_WORDS = 300


def readme_section(title: str) -> str:
    """The section from its heading up to the next one."""
    readme = (ROOT / "README.md").read_text()
    return f"## {title}\n" + readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_layout_has_one_row_per_module_and_few_words():
    layout = readme_section("Layout")
    rows = re.findall(r"^\| `(\w+\.py)` \|", layout, re.M)
    package = ROOT / "src" / "bmtas"
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(rows) == sorted(modules)
    assert len(layout.split()) <= LAYOUT_WORDS


def test_readme_lists_the_search_keys_of_the_schema():
    text = readme_section("Command line")
    listing = re.search(r"The optional `search` section takes these keys: (.*?)\.\s", text, re.S)
    assert listing, "the Command line section lists no search keys"
    keys = re.findall(r"`(\w+)`", listing[1])
    assert len(keys) == len(set(keys))
    assert set(keys) == set(CONFIG_SCHEMA["properties"]["search"]["properties"])
