"""The README's configuration block is the default config, key for key,
and its store paragraph describes the store format `mdb` writes."""

import json
import pathlib
import re

from emap import mdb
from emap.orchestrator import RunConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_is_the_default_config():
    section = README.read_text(encoding="utf-8").split(
        "\n## Configuration\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == RunConfig().to_dict()


def test_readme_store_paragraph_names_the_format_and_payload():
    section = README.read_text(encoding="utf-8").split("\n**Store**", 1)[1]
    paragraph = section.split("\n\n", 1)[0]
    assert f"format {mdb.FORMAT_VERSION})" in paragraph
    assert f"`format_version` ({mdb.FORMAT_VERSION})" in paragraph
    assert f"`{mdb.PAYLOAD_FILE}`" in paragraph
