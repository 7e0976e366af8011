"""The README's configuration block is the default config, key for key."""

import json
import pathlib
import re

from emap.orchestrator import RunConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_is_the_default_config():
    section = README.read_text(encoding="utf-8").split(
        "\n## Configuration\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == RunConfig().to_dict()
