import pathlib
import re

import agediff

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_usage_block():
    text = README.read_text()
    section = text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Library usage section should hold one python block"
    return blocks[0]


def test_library_usage_example_runs(capsys):
    namespace = {}
    exec(compile(library_usage_block(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) <= 1e-10
    assert len(printed) == 1 + 3
    assert isinstance(namespace["solution"], agediff.GridFunction)
    assert len(namespace["births"]) == namespace["grid"].n_steps + 1
