"""The top-level package as README presents it."""

import importlib
import pkgutil
import re
from pathlib import Path

import l2calib

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_api_block_runs(capsys):
    section = README.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "True" in capsys.readouterr().out  # the efficiency gap is PSD


def test_every_exported_name_imports_and_is_in_readme():
    namespace = {}
    exec("from l2calib import *", namespace)
    assert set(l2calib.__all__) <= set(namespace)
    assert [n for n in l2calib.__all__ if not re.search(rf"\b{n}\b", README)] == []


def test_every_module_name_cited_in_readme_exists():
    # `rkhs.KrrModel` or `numerics.scan(objective, thetas)`: a stale citation
    # of a renamed or deleted name fails here
    modules = "|".join(m.name for m in pkgutil.iter_modules(l2calib.__path__))
    cited = set(re.findall(rf"`({modules})\.(\w+)[`(]", README))
    assert len(cited) >= 8
    missing = [f"{mod}.{name}" for mod, name in sorted(cited)
               if not hasattr(importlib.import_module(f"l2calib.{mod}"), name)]
    assert missing == []
