import re
import types
from pathlib import Path

import pytest

import blochpair
from blochpair import coherence, quantum

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE_DIR = Path(blochpair.__file__).resolve().parent
#: density-matrix oracles that live in tests/oracles.py, not in the package
MOVED = ("partial_trace_a", "partial_trace_b", "purity", "is_density_matrix", "gksl_rhs", "IDENTITY_4", "ab_slot")


def readme_public_api() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    return re.findall(r"\w+", block)


def test_all_matches_readme():
    assert blochpair.__all__ == sorted(blochpair.__all__) == readme_public_api()


def test_every_public_name_resolves():
    namespace = {}
    exec("from blochpair import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(blochpair.__all__)
    assert len(blochpair.__all__) == len(set(blochpair.__all__))


def test_no_submodule_in_all():
    assert [name for name in blochpair.__all__ if isinstance(getattr(blochpair, name), types.ModuleType)] == []


@pytest.mark.parametrize("name", MOVED)
def test_oracles_are_not_in_the_package(name):
    assert name not in blochpair.__all__
    for module in (blochpair, quantum, coherence):
        assert not hasattr(module, name)


def test_one_all_in_the_package():
    spelled = [p.name for p in sorted(PACKAGE_DIR.glob("*.py")) if re.search(r"^__all__\b", p.read_text(), re.M)]
    assert spelled == ["__init__.py"]
