"""README's Caches table against the caches in src/bzk: every
functools.lru_cache has a row, with its maxsize, and every row names one."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _lru_caches():
    """{"module.function": maxsize} of every lru_cache-decorated function in
    src/bzk, read from the source."""
    caches = {}
    for path in sorted((ROOT / "src" / "bzk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                if ast.unparse(call.func if call else deco) not in ("lru_cache",
                                                                   "functools.lru_cache"):
                    continue
                given = call.args[:1] + [k.value for k in call.keywords
                                         if k.arg == "maxsize"] if call else []
                # 128 is lru_cache's default
                caches[f"{path.stem}.{node.name}"] = ast.literal_eval(given[0]) if given else 128
    return caches


def _caches_table():
    """{"module.function": maxsize} of the rows of README's Caches table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Caches\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (\w+) \|", section, flags=re.MULTILINE)
    return {name: None if size == "None" else int(size) for name, size in rows}


def test_every_lru_cache_has_a_caches_row():
    caches = _lru_caches()
    assert "series._exp_reduced" in caches and "zeta._f_power_table" in caches
    assert _caches_table() == caches
