import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """The session builds regimelab's C kernels in its own temporary
    directory, for itself and the commands it starts, not in the user's cache."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


def subprocess_env(**extra: str) -> dict[str, str]:
    """This process's environment, with the imported regimelab's source directory
    first on PYTHONPATH, and `extra` set: for a subprocess that runs regimelab."""
    import regimelab

    src = str(Path(regimelab.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **extra}


def make_price_path(closes, start="2000-01-03"):
    """PricePath with sequential synthetic dates."""
    from regimelab.dataio import PricePath

    closes = np.asarray(closes, dtype=float)
    dates = np.datetime64(start, "D") + np.arange(closes.size)
    return PricePath(dates, closes)


def _parse_cell(s: str):
    if s == "":
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def read_table(path: str | Path) -> list[dict]:
    """Read back a table written by write_table (CSV or JSON by extension)."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [{c: _parse_cell(v) for c, v in zip(header, row)} for row in reader]


@pytest.fixture
def triangle_path():
    """100 -> linear decline to 70 over 50 steps -> linear rise to 100 over 150 steps."""
    down = np.linspace(100.0, 70.0, 51)
    up = np.linspace(70.0, 100.0, 151)
    return make_price_path(np.concatenate([down, up[1:]]))
