"""The study scripts in scripts/ still import against the program: a renamed
name they use fails here, not only when a sweep is run by hand."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_seed_sweep_imports_as_a_module_without_running():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPTS / "seed_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)  # the sweep runs only under __main__
    assert callable(sweep.main_cli)
    assert sweep.SEEDS == (0, 1, 2, 3)
