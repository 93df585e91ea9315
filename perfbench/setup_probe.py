"""The survey's set-up, alone: import, generate the history, build engines.

Usage: ``python3 perfbench/setup_probe.py SEED``

Builds and freezes both engine configurations of the survey (EasyList +
Acceptable Ads, and EasyList only) through the public functions, then
exits.  The parent times the whole process, from spawn to exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.history.generator import generate_history  # noqa: E402
from repro.measurement.survey import build_engines  # noqa: E402

if __name__ == "__main__":
    history = generate_history(seed=int(sys.argv[1]), key_bits=128)
    build_engines(history, with_whitelist=True)
    build_engines(history, with_whitelist=False)
