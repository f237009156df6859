import sys
from pathlib import Path

# The benchmark's modules are imported by name, as run.py imports them, and
# poltrans from the checkout's sources.
BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
