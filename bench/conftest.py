import sys
from pathlib import Path

# the benchmark's own tests import eventnilm from this checkout, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
