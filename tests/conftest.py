import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# the `gps` subprocesses the tests start import the package from this checkout
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
