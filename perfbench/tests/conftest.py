import sys
from pathlib import Path

# run.py puts the checkout's src/ on the path when it is imported
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
