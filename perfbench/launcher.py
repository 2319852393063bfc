"""Import-time probe: time ``import cavity_entangler.cli`` in a fresh interpreter.

    python3 perfbench/launcher.py

Prints the import time in seconds. The checkout's ``src`` must be on
PYTHONPATH.
"""
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import cavity_entangler.cli  # noqa: F401

    print(repr(time.perf_counter() - start))
