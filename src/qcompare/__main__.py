"""``python -m qcompare``: the ``qcompare`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
