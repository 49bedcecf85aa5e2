"""``python -m pcrank``: the same command line as the ``pcrank`` script."""

from .cli import run

if __name__ == "__main__":
    run()
