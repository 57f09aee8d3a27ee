"""`python -m treksep`: the same command line as the `treksep` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
