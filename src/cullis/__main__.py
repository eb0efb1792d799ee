"""`python -m cullis`: the same entry as the `cullis` script, `cli.run`."""

from .cli import run

if __name__ == "__main__":
    run()
