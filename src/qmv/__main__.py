"""``python -m qmv``: the same command line as the ``qmv`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
