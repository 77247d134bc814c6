"""``python -m gf2minor``: the same command line as the ``gf2minor`` script."""

from .cli import main

if __name__ == "__main__":
    main()
