"""Entry point for ``python -m crowdgate``, which needs no installed script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="crowdgate")
