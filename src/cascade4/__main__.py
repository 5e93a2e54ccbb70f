"""Entry point for `python -m cascade4`, the same front end as `cascade4`."""

from .cli import main

if __name__ == "__main__":
    main()
