"""`python -m magari4`: the command line that the `magari4` script runs."""
from .cli import main

if __name__ == "__main__":
    main()
