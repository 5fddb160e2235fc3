"""Run the command-line interface: python -m toricpush COMMAND FAN ..."""

from .cli import main

if __name__ == "__main__":
    main()
