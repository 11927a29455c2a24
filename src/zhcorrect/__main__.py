"""``python -m zhcorrect``: the command-line interface."""

from zhcorrect.cli import main_entry

if __name__ == "__main__":
    main_entry()
