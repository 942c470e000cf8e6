"""Input handling shared by the bench regression gates.

check_budget.py, check_overhead.py and check_scaling.py all read
bench JSON records and share one exit-code contract: 0 pass, 1
regression, 2 usage / malformed or unreadable input. A malformed input
must produce exit 2 with a one-line diagnosis, never a raw traceback
(whose exit 1 would read as a regression).
"""

import json
import sys
from typing import Callable

EXIT_MALFORMED = 2

# Everything a bad input can raise: an unreadable file (OSError),
# malformed JSON or a failed shape check (ValueError), and a record
# missing or mistyping a field (KeyError, TypeError, AttributeError).
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)


def load_object(path: str) -> dict:
    """Loads a JSON file whose top level must be an object."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(
            f"{path}: top level is a JSON {type(record).__name__}, "
            f"expected an object"
        )
    return record


def run_gate(label: str, check: Callable[[], int]) -> int:
    """Runs check() and maps any input error to EXIT_MALFORMED."""
    try:
        return check()
    except INPUT_ERRORS as error:
        print(
            f"{label}: cannot evaluate: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return EXIT_MALFORMED
