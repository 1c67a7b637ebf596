"""State codes and the electoral-vote apportionment table.

The bundled apportionment is the 2016 one (51 entities: 50 states plus DC,
winner-take-all, 538 votes total).  A different table can be loaded from any
``state,ev`` CSV, e.g. after a reapportionment.
"""

from __future__ import annotations

from importlib import resources

from .tables import read_rows

#: 50 state postal codes plus DC.
STATE_CODES = frozenset(
    {
        "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL",
        "GA", "HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME",
        "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH",
        "NJ", "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI",
        "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI",
        "WY",
    }
)

NATIONAL = "US"

TOTAL_ELECTORAL_VOTES = 538
WIN_ELECTORAL_VOTES = 270


def is_state(code: str) -> bool:
    return code in STATE_CODES


def load_ev_table(source) -> dict[str, int]:
    """Read a ``state,ev`` CSV (a path or a text stream).

    Each row holds one of the 51 recognized codes, listed once, with an
    integer vote count >= 0, and the votes must sum to 538.  Returns a
    mapping sorted by state code.
    """
    table: dict[str, int] = {}

    def parse(row, line):
        code = row["state"].strip().upper()
        if code not in STATE_CODES:
            raise ValueError(f"unknown state code {code!r}")
        if code in table:
            raise ValueError(f"state {code} is listed twice")
        votes = int(row["ev"])
        if votes < 0:
            raise ValueError(f"ev = {votes} is negative")
        table[code] = votes

    def finish():
        total = sum(table.values())
        if total != TOTAL_ELECTORAL_VOTES:
            raise ValueError(f"EV table sums to {total}, expected {TOTAL_ELECTORAL_VOTES}")
        return {code: table[code] for code in sorted(table)}

    return read_rows(source, ("state", "ev"), parse, finish)


def default_ev_table() -> dict[str, int]:
    """The bundled 2016 apportionment."""
    ref = resources.files("statecast.data").joinpath("electoral_votes_2016.csv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_ev_table(fh)
