"""Published reference values the verification commands diff against.

Keys are the text form of the machine's forbidden pattern.  Where a row has a
well-established OEIS identifier it is recorded; "-" marks rows with no
authoritative identification.
"""

# |sortable sets| for the six length-3 consecutive machines, n = 0..9.
SORTABLE_COUNTS: dict[str, tuple[int, ...]] = {
    "123": (1, 1, 2, 5, 12, 30, 76, 196, 512, 1353),
    "132": (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862),
    "213": (1, 1, 2, 5, 15, 50, 180, 686, 2731, 11254),
    "231": (1, 1, 2, 6, 21, 79, 311, 1265, 5275, 22431),
    "312": (1, 1, 2, 5, 15, 50, 179, 675, 2649, 10734),
    "321": (1, 1, 2, 4, 9, 21, 51, 127, 323, 835),
}

SORTABLE_OEIS: dict[str, str] = {
    # two ids circulate for the Motzkin first-difference row; values are the
    # ground truth here
    "123": "A002026 (also cited as A002006)",
    "132": "A000108",
    "213": "-",
    "231": "- (conjecturally A033321)",
    "312": "-",
    "321": "A001006",
}

SORTABLE_N0 = 0  # first column of the sortable table

# Largest fiber size over S_n, n = 1..9, one row per complement-pair
# representative (the 321/312/213 rows follow by complementation).
# Complementing every value conjugates the machines, SC_{sigma^c}(pi^c) =
# SC_sigma(pi)^c, so a pair has the same fiber sizes.  The sortable counts of a
# pair differ (sortable means the image avoids 231, not 213), so the table
# above keeps all six rows; ``reproduce sortable`` gets both rows of a pair
# from one scan per n.
MAX_FERTILITY: dict[str, tuple[int, ...]] = {
    "123": (1, 1, 2, 3, 4, 7, 11, 16, 26),
    "132": (1, 1, 2, 3, 6, 10, 20, 35, 70),
    "231": (1, 1, 2, 4, 8, 16, 32, 64, 128),
}

MAX_FERTILITY_OEIS: dict[str, str] = {
    "123": "-",
    "132": "A001405",
    "231": "A011782",
}

MAX_FERTILITY_N0 = 1  # first column of the max-fertility table
