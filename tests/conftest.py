import pytest

from multiport.arrangements import class_columns, decode_codes

# Published census used as ground truth across the suite:
# n -> (N_total, N_class, N_quantum, N_law, N_supp)
CENSUS = {
    1: (1, 1, 1, 0, 0),  # trivial: one particle in one port
    2: (3, 2, 2, 1, 0),
    3: (10, 3, 3, 1, 0),
    4: (35, 5, 8, 5, 0),
    5: (126, 7, 16, 10, 0),
    6: (462, 11, 50, 38, 2),
    7: (1716, 15, 133, 105, 0),
    8: (6435, 22, 440, 371, 0),
    9: (24310, 30, 1387, 1201, 0),
    10: (92378, 42, 4752, 4226, 96),
    11: (352716, 56, 16159, 14575, 0),
    12: (1352078, 77, 56822, 51890, 1133),
    13: (5200300, 101, 200474, 184626, 0),
    14: (20058300, 135, 718146, 666114, 2403),
}


@pytest.fixture
def census():
    return CENSUS


@pytest.fixture
def quantum_classes():
    """n -> (representative, orbit size) of each quantum class, in code order:
    class_columns(n) decoded by decode_codes."""

    def classes(n):
        codes, sizes = class_columns(n)
        return list(zip(decode_codes(n, codes.tolist()), sizes.tolist()))

    return classes
