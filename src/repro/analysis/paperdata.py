"""Published numbers from the paper, used for comparison and calibration.

Everything in this module is copied verbatim from the tables of
arXiv:2101.10881v3 so that the benchmark harness (``benchmarks/results/``)
can print paper-vs-model columns without the reader having to open the PDF.  Times are
in milliseconds.
"""

from __future__ import annotations

__all__ = [
    "TABLE2_JOBS",
    "TABLE3_P1_DECA_D152",
    "TABLE4_DECA_D152",
    "TABLE5_P1_V100",
    "TABLE6_P2_V100",
    "TABLE7_P3_V100",
    "TABLE8_FLUCTUATION",
    "PAPER_DEGREES",
    "PAPER_PRECISION_LABELS",
    "SECTION62_FLOP_COUNTS",
]

#: Table 2: name -> (n, m, N, #convolutions, #additions).
TABLE2_JOBS: dict[str, tuple[int, int, int, int, int]] = {
    "p1": (16, 4, 1820, 16380, 9084),
    "p2": (128, 64, 128, 24192, 8192),
    "p3": (128, 2, 8128, 24256, 24256),
}

#: Table 3: evaluating p1 at degree 152 in deca double precision.
#: device -> {"convolution", "addition", "sum", "wall clock"} in ms.
TABLE3_P1_DECA_D152: dict[str, dict[str, float]] = {
    "C2050": {"convolution": 12947.26, "addition": 10.72, "sum": 12957.98, "wall clock": 12964.00},
    "K20C": {"convolution": 11290.22, "addition": 11.13, "sum": 11301.35, "wall clock": 11309.00},
    "P100": {"convolution": 1060.03, "addition": 1.37, "sum": 1061.40, "wall clock": 1066.00},
    "V100": {"convolution": 634.29, "addition": 0.77, "sum": 635.05, "wall clock": 640.00},
    "RTX2080": {"convolution": 10002.32, "addition": 5.01, "sum": 10007.34, "wall clock": 10024.00},
}

#: Table 4: p2 and p3 at degree 152 in deca double precision on P100/V100.
TABLE4_DECA_D152: dict[str, dict[str, dict[str, float]]] = {
    "p2": {
        "P100": {"convolution": 1700.49, "addition": 1.24, "sum": 1701.72, "wall clock": 1729.00},
        "V100": {"convolution": 1115.03, "addition": 0.67, "sum": 1115.71, "wall clock": 1142.00},
    },
    "p3": {
        "P100": {"convolution": 1566.58, "addition": 3.43, "sum": 1570.01, "wall clock": 1583.00},
        "V100": {"convolution": 926.53, "addition": 1.92, "sum": 928.45, "wall clock": 941.00},
    },
}

#: Degrees of the scaling experiments (Tables 5-7 and Figures 2, 5, 6).
PAPER_DEGREES: tuple[int, ...] = (0, 8, 15, 31, 63, 95, 127, 152, 159, 191)

#: Precision labels in table order.
PAPER_PRECISION_LABELS: dict[int, str] = {1: "1d", 2: "2d", 3: "3d", 4: "4d", 5: "5d", 8: "8d", 10: "10d"}


def _grid(rows):
    """Helper to build {limbs: {degree: {row: value}}} from compact rows."""
    out: dict[int, dict[int, dict[str, float]]] = {}
    for limbs, row_name, values in rows:
        for degree, value in zip(PAPER_DEGREES, values):
            if value is None:
                continue
            out.setdefault(limbs, {}).setdefault(degree, {})[row_name] = value
    return out


#: Table 5: p1 on the V100, convolution / addition / wall-clock times (ms).
TABLE5_P1_V100 = _grid([
    (1, "convolution", [0.08, 0.07, 0.07, 0.07, 0.11, 0.17, 0.28, 0.39, 0.40, 0.56]),
    (1, "addition", [0.10, 0.10, 0.09, 0.09, 0.08, 0.08, 0.09, 0.10, 0.10, 0.11]),
    (1, "wall clock", [9.00, 9.00, 8.00, 9.00, 7.00, 6.00, 6.00, 6.00, 0.67, 6.00]),
    (2, "convolution", [0.06, 0.11, 0.17, 0.31, 0.98, 2.39, 3.58, 7.20, 7.48, 9.23]),
    (2, "addition", [0.07, 0.07, 0.06, 0.07, 0.09, 0.11, 0.13, 0.15, 0.16, 0.18]),
    (2, "wall clock", [5.00, 5.00, 5.00, 5.00, 6.00, 7.00, 9.00, 12.00, 12.00, 14.00]),
    (3, "convolution", [0.10, 0.57, 1.00, 2.00, 5.80, 13.82, 19.88, 38.70, 40.53, 52.03]),
    (3, "addition", [0.08, 0.08, 0.08, 0.09, 0.12, 0.15, 0.19, 0.24, 0.22, 0.26]),
    (3, "wall clock", [5.00, 5.00, 6.00, 7.00, 11.00, 19.00, 25.00, 44.00, 46.00, 57.00]),
    (4, "convolution", [0.15, 1.24, 2.19, 4.39, 11.01, 23.99, 35.40, 65.76, 68.51, 90.40]),
    (4, "addition", [0.10, 0.10, 0.10, 0.12, 0.15, 0.20, 0.24, 0.30, 0.29, 0.33]),
    (4, "wall clock", [5.00, 6.00, 7.00, 9.00, 16.00, 29.00, 40.00, 71.00, 73.00, 95.00]),
    (5, "convolution", [0.25, 2.23, 3.98, 7.94, 20.59, 42.87, 57.19, 114.57, 111.68, 143.70]),
    (5, "addition", [0.11, 0.11, 0.11, 0.13, 0.18, 0.24, 0.30, 0.39, 0.36, 0.42]),
    (5, "wall clock", [5.00, 7.00, 8.00, 13.00, 25.00, 48.00, 62.00, 123.00, 117.00, 150.00]),
    (8, "convolution", [0.82, 8.92, 15.97, 32.26, 77.24, 150.64, 182.09, 359.68, 377.88, 442.90]),
    (8, "addition", [0.30, 0.33, 0.29, 0.31, 0.35, 0.40, 0.50, 0.61, 0.59, 0.67]),
    (8, "wall clock", [8.00, 17.00, 21.00, 37.00, 82.00, 156.00, 188.00, 365.00, 384.00, 449.00]),
    (10, "convolution", [1.30, 15.74, 26.57, 52.31, 130.04, 257.59, 312.16, 635.42, None, None]),
    (10, "addition", [0.36, 0.42, 0.38, 0.40, 0.44, 0.50, 0.62, 0.75, None, None]),
    (10, "wall clock", [7.00, 30.00, 35.00, 58.00, 135.00, 263.00, 317.00, 641.00, None, None]),
])

#: Table 6: p2 on the V100.
TABLE6_P2_V100 = _grid([
    (1, "convolution", [0.41, 0.41, 0.42, 0.43, 0.50, 0.63, 0.80, 1.01, 1.04, 1.32]),
    (1, "addition", [0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.06, 0.08, 0.08, 0.08]),
    (1, "wall clock", [26.00, 26.00, 25.00, 27.00, 25.00, 26.00, 26.00, 27.00, 27.00, 27.00]),
    (2, "convolution", [0.42, 0.55, 0.69, 1.01, 2.42, 4.87, 6.84, 12.35, 12.89, 16.19]),
    (2, "addition", [0.05, 0.05, 0.05, 0.05, 0.07, 0.09, 0.11, 0.14, 0.13, 0.15]),
    (2, "wall clock", [25.00, 25.00, 26.00, 27.00, 29.00, 31.00, 33.00, 38.00, 39.00, 43.00]),
    (3, "convolution", [0.53, 1.53, 2.44, 4.50, 11.71, 24.59, 34.53, 75.74, 78.59, 94.57]),
    (3, "addition", [0.06, 0.06, 0.06, 0.07, 0.09, 0.13, 0.16, 0.21, 0.20, 0.22]),
    (3, "wall clock", [27.00, 28.00, 29.00, 31.00, 37.00, 50.00, 61.00, 102.00, 105.00, 120.00]),
    (4, "convolution", [0.57, 2.61, 4.37, 8.57, 21.29, 44.17, 61.66, 118.98, 125.11, 157.94]),
    (4, "addition", [0.07, 0.08, 0.08, 0.09, 0.12, 0.17, 0.20, 0.25, 0.25, 0.29]),
    (4, "wall clock", [26.00, 29.00, 31.00, 35.00, 48.00, 70.00, 87.00, 145.00, 151.00, 184.00]),
    (5, "convolution", [0.84, 5.30, 9.22, 18.31, 39.36, 80.19, 112.57, 205.65, 214.06, 273.53]),
    (5, "addition", [0.09, 0.09, 0.10, 0.11, 0.15, 0.20, 0.25, 0.34, 0.31, 0.36]),
    (5, "wall clock", [26.00, 31.00, 34.00, 44.00, 65.00, 105.00, 138.00, 231.00, 239.00, 299.00]),
    (8, "convolution", [1.76, 16.56, 29.58, 59.66, 139.71, 253.36, 328.69, 639.72, 672.51, 789.62]),
    (8, "addition", [0.23, 0.24, 0.25, 0.26, 0.30, 0.35, 0.42, 0.51, 0.51, 0.58]),
    (8, "wall clock", [27.00, 42.00, 55.00, 85.00, 165.00, 279.00, 355.00, 666.00, 699.00, 817.00]),
    (10, "convolution", [2.64, 28.79, 48.58, 94.48, 238.82, 442.12, 559.61, 1115.03, None, None]),
    (10, "addition", [0.29, 0.31, 0.32, 0.34, 0.38, 0.45, 0.54, 0.67, None, None]),
    (10, "wall clock", [29.00, 55.00, 75.00, 120.00, 265.00, 468.00, 586.00, 1142.00, None, None]),
])

#: Table 7: p3 on the V100.
TABLE7_P3_V100 = _grid([
    (1, "convolution", [0.05, 0.05, 0.05, 0.06, 0.12, 0.22, 0.37, 0.53, 0.55, 0.78]),
    (1, "addition", [0.11, 0.11, 0.11, 0.11, 0.12, 0.16, 0.19, 0.21, 0.21, 0.25]),
    (1, "wall clock", [12.00, 13.00, 12.00, 12.00, 13.00, 13.00, 13.00, 13.00, 14.00, 14.00]),
    (2, "convolution", [0.05, 0.13, 0.22, 0.42, 1.36, 3.43, 5.20, 10.47, 10.93, 13.52]),
    (2, "addition", [0.12, 0.11, 0.11, 0.13, 0.18, 0.25, 0.33, 0.44, 0.37, 0.44]),
    (2, "wall clock", [13.00, 13.00, 13.00, 13.00, 14.00, 17.00, 18.00, 25.00, 24.00, 27.00]),
    (3, "convolution", [0.11, 0.81, 1.42, 2.86, 8.26, 20.06, 29.10, 56.76, 59.25, 76.49]),
    (3, "addition", [0.14, 0.14, 0.15, 0.18, 0.25, 0.37, 0.46, 0.56, 0.54, 0.64]),
    (3, "wall clock", [13.00, 14.00, 14.00, 16.00, 21.00, 33.00, 43.00, 71.00, 73.00, 90.00]),
    (4, "convolution", [0.19, 1.75, 3.11, 6.22, 15.92, 34.81, 51.57, 95.91, 100.03, 129.76]),
    (4, "addition", [0.17, 0.19, 0.19, 0.24, 0.33, 0.46, 0.61, 0.73, 0.71, 0.84]),
    (4, "wall clock", [13.00, 14.00, 16.00, 19.00, 29.00, 49.00, 65.00, 109.00, 114.00, 144.00]),
    (5, "convolution", [0.35, 3.24, 5.76, 11.56, 29.23, 62.60, 83.30, 157.02, 163.71, 210.28]),
    (5, "addition", [0.24, 0.26, 0.29, 0.41, 0.57, 0.57, 0.74, 0.91, 0.88, 1.04]),
    (5, "wall clock", [15.00, 17.00, 18.00, 24.00, 43.00, 76.00, 97.00, 171.00, 178.00, 224.00]),
    (8, "convolution", [1.19, 13.11, 23.49, 47.32, 107.64, 221.87, 265.69, 528.19, 553.59, 647.95]),
    (8, "addition", [0.62, 0.70, 0.70, 0.75, 0.84, 0.98, 1.22, 1.48, 1.42, 1.69]),
    (8, "wall clock", [14.00, 27.00, 37.00, 61.00, 121.00, 236.00, 280.00, 542.00, 573.00, 663.00]),
    (10, "convolution", [1.90, 23.12, 39.12, 75.81, 181.99, 380.19, 455.78, 926.53, None, None]),
    (10, "addition", [0.80, 0.88, 0.89, 0.94, 1.04, 1.19, 1.47, 1.92, None, None]),
    (10, "wall clock", [16.00, 37.00, 52.00, 90.00, 197.00, 394.00, 470.00, 941.00, None, None]),
])

#: Table 8: wall-clock fluctuation of p3 in deca double precision at d=152
#: (frequencies of wall-clock times over ten runs).
TABLE8_FLUCTUATION: dict[str, dict[int, int]] = {
    "fixed seed one": {941: 0, 942: 0, 943: 3, 944: 5, 945: 2, 946: 0},
    "different seeds": {941: 4, 942: 1, 943: 3, 944: 1, 945: 0, 946: 1},
}

#: Section 6.2: the double-operation bookkeeping for p1 at d=152 in deca
#: double precision on the P100.
SECTION62_FLOP_COUNTS = {
    "deca_add_double_ops": 397,
    "deca_mul_double_ops": 3089,
    "convolution_double_ops": 1_184_444_368_380,
    "addition_double_ops": 151_782_283_404,
    "total_double_ops": 1_336_226_651_784,
    "p100_seconds": 1.066,
    "p100_tflops": 1.25,
}
