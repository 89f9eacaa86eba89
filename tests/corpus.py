"""Query corpus used by the parser tests and the acceptance gate."""

# The benchmark workload: grid and sliding-window aggregations over two large
# arrays, whole-array and boxed variants.
BENCHMARK_QUERIES = [
    "select avg(Val) from L1 grid as (partition by x 512 y 512)",
    "select avg(Val) from between (L2, 0, 0, 16383, 32767) grid as (partition by x 512, y 512)",
    "select avg(Val) from between (L1, 16384, 0, 24575, 32767) grid as (partition by x 512, y 512)",
    "select avg(Val) from between (L2, 24576, 0, 28671, 32767) grid as (partition by x 512, y 512)",
    "select avg(Val) from L1 fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
    "select avg(Val) from between (L2, 0, 0, 4999, 9999) fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
    "select avg(Val) from between (L1, 5000, 0, 7499, 9999) fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
    "select avg(Val) from between (L2, 7500, 0, 8749, 9999) fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
]

# Everything else the grammar allows: each aggregate, every shape clause,
# where conjunctions, strides, ring shapes, trailing commas, case variants,
# float and scientific constants, higher and lower dimensionality.
COVERAGE_QUERIES = [
    "select sum(val) from A grid as (partition by x 4, y 4)",
    "select count(val) from A grid as (partition by x 4, y 8,)",
    "select min(val) from A where val > 0 grid as (partition by x 2, y 2)",
    "select max(val) from A where val >= 1.5 and val <> 7 grid as (partition by x 2, y 2)",
    "select stddev(val) from A where val < 1e3 grid as (partition by x 16, y 16)",
    "select geomean(val) from A where val <= 2.5e-1 grid as (partition by x 3, y 3)",
    "select median(val) from A grid as (partition by x 5, y 5)",
    "select avg(val) from between (A, 0, 0, 7, 7) fixed window as (partition by x 2 preceding and 0 following, y 0 preceding and 2 following stride 2)",
    "select avg(val) from A fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following, stride 3)",
    "select avg(val) from A where val > 0.25 fixed window as (partition by x 0 preceding and 3 following, y 0 preceding and 3 following stride 4)",
    "select max(val) from between (A, 1, 2, 19, 17) fixed window as (partition by x 0 preceding and 1 following, y 1 preceding and 0 following stride 4)",
    "select sum(val) from A hierarchical as (radius 1 step 1)",
    "select sum(val) from between (A, 1, 1, 7, 7) hierarchical as (radius 2 step 3)",
    "select avg(val) from A circular as (radius 1 step 1)",
    "select median(val) from between (A, 0, 0, 8, 8) circular as (radius 3 step 2)",
    "SELECT AVG(val) FROM A GRID AS (PARTITION BY x 4, y 4)",
    "Select Avg(val) From Between (A, 0, 0, 3, 3) Circular As (Radius 1 Step 1)",
    "select avg(val) from B grid as (partition by t 10)",
    "select avg(val) from between (B, 5, 94) grid as (partition by t 10)",
    "select avg(val) from C grid as (partition by x 2, y 2, z 2)",
    "select avg(val) from C fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following, z 0 preceding and 0 following)",
    "select avg(val) from C hierarchical as (radius 1 step 2)",
    "select avg(val) from A where val > -1.25 grid as (partition by x 4 y 4)",
]

ALL_QUERIES = BENCHMARK_QUERIES + COVERAGE_QUERIES
