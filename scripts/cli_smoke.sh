#!/usr/bin/env bash
# The CLI smoke test: generate small arrays, then run, translate, explain and
# bench queries through the aqlmr command, checking outputs and exit codes.
# Needs aqlmr installed (pip install -e .); run it from anywhere:
#
#     bash scripts/cli_smoke.sh
#
# It works in a fresh temporary directory, removed on exit, and stops at the
# first failing command, also inside a pipeline.
set -eo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
aqlmr gen-data --name A --dims 8x8 --chunk 4x4 --fill ramp --out-dir ./data
aqlmr run --query "select avg(val) from A grid as (partition by x 4, y 4)" --data-dir ./data
aqlmr translate "select sum(val) from between (A, 0, 0, 5, 5) where val > 10 fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)" --data-dir ./data --out job.cfg
aqlmr run --config job.cfg
aqlmr gen-data --name I --dims 8x8 --chunk 4x4 --element-type int64 --fill ramp --out-dir ./data
aqlmr explain "select sum(val) from I hierarchical as (radius 1 step 2)" --data-dir ./data
aqlmr bench "select avg(val) from I fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)" --data-dir ./data
# empty groups at both ends and a full run between, in both modes
ends="select sum(val) from between (I, 0, 0, 3, 7) where val > 3 and val < 28 fixed window as (partition by x 0 preceding and 0 following, y 0 preceding and 0 following)"
aqlmr run --mode naive --query "$ends" --data-dir ./data | grep "^group " > ends-naive.txt
aqlmr run --mode optimized --query "$ends" --data-dir ./data | grep "^group " > ends-optimized.txt
diff ends-naive.txt ends-optimized.txt
grep -Fx "group 0 (0,0)-(0,0): null" ends-optimized.txt
grep -Fx "group 4 (0,4)-(0,4): 4" ends-optimized.txt
grep -Fx "group 31 (3,7)-(3,7): null" ends-optimized.txt
# a filtered grid whose blocks cross chunk edges: the optimized map
# folds each band at once, the naive one emits pairs split by split
cross="select sum(val) from between (I, 1, 1, 6, 6) where val > 20 grid as (partition by x 4, y 4)"
aqlmr run --mode naive --query "$cross" --data-dir ./data | grep "^group " > cross-naive.txt
aqlmr run --mode optimized --query "$cross" --data-dir ./data | grep "^group " > cross-optimized.txt
diff cross-naive.txt cross-optimized.txt
grep -Fx "group 0 (1,1)-(4,4): 244" cross-optimized.txt
grep -Fx "group 2 (5,1)-(6,4): 372" cross-optimized.txt
aqlmr run --mode optimized --query "select min(val) from between (I, 1, 1, 6, 6) where val > 20 grid as (partition by x 4, y 4)" --data-dir ./data | grep -Fx "group 0 (1,1)-(4,4): 25"
# neither mode emits anything: both ratios are 1.00, not inf
aqlmr bench "select sum(val) from A where val < 0 grid as (partition by x 8, y 8)" --data-dir ./data > none.txt
grep -Fx "map_output_records ratio (naive/optimized): 1.00" none.txt
grep -Fx "bytes_shuffled ratio (naive/optimized): 1.00" none.txt
# a grid block is its tumbling window: the same output but the wall time
aqlmr run --query "select avg(val) from A grid as (partition by x 4, y 4)" --data-dir ./data | grep -v "^wall time" > grid.txt
aqlmr run --query "select avg(val) from A fixed window as (partition by x 0 preceding and 3 following, y 0 preceding and 3 following stride 4)" --data-dir ./data | grep -v "^wall time" > tumbling.txt
diff grid.txt tumbling.txt
# bench fails when the naive and optimized results disagree: every
# algebraic built-in on every shape, with and without where, on
# floats and ints (GEOMEAN skips the ramps' 0 at cell (0, 0))
for arr in A I; do
  for agg in sum count avg min max stddev geomean; do
    if [ "$agg" = geomean ]; then from="between ($arr, 0, 1, 7, 7)"; else from=$arr; fi
    for shape in "grid as (partition by x 3, y 4)" \
      "fixed window as (partition by x 2 preceding and 0 following, y 1 preceding and 3 following stride 2)" \
      "fixed window as (partition by x 6 preceding and 5 following, y 7 preceding and 7 following)" \
      "hierarchical as (radius 1 step 2)" \
      "circular as (radius 1 step 1)"; do
      aqlmr bench "select $agg(val) from $from $shape" --data-dir ./data
      aqlmr bench "select $agg(val) from $from where val > 10 $shape" --data-dir ./data
    done
  done
done
# a 3-d box that cuts chunks in every dimension, and a whole-array
# query whose bands span the full trailing extents
aqlmr gen-data --name C --dims 6x10x12 --chunk 4x4x5 --fill uniform --out-dir ./data
aqlmr run --query "select avg(val) from between (C, 1, 2, 3, 4, 8, 10) where val > 0.2 grid as (partition by x 2, y 3, z 4)" --data-dir ./data
aqlmr run --query "select sum(val) from C fixed window as (partition by x 1 preceding and 1 following, y 0 preceding and 1 following, z 2 preceding and 0 following)" --data-dir ./data
rc=0; aqlmr translate "select sum(val) from I grid as (partition by x 4, y 4)" --data-dir ./data --out bad.cfg --workers 0 || rc=$?
test "$rc" -eq 4
aqlmr run --query "select sum(val) from A grid as (partition by x 9223372036854775808, y 4)" --data-dir ./data
rc=0; aqlmr gen-data --name H --dims 1000000000000000000000x8 --chunk 4x4 --out-dir ./huge || rc=$?
test "$rc" -eq 4
test ! -e ./huge
# a fill constant int64 cannot hold and a negative seed write
# nothing, not even the output directory
rc=0; aqlmr gen-data --name E --dims 8x8 --chunk 4x4 --element-type int64 --fill constant:1e20 --out-dir ./bad || rc=$?
test "$rc" -eq 4
rc=0; aqlmr gen-data --name S --dims 8x8 --chunk 4x4 --fill uniform --seed -1 --out-dir ./bad || rc=$?
test "$rc" -eq 4
test ! -e ./bad
# a float constant compares exactly with int64 cells: 2**53 + 1 > 2**53
aqlmr gen-data --name K --dims 8x8 --chunk 4x4 --element-type int64 --fill constant:9007199254740993 --out-dir ./data
aqlmr run --query "select count(val) from K where val > 9007199254740992.0 grid as (partition by x 8, y 8)" --data-dir ./data | grep -x "group 0 (0,0)-(7,7): 64"
# MEDIAN on the int64 ramp: ring 1 holds 49 cells, and tests/oracles.py
# gives 27 (an odd count's middle value, so an int)
aqlmr run --query "select median(val) from I hierarchical as (radius 1 step 2)" --data-dir ./data | grep -Fx "group 1 (-1,3]: 27"
# naive MEDIAN over rings that cross the 4x4 chunk edges (box centre
# (4, 3)): each group line is statistics.median of its ring's cells
for shape in "hierarchical as (radius 0 step 1)" "circular as (radius 1 step 1)"; do
  aqlmr run --mode naive --query "select median(val) from between (A, 1, 0, 7, 6) where val > 20 $shape" --data-dir ./data | grep "^group " > rings.txt
  python3 - "$shape" <<'EOF'
import math, re, statistics, sys
circular = sys.argv[1].startswith("circular")
kept = {(x, y): float(8 * x + y) for x in range(1, 8) for y in range(7) if 8 * x + y > 20}
def dist(x, y):
    dx, dy = abs(x - 4), abs(y - 3)
    return (math.isqrt(dx * dx + dy * dy - 1) + 1 if dx or dy else 0) if circular else max(dx, dy)
lines = open("rings.txt").read().splitlines()
assert len(lines) == (3 if circular else 4), lines
for line in lines:
    inner, outer, value = re.fullmatch(r"group \d+ \((-?\d+),(\d+)\]: (\S+)", line).groups()
    ring = [v for (x, y), v in sorted(kept.items()) if int(inner) < dist(x, y) <= int(outer)]
    assert value == repr(statistics.median(ring)), (line, ring)
EOF
done
# naive MEDIAN over rings on a 32x32 uniform array in 4x4 chunks:
# 64 splits, most of whose own rings leave gaps between their runs;
# each group line is statistics.median of its ring's cells
aqlmr gen-data --name U --dims 32x32 --chunk 4x4 --fill uniform --out-dir ./data
for shape in "hierarchical as (radius 1 step 2)" "circular as (radius 0 step 3)"; do
  for where in "" "where val > 0.3"; do
    aqlmr run --mode naive --query "select median(val) from U $where $shape" --data-dir ./data | grep "^group " > rings.txt
    python3 - "$shape" "$where" <<'EOF'
import math, re, statistics, sys
import numpy as np
circular = sys.argv[1].startswith("circular")
cells = np.fromfile("data/U.bin", "<f8").reshape(32, 32)
kept = {(x, y): float(v) for (x, y), v in np.ndenumerate(cells) if not sys.argv[2] or v > 0.3}
def dist(x, y):
    dx, dy = abs(x - 15), abs(y - 15)
    return (math.isqrt(dx * dx + dy * dy - 1) + 1 if dx or dy else 0) if circular else max(dx, dy)
lines = open("rings.txt").read().splitlines()
assert len(lines) == (6 if circular else 8), lines
for line in lines:
    inner, outer, value = re.fullmatch(r"group \d+ \((-?\d+),(\d+)\]: (\S+)", line).groups()
    ring = [v for (x, y), v in sorted(kept.items()) if int(inner) < dist(x, y) <= int(outer)]
    assert value == (repr(statistics.median(ring)) if ring else "null"), (line, len(ring))
EOF
  done
done
# on U, whose float sums change with their order, a grid block and its
# tumbling window still print the same 16 group lines: one fold order
aqlmr run --query "select avg(val) from U where val > 0.3 grid as (partition by x 8, y 8)" --data-dir ./data | grep "^group " > grid-u.txt
aqlmr run --query "select avg(val) from U where val > 0.3 fixed window as (partition by x 0 preceding and 7 following, y 0 preceding and 7 following stride 8)" --data-dir ./data | grep "^group " > tumbling-u.txt
test "$(wc -l < grid-u.txt)" -eq 16
diff grid-u.txt tumbling-u.txt
# the median of negative zeros keeps the sign
aqlmr gen-data --name Z --dims 8x8 --chunk 4x4 --fill constant:-0.0 --out-dir ./data
aqlmr run --query "select median(val) from Z grid as (partition by x 4, y 4)" --data-dir ./data | grep -Fx "group 0 (0,0)-(3,3): -0.0"
# reports are strict JSON: a SUM past the float range is the string "inf"
aqlmr gen-data --name F --dims 4x4 --chunk 2x2 --fill constant:1e308 --out-dir ./data
aqlmr run --query "select sum(val) from F grid as (partition by x 4, y 4)" --data-dir ./data --report r.json
python3 -c "
import json
def refuse(token):
    raise ValueError(f'bare {token} in the report')
assert json.load(open('r.json'), parse_constant=refuse)['groups'][0]['value'] == 'inf'
"
# a missing data directory exits 4
rc=0; aqlmr explain "select sum(val) from A grid as (partition by x 4, y 4)" --data-dir ./missing || rc=$?
test "$rc" -eq 4
# a relative array.path is relative to the parameter file, so the
# file runs from any working directory
mkdir sub other
aqlmr translate "select sum(val) from A grid as (partition by x 4, y 4)" --data-dir ./data --out sub/job.cfg
grep -Fx "array.path=../data/A.bin" sub/job.cfg
(cd other && aqlmr run --config ../sub/job.cfg)
