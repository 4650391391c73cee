#!/usr/bin/env bash
# Same seed, same bytes: run quickstart, the fig14-18 benches and fixed-seed
# soak campaigns from two build trees, each into a fresh directory, and
# diff the outputs byte for byte.
#
#   tools/same_bytes.sh A B [NAME...]
#
# A and B are configured-and-built trees, of this checkout or of another
# one (compare a change against its parent). NAME picks among quickstart,
# the figure benches and soak; the default is all seven. soak covers the
# runs with faults and membership changes the others never make: chaos,
# tenant and elastic campaigns, whose -v lines carry each run's report
# digest. With A = B the script checks that two same-seed runs write
# identical bytes. Exits non-zero when any output tree differs.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B [NAME...]" >&2
  exit 2
fi
tree_a=$(cd "$1" && pwd)
tree_b=$(cd "$2" && pwd)
shift 2
names=("$@")
if [ ${#names[@]} -eq 0 ]; then
  names=(quickstart fig14_stream_throughput fig15_overhead_nas
         fig16_tool_comparison fig17_topologies fig18_density_maps soak)
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# run TREE NAME OUT: write NAME's outputs under OUT.
run() {
  mkdir -p "$3"
  if [ "$2" = quickstart ]; then
    (cd "$3" && "$1/examples/quickstart" > /dev/null)
  elif [ "$2" = soak ]; then
    mkdir -p "$3.cwd"
    (cd "$3.cwd" &&
      "$1/tools/soak" --runs 10 --seed 1 -v &&
      "$1/tools/soak" --tenants 12 --runs 2 --seed 1 -v &&
      "$1/tools/soak" --elastic 4 --runs 10 --seed 1000 -v) > "$3/soak.txt"
  else
    mkdir -p "$3.cwd"
    (cd "$3.cwd" && ESP_BENCH_DIR="$3" "$1/bench/$2" > /dev/null)
  fi
}

status=0
for name in "${names[@]}"; do
  run "$tree_a" "$name" "$scratch/$name.a"
  run "$tree_b" "$name" "$scratch/$name.b"
  if diff -r "$scratch/$name.a" "$scratch/$name.b"; then
    echo "same bytes: $name"
  else
    echo "DIFFERENT: $name" >&2
    status=1
  fi
done
exit $status
