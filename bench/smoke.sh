#!/bin/sh
# Differential smoke run of the bench harness, shared by every *-smoke
# alias in bench/dune:
#
#   sh smoke.sh NAME FILTER JSON RUN_A RUN_B ARGS...
#
# Runs `./main.exe ARGS` twice, once per side, and cmp's the two stdouts
# after stripping the lines that legitimately differ between runs: the
# wall-clock and jobs lines, plus any line matching FILTER (a grep basic
# regex; "" adds nothing).  RUN_A and RUN_B each hold VAR=VALUE words,
# put in the run's environment, and main.exe flags (e.g. --jobs 4),
# appended to ARGS.  With JSON set to "json", both runs write the same
# NAME.json summary and the strict linter parses the file after each
# write; "-" writes no summary.  On success the filtered RUN_A output is
# printed: each alias in bench/dune saves it as NAME.flt and diffs it
# against the committed golden/NAME.expected, so a change that moves both
# runs the same way still fails until the golden is promoted.
set -e

name=$1 filter=$2 json=$3 run_a=$4 run_b=$5
shift 5

pattern='completed in\|jobs$'
if [ -n "$filter" ]; then pattern="$pattern\\|$filter"; fi

run() { # run SIDE OUT ARGS...
  side=$1 out=$2
  shift 2
  envs= flags=
  for w in $side; do
    case $w in
      *=*) envs="$envs $w" ;;
      *) flags="$flags $w" ;;
    esac
  done
  if [ "$json" = json ]; then
    env $envs ./main.exe "$@" $flags --json "$name.json" > "$out"
    ../test/json_lint.exe "$name.json"
  else
    env $envs ./main.exe "$@" $flags > "$out"
  fi
}

run "$run_a" "$name-a.out" "$@"
run "$run_b" "$name-b.out" "$@"
grep -v "$pattern" "$name-a.out" > "$name-a.flt"
grep -v "$pattern" "$name-b.out" > "$name-b.flt"
cmp "$name-a.flt" "$name-b.flt"
cat "$name-a.flt"
