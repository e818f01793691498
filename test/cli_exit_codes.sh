#!/bin/sh
# Usage: cli_exit_codes.sh NCC_SIM BENCH
# Runs ncc_sim (and the bench executable) on incoherent configurations
# and unwritable output paths, printing each command's exit code and
# stderr. Every case must be refused with exit 2 before any simulation
# runs.
sim="$1"
bench="$2"
run_() {
  name="$1"
  shift
  err=$("$@" 2>&1 >/dev/null)
  code=$?
  shift
  echo "$name $*: exit $code"
  [ -z "$err" ] || printf '%s\n' "$err" | sed 's/^/  /'
}
case_() { run_ ncc_sim "$sim" "$@"; }
# A flag value Cmdliner itself rejects: its message wording and wrapping
# vary across Cmdliner versions, so only the exit code is pinned.
code_() {
  "$sim" "$@" >/dev/null 2>&1
  echo "ncc_sim $*: exit $?"
}
case_ run --servers 0
case_ run --load=-5
case_ scale --servers 4 --clients 8 --txns 200 --check-window=-3
case_ scale --servers 4 --clients 8 --txns 200 --out /nonexistent/s.json
case_ profile --profile /nonexistent/p.json
case_ chaos --replicas=-1 --seeds 1
case_ atlas smoke --quick --out /nonexistent/a.json
case_ chaos --seeds 3 --check off
case_ run -p NCC-R --replicas 0
case_ chaos -p ncc-r-def --seeds 1
case_ run -p NCC --request-timeout=-0.001
case_ run -w google-f1 -l 2000 --duration 0.1 --drop 1.5
case_ run --dup=-0.1
case_ run --drop nan
case_ run --faults 3 --dup=-0.1
case_ run --duration 5000
case_ run --clients 1048600 --duration 0.01
case_ run --jobs=-1
case_ chaos -p NCC --seeds 0
case_ chaos --seeds=-1
case_ atlas smoke --quick --seeds=-2 --jobs=-4
case_ atlas fig8 --quick --jobs=-1
case_ atlas fig8 --quick --seeds 2
case_ atlas fig8 --quick --out fig8.json
case_ atlas no-such-preset
run_ bench/main.exe "$bench" quick fig8 --jobs=-1
code_ run --check post
