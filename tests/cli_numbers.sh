#!/bin/sh
# Every tool refuses a malformed number or fault/chaos spec in a flag, an
# environment variable or an argument: it exits 2 (a figure binary's
# INCFLAT_* hook exits 3) and names the flag, variable or argument on
# stderr (a figure binary names it first, and only it).  A --help (--list
# for incflatc) after the bad flag, or a bad soak spec after a bad SEEDS,
# makes a regression exit at once instead of starting a daemon, a load or
# any threads.
#
#   cli_numbers.sh BUILD_DIR
set -u
d=$1/tools/incflatd
c=$1/tools/incflat_client
g=$1/tools/serve_loadgen
x=$1/tools/incflatc
s=$1/tools/soak_faults
fig=$1/bench/fig2_matmul
failures=0

expect() {  # expect CODE NAME COMMAND...
  code=$1 name=$2
  shift 2
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne "$code" ] || ! printf '%s' "$err" | grep -qF -- "$name"; then
    echo "FAIL (exit $rc, want $code naming $name): $*"
    echo "  stderr: $err"
    failures=$((failures + 1))
  fi
}

# As expect, and stderr starts with NAME: no other variable is blamed.
expect_first() {  # expect_first CODE NAME COMMAND...
  code=$1 name=$2
  shift 2
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  case $err in
    "$name"*) first=yes ;;
    *) first=no ;;
  esac
  if [ "$rc" -ne "$code" ] || [ "$first" = no ]; then
    echo "FAIL (exit $rc, want $code starting with $name): $*"
    echo "  stderr: $err"
    failures=$((failures + 1))
  fi
}

expect 2 --workers "$d" --workers 3x --help
expect 2 --workers "$d" --workers 100000 --help
expect 2 --workers "$d" --workers -1 --help
expect 2 --cache-mb "$d" --cache-mb 1abc --help
expect 2 --tune-trials "$d" --tune-trials zero --help
expect 2 --tune-trials "$d" --tune-trials 0 --help
expect 2 --max-conns "$d" --max-conns 64k --help
expect 2 --queue-cap "$d" --queue-cap -1 --help
expect 2 --drain-ms "$d" --drain-ms nan --help
expect 2 --fault-seed "$d" --fault-seed -1 --help
expect 2 --net-chaos-seed "$d" --net-chaos-seed 0x --help
expect 2 --listen "$d" --listen
expect 2 INCFLAT_FAULT_SEED env INCFLAT_FAULT_SEED=12abc "$d" --help
expect 2 INCFLAT_NET_CHAOS_SEED env INCFLAT_NET_CHAOS_SEED=-1 "$d" --help
expect 2 --faults "$d" --faults all=abc --help
expect 2 --net-chaos "$d" --net-chaos all=abc --help
expect 2 INCFLAT_FAULTS env INCFLAT_FAULTS=all=abc "$d" --help
expect 2 INCFLAT_NET_CHAOS env INCFLAT_NET_CHAOS=all=abc "$d" --help

expect 2 --trials "$c" --trials 2.5 --help
expect 2 --retries "$c" --retries many --help
expect 2 --timeout-ms "$c" --timeout-ms -1 --help
expect 2 --deadline-ms "$c" --deadline-ms inf --help
expect 2 --threshold "$c" --threshold t=abc --help
expect 2 --threshold "$c" --threshold t --help
expect 2 tcp:80abc "$c" --connect tcp:80abc ping

expect 2 --clients "$g" --clients 100000 --help
expect 2 --requests "$g" --requests 1e100 --help
expect 2 --zipf "$g" --zipf -1 --help
expect 2 --seed "$g" --seed 12abc --help
expect 2 --deadline-ms "$g" --deadline-ms 2s --help
expect 2 --mix "$g" --mix run=abc --help
expect 2 --mix "$g" --mix run=1.5 --help
expect 2 --mix "$g" --mix walk=0.5 --help

expect 2 --fault-seed "$x" --fault-seed 12abc --list
expect 2 --fault-seed "$x" --fault-seed -1 --list
expect 2 --fault-seed "$x" --fault-seed 18446744073709551616 --list
expect 2 INCFLAT_FAULT_SEED env INCFLAT_FAULT_SEED=12abc "$x" --list
expect 2 --faults "$x" --faults all=abc --list
expect 2 INCFLAT_FAULTS env INCFLAT_FAULTS=all=abc "$x" --list
expect 2 --run-policy "$x" --run-policy retries=x --list

expect 2 SEEDS "$s" all=zzz ten
expect 2 SEEDS "$s" all=zzz -1
expect 2 SPEC "$s" all=abc 1

expect_first 3 INCFLAT_FAULT_SEED: env INCFLAT_FAULTS=all=0.01 \
  INCFLAT_FAULT_SEED=12abc "$fig"
expect_first 3 INCFLAT_RUN_POLICY: env INCFLAT_FAULTS=all=0.01 \
  INCFLAT_RUN_POLICY=bogus "$fig"
expect_first 3 INCFLAT_FAULTS: env INCFLAT_FAULTS=all=abc "$fig"

[ "$failures" -eq 0 ] || exit 1
echo "cli_numbers: every malformed number and spec refused"
