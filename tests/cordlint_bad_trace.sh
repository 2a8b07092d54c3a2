#!/bin/sh
# cordlint must refuse a damaged or unreadable access trace with one
# line on stderr and exit status 2, never an abort.
#
#   cordlint_bad_trace.sh CORDSIM CORDLINT CASE
#
# Records a real fft trace with CORDSIM, damages it as CASE says, and
# runs CORDLINT --trace on the result.  CASE is one of:
#   Truncate17    drop the last 17 bytes
#   CountBit      flip the high bit of the 64-bit event count
#   TrailingByte  append one byte
#   Directory     pass a directory instead of a file
set -eu
cordsim=$1 cordlint=$2 case=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
trace=$dir/fft.trace
"$cordsim" --workload fft --seed 11 --save-trace "$trace" >/dev/null
case $case in
  Truncate17)
    size=$(wc -c <"$trace")
    head -c $((size - 17)) "$trace" >"$dir/cut" && mv "$dir/cut" "$trace" ;;
  CountBit)
    # Byte 15 is the top byte of the little-endian count; it is 0 in any
    # trace of fewer than 2^56 events, so writing 0x80 flips one bit.
    printf '\200' | dd of="$trace" bs=1 seek=15 conv=notrunc 2>/dev/null ;;
  TrailingByte)
    printf 'x' >>"$trace" ;;
  Directory)
    trace=$dir ;;
  *)
    echo "unknown case '$case'" >&2; exit 64 ;;
esac
set +e
"$cordlint" --trace "$trace" >/dev/null 2>"$dir/err"
status=$?
set -e
cat "$dir/err" >&2
if [ "$status" -ne 2 ]; then
    echo "expected exit 2, got $status" >&2
    exit 1
fi
lines=$(wc -l <"$dir/err")
if [ "$lines" -ne 1 ]; then
    echo "expected a one-line error, got $lines lines" >&2
    exit 1
fi
