#!/bin/sh
# Usage: expect_usage_error.sh PATTERN COMMAND [ARG...]
#
# Runs COMMAND and passes only when it exits 2 (a usage error) with PATTERN on its
# stderr: a rejected flag must neither run anyway nor die with an unrelated error.
pattern=$1
shift
err=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$err"
if [ "$status" -ne 2 ]; then
  echo "expected exit status 2, got ${status}" >&2
  exit 1
fi
case $err in
  *"$pattern"*) exit 0 ;;
esac
echo "stderr does not mention '${pattern}'" >&2
exit 1
