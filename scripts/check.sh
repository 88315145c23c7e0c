#!/bin/sh
# The full pre-merge gate is the Makefile's `check` target; this script is
# its spelling for callers that expect a script.
exec make -C "$(dirname "$0")/.." check "$@"
