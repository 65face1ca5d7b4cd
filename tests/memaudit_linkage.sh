#!/bin/sh
# Usage: memaudit_linkage.sh NM EXPECT BINARY
#
# Checks which allocator BINARY runs on. The spectra_memaudit tracking
# allocator replaces the global operator new, so a binary that links it
# defines _Znwm; one on the system allocator only references it. EXPECT is
# "hook" or "system"; the exit status is 0 when BINARY matches it.
set -eu
nm_tool="$1"
expect="$2"
binary="$3"
symbols=$("$nm_tool" --defined-only "$binary")
if printf '%s\n' "$symbols" | grep -q ' _Znwm$'; then
  found=hook
else
  found=system
fi
echo "$binary: $found allocator (want $expect)"
[ "$found" = "$expect" ]
