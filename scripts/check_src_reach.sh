#!/usr/bin/env bash
# Reach check: every header under src/ must be included by something other
# than its own .cpp and tests/ — another library file, a bench, an example
# or the repository benchmark (perfbench/).  A module that only tests reach
# serves nothing; delete it with its tests rather than carry it.
#
#   scripts/check_src_reach.sh    # exit 1 and name each unreached header
set -euo pipefail
cd "$(dirname "$0")/.."

headers=$(find src -name '*.hpp' | sort)
status=0
for header in $headers; do
  own="${header%.hpp}.cpp"
  includers=$(grep -rlF --include='*.cpp' --include='*.hpp' \
      "#include \"${header#src/}\"" src bench examples perfbench || true)
  if ! grep -vxF "$own" <<<"$includers" | grep -q .; then
    echo "check_src_reach: ${header} is included only by its own .cpp" \
         "and tests/" >&2
    status=1
  fi
done
if [[ "$status" == 0 ]]; then
  echo "check_src_reach: OK ($(wc -w <<<"$headers") headers reached)"
fi
exit "$status"
