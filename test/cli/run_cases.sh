#!/bin/sh
# Golden driver for the CLI: runs softtimers-cli once per line of a
# cases file (blank lines and # comments skipped) and prints what each
# run left behind, for a dune diff against the committed .expected.
#
#   run_cases.sh errors  CLI CASES   stderr, then stdout (if any), then
#                                    the exit code of every case
#   run_cases.sh reports CLI CASES   stdout of every case at --jobs 1,
#                                    and whether --jobs 4 printed the
#                                    same bytes
set -f
mode=$1
cli=$2
cases=$3
out=$cases.stdout
err=$cases.stderr
while IFS= read -r args; do
  case $args in '' | '#'*) continue ;; esac
  echo "\$ softtimers-cli $args"
  case $mode in
  errors)
    $cli $args >$out 2>$err
    code=$?
    cat $err
    if [ -s $out ]; then
      echo "stdout:"
      cat $out
    fi
    echo "[exit $code]"
    ;;
  reports)
    $cli $args --jobs 1 >$out 2>$err
    code=$?
    $cli $args --jobs 4 >$out.jobs4 2>&1
    cat $out $err
    # A report without a final newline (JSON) still ends its own line.
    [ -n "$(tail -c1 $out)" ] && echo
    if cmp -s $out $out.jobs4; then same=identical; else same=DIFFERENT; fi
    echo "[exit $code; --jobs 4 output $same]"
    ;;
  esac
done <"$cases"
rm -f $out $err $out.jobs4
