#!/usr/bin/env bash
# Smoke-tests sage_cli against the algorithm registry. Used by CTest (see
# examples/CMakeLists.txt) so the CLI can never silently drift from the
# registry: one test per algorithm runs it on a small generated graph and
# validates the -json RunReport, and a coverage test fails whenever the
# registry's -list-names differs from the list the matrix was built from.
#
#   cli_smoke.sh <sage_cli> <algo>            run one algorithm, validate JSON
#   cli_smoke.sh <sage_cli> --all             enumerate -list-names, run each
#   cli_smoke.sh <sage_cli> --expect "a b c"  fail unless -list-names == list
#   cli_smoke.sh <sage_cli> --binary-all      text -> .bsadj conversion leg:
#                                             every algorithm runs from the
#                                             mapped binary and must match
#                                             its text-run summary+counters
#   cli_smoke.sh <sage_cli> --sharded         multi-shard leg: -convert-sharded
#                                             splits into .bsadjx + segments,
#                                             every algorithm runs from the
#                                             assembled mapping and must match
#                                             its monolithic-binary run
#   cli_smoke.sh <sage_cli> --serve           serving leg: -cache/-repeat hits
#                                             the result cache bit-identically,
#                                             an epoch bump between repeats
#                                             misses, tiny -deadline-ms fails
#                                             DeadlineExceeded, -tenant/-stats
#                                             render the stats JSON
#   cli_smoke.sh <sage_cli> --prefetch        prefetch leg: bfs on a mapped
#                                             .bsadj at -threads 2, with and
#                                             without -prefetch: both report
#                                             the width, the -prefetch run its
#                                             pipeline and waves, and both the
#                                             same summary and psam_cost
#   cli_smoke.sh <sage_cli> --unknown-flag    a misspelled flag exits nonzero
#                                             and is named on stderr
set -u

CLI=$1
MODE=$2

run_one() {
  local name=$1
  local out
  out=$("$CLI" -algo "$name" -gen rmat -logn 10 -edges 8000 -src 1 -json) || {
    echo "FAIL $name: sage_cli exited nonzero"
    return 1
  }
  case $out in
    "{"*"}") ;;
    *) echo "FAIL $name: output is not a JSON object: $out"; return 1 ;;
  esac
  printf '%s' "$out" | grep -q "\"algorithm\": \"$name\"" || {
    echo "FAIL $name: JSON lacks \"algorithm\": \"$name\""
    return 1
  }
  printf '%s' "$out" | grep -q '"counters"' || {
    echo "FAIL $name: JSON lacks the counters block"
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$out" | python3 -m json.tool >/dev/null || {
      echo "FAIL $name: python3 json.tool rejected the output"
      return 1
    }
  fi
  echo "ok $name"
}

# Extracts the comparable portion of a -json RunReport: the summary line
# and the counters block (wall/device times legitimately differ run to run).
extract_comparable() {
  printf '%s\n' "$1" | sed -n -e '/"summary"/p' -e '/"counters"/,/}/p'
}

case $MODE in
  --binary-all)
    tmp=$(mktemp -d) || { echo "FAIL: mktemp"; exit 1; }
    trap 'rm -rf "$tmp"' EXIT
    # One generated graph, serialized to text, then converted text->binary
    # through the CLI itself (the user-facing conversion workflow).
    "$CLI" -gen rmat -logn 10 -edges 8000 -convert "$tmp/g.adj" >/dev/null || {
      echo "FAIL: -convert to text exited nonzero"; exit 1;
    }
    "$CLI" -graph "$tmp/g.adj" -convert "$tmp/g.bsadj" >/dev/null || {
      echo "FAIL: -convert text->binary exited nonzero"; exit 1;
    }
    names=$("$CLI" -list-names) || { echo "FAIL: -list-names"; exit 1; }
    fail=0
    for name in $names; do
      # -threads 1 pins scheduling so racy-but-correct kernels (min-CAS
      # style) charge identical counters on identical inputs.
      text_out=$("$CLI" -algo "$name" -graph "$tmp/g.adj" -src 1 \
                        -threads 1 -json) || {
        echo "FAIL $name: text run exited nonzero"; fail=1; continue;
      }
      bin_out=$("$CLI" -algo "$name" -graph "$tmp/g.bsadj" -src 1 \
                       -threads 1 -json) || {
        echo "FAIL $name: binary run exited nonzero"; fail=1; continue;
      }
      printf '%s' "$bin_out" | grep -q '"graph_source": "mapped-nvram"' || {
        echo "FAIL $name: binary run not marked mapped-nvram"; fail=1;
      }
      if [ "$(extract_comparable "$text_out")" != \
           "$(extract_comparable "$bin_out")" ]; then
        echo "FAIL $name: text and mapped-binary runs diverge"
        echo "--- text ---";   extract_comparable "$text_out"
        echo "--- binary ---"; extract_comparable "$bin_out"
        fail=1
      else
        echo "ok $name (text == mapped binary)"
      fi
    done
    exit $fail
    ;;
  --sharded)
    tmp=$(mktemp -d) || { echo "FAIL: mktemp"; exit 1; }
    trap 'rm -rf "$tmp"' EXIT
    # One generated graph, serialized both as a monolithic .bsadj and as a
    # 4-shard .bsadjx manifest through the CLI's own conversion flags.
    "$CLI" -gen rmat -logn 10 -edges 8000 -convert "$tmp/g.bsadj" \
      >/dev/null || {
      echo "FAIL: -convert to binary exited nonzero"; exit 1;
    }
    out=$("$CLI" -graph "$tmp/g.bsadj" -convert-sharded "$tmp/g.bsadjx" \
                 -shards 4) || {
      echo "FAIL: -convert-sharded exited nonzero"; exit 1;
    }
    printf '%s' "$out" | grep -q "shards=4" || {
      echo "FAIL: -convert-sharded did not report shards=4: $out"; exit 1;
    }
    for s in 0 1 2 3; do
      [ -f "$tmp/g.shard$s.bsadj" ] || {
        echo "FAIL: segment g.shard$s.bsadj missing"; exit 1;
      }
    done
    names=$("$CLI" -list-names) || { echo "FAIL: -list-names"; exit 1; }
    fail=0
    for name in $names; do
      # -threads 1 pins scheduling (see --binary-all); the sharded run must
      # be bit-identical to the monolithic mapped run - the ShardParity
      # contract, end to end through the CLI.
      mono_out=$("$CLI" -algo "$name" -graph "$tmp/g.bsadj" -src 1 \
                        -threads 1 -json) || {
        echo "FAIL $name: monolithic run exited nonzero"; fail=1; continue;
      }
      shard_out=$("$CLI" -algo "$name" -graph "$tmp/g.bsadjx" -src 1 \
                         -threads 1 -json) || {
        echo "FAIL $name: sharded run exited nonzero"; fail=1; continue;
      }
      printf '%s' "$shard_out" | grep -q '"graph_source": "mapped-nvram"' || {
        echo "FAIL $name: sharded run not marked mapped-nvram"; fail=1;
      }
      printf '%s' "$shard_out" | grep -q '"per_shard"' || {
        echo "FAIL $name: sharded run lacks the per_shard block"; fail=1;
      }
      if [ "$(extract_comparable "$mono_out")" != \
           "$(extract_comparable "$shard_out")" ]; then
        echo "FAIL $name: monolithic and sharded runs diverge"
        echo "--- monolithic ---"; extract_comparable "$mono_out"
        echo "--- sharded ---";    extract_comparable "$shard_out"
        fail=1
      else
        echo "ok $name (monolithic == sharded)"
      fi
    done
    exit $fail
    ;;
  --serve)
    tmp=$(mktemp -d) || { echo "FAIL: mktemp"; exit 1; }
    trap 'rm -rf "$tmp"' EXIT
    fail=0
    common="-algo bfs -gen rmat -logn 10 -edges 8000 -src 1 -threads 1"

    # Leg 1: a repeated cached query. The first run misses, the second hits,
    # and the two reports agree bit-for-bit on summary and counters.
    out=$("$CLI" $common -cache -repeat 2 -json) || {
      echo "FAIL serve: cached repeat run exited nonzero"; exit 1;
    }
    hits=$(printf '%s\n' "$out" | grep '"cache_hit"')
    if [ "$(printf '%s\n' "$hits" | wc -l)" != 2 ]; then
      echo "FAIL serve: expected 2 cache_hit fields, got:"; echo "$hits"
      fail=1
    fi
    printf '%s\n' "$hits" | sed -n 1p | grep -q false || {
      echo "FAIL serve: first run must miss the cold cache"; fail=1;
    }
    printf '%s\n' "$hits" | sed -n 2p | grep -q true || {
      echo "FAIL serve: repeat run must hit the cache"; fail=1;
    }
    if [ "$(printf '%s\n' "$out" | grep -c '"summary"')" != 2 ] || \
       [ "$(printf '%s\n' "$out" | grep '"summary"' | sort -u | wc -l)" != 1 ]
    then
      echo "FAIL serve: cached and fresh summaries diverge"; fail=1
    fi
    if [ "$(printf '%s\n' "$out" | grep '"counters"' | sort -u | wc -l)" != 1 ]
    then
      echo "FAIL serve: cached and fresh counters diverge"; fail=1
    fi
    [ $fail = 0 ] && echo "ok serve: repeat hits the cache bit-identically"

    # Leg 2: an epoch bump between repeats invalidates - both runs miss and
    # the second executes on the bumped epoch.
    echo "1 1000" > "$tmp/updates.txt"
    out=$("$CLI" $common -cache -repeat 2 \
                 -updates-between "$tmp/updates.txt" -json) || {
      echo "FAIL serve: updates-between run exited nonzero"; exit 1;
    }
    if printf '%s\n' "$out" | grep '"cache_hit"' | grep -q true; then
      echo "FAIL serve: epoch bump must invalidate the cache"; fail=1
    else
      printf '%s\n' "$out" | grep -q '"graph_epoch": 1' || {
        echo "FAIL serve: second run must execute on epoch 1"; fail=1;
      }
    fi
    [ $fail = 0 ] && echo "ok serve: epoch bump misses the cache"

    # Leg 3: an already-expired deadline surfaces DeadlineExceeded (checked
    # at dequeue - queue wait counts against the deadline).
    if err=$("$CLI" $common -deadline-ms 0.000001 -json 2>&1); then
      echo "FAIL serve: expired deadline must exit nonzero"; fail=1
    elif ! printf '%s\n' "$err" | grep -q DeadlineExceeded; then
      echo "FAIL serve: expected DeadlineExceeded, got: $err"; fail=1
    else
      echo "ok serve: expired deadline rejected"
    fi

    # Leg 4: -tenant routes through the named tenant and -stats renders the
    # serving stats document with its counters.
    out=$("$CLI" $common -cache -repeat 2 -tenant web \
                 -deadline-ms 30000 -json -stats) || {
      echo "FAIL serve: tenant/stats run exited nonzero"; exit 1;
    }
    for needle in '"web"' '"cache_hits": 1' '"p99_seconds"' '"tenants"'; do
      printf '%s\n' "$out" | grep -qF "$needle" || {
        echo "FAIL serve: stats JSON lacks $needle"; fail=1;
      }
    done
    [ $fail = 0 ] && echo "ok serve: tenant + stats surface"
    exit $fail
    ;;
  --prefetch)
    tmp=$(mktemp -d) || { echo "FAIL: mktemp"; exit 1; }
    trap 'rm -rf "$tmp"' EXIT
    "$CLI" -gen rmat -logn 10 -edges 8000 -convert "$tmp/g.bsadj" \
      >/dev/null || {
      echo "FAIL: -convert to binary exited nonzero"; exit 1;
    }
    common="-algo bfs -graph $tmp/g.bsadj -src 1 -threads 2 -json"
    off=$("$CLI" $common) || {
      echo "FAIL prefetch: run without -prefetch exited nonzero"; exit 1;
    }
    on=$("$CLI" $common -prefetch) || {
      echo "FAIL prefetch: -prefetch run exited nonzero"; exit 1;
    }
    fail=0
    # -threads sets the scheduler's width once, before the graph loads.
    for out in "$off" "$on"; do
      printf '%s\n' "$out" | grep -q '"threads": 2,' || {
        echo "FAIL prefetch: a run does not report \"threads\": 2"; fail=1;
      }
    done
    printf '%s\n' "$off" | grep -q '"prefetch_enabled": false' || {
      echo "FAIL prefetch: the run without -prefetch reports a pipeline"
      fail=1
    }
    printf '%s\n' "$on" | grep -q '"prefetch_enabled": true' || {
      echo "FAIL prefetch: the -prefetch run reports no pipeline"; fail=1;
    }
    waves=$(printf '%s\n' "$on" |
            sed -n 's/.*"prefetch_waves": \([0-9]*\).*/\1/p')
    [ "${waves:-0}" -gt 0 ] || {
      echo "FAIL prefetch: the -prefetch run enqueued no waves"; fail=1;
    }
    # Prefetch is off the PSAM critical path: the answer and the modeled
    # cost must not move.
    comparable() { printf '%s\n' "$1" | grep -E '"summary"|"psam_cost"'; }
    if [ "$(comparable "$off")" != "$(comparable "$on")" ]; then
      echo "FAIL prefetch: runs with and without -prefetch diverge"
      echo "--- off ---"; comparable "$off"
      echo "--- on ---";  comparable "$on"
      fail=1
    fi
    [ $fail = 0 ] && echo "ok prefetch: waves=$waves, same summary and cost"
    exit $fail
    ;;
  --unknown-flag)
    if err=$("$CLI" -algo bfs -gen rmat -logn 8 -edges 2000 -no-such-flag \
                  2>&1); then
      echo "FAIL: an unknown flag must exit nonzero"; exit 1
    fi
    printf '%s\n' "$err" | grep -q -- "-no-such-flag" || {
      echo "FAIL: the error must name the flag, got: $err"; exit 1;
    }
    echo "ok unknown flag rejected"
    exit 0
    ;;
  --all)
    names=$("$CLI" -list-names) || { echo "FAIL: -list-names exited nonzero"; exit 1; }
    [ -n "$names" ] || { echo "FAIL: -list-names printed nothing"; exit 1; }
    fail=0
    for name in $names; do
      run_one "$name" || fail=1
    done
    exit $fail
    ;;
  --expect)
    want=$3
    got=$("$CLI" -list-names | tr '\n' ' ' | sed 's/ *$//')
    if [ "$got" != "$want" ]; then
      echo "FAIL: registry and smoke matrix drifted"
      echo " want: $want"
      echo "  got: $got"
      echo "update SAGE_CLI_SMOKE_ALGOS in examples/CMakeLists.txt"
      exit 1
    fi
    exit 0
    ;;
  *)
    run_one "$MODE"
    ;;
esac
