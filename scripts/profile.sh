#!/bin/sh
# Attribute a command's CPU time, or its heap allocations, by sampling it:
#
#   sh scripts/profile.sh [--runs N] [--grep REGEX] [--alloc N] BIN ARGS...
#
# Builds scripts/sampler.c (an LD_PRELOAD SIGPROF sampler: one leaf PC
# per millisecond of CPU as armed), runs `BIN ARGS...` N times under it
# (default 1) with address randomization off, so every run has the same
# layout, and symbolizes the merged samples once with addr2line.  The
# command's own stdout goes to stderr.  Prints the samples taken per
# CPU-second of the runs (the kernel may deliver fewer than the 1 000
# armed), then three tables, as shares of all samples:
#
#   outermost  the function the PC is in once inlining is undone
#   inclusive  any function in the PC's inline chain
#   leaf       the innermost inline frame
#
# and with --grep, the share of samples whose inline chain (frames
# joined by " < ", leaf first) matches REGEX.  Samples outside BIN
# (libc, the loader) count by object and are not symbolized.
#
# --alloc N samples allocations instead: the sampler interposes malloc,
# calloc, realloc and posix_memalign and takes a backtrace of every Nth
# call.  Each return address inside BIN is symbolized with its inline
# chain.  Frames inside the global allocator (everything innermost of
# `__rust_alloc` and its siblings) and frames of the Rust standard
# library (Vec growth, Box::new) are skipped, so a sample is charged to
# the code that asked for the memory.  Two tables:
#
#   site   the innermost frame outside the standard library, with its
#          file:line
#   chain  the three innermost such frames, joined by " < "
#
# and with --grep, the share of samples whose whole chain matches REGEX.
# Either way, exits 1 if no sample lands inside BIN.  Needs cc, setarch, addr2line, c++filt
# and a release build with line tables (the workspace profile has
# them); POSIX sh + awk, x86-64 Linux.  llvm-addr2line is used when
# present: binutils' addr2line names the innermost frame of a Rust
# inline chain after the enclosing symbol, which blurs the leaf table.
# Either way c++filt demangles, since older LLVM demanglers leave
# `$LT$`-escapes in.
set -eu
runs=1
grep=
alloc=
while [ $# -gt 0 ]; do
    case $1 in
    --runs) runs=$2; shift 2 ;;
    --grep) grep=$2; shift 2 ;;
    --alloc) alloc=$2; shift 2 ;;
    *) break ;;
    esac
done
if [ $# -eq 0 ]; then
    echo "usage: sh scripts/profile.sh [--runs N] [--grep REGEX] [--alloc N] BIN ARGS..." >&2
    exit 2
fi
bin=$(readlink -f "$(command -v "$1")")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$(dirname "$0")/sampler.c"

i=0
while [ "$i" -lt "$runs" ]; do
    i=$((i + 1))
    setarch "$(uname -m)" -R env LD_PRELOAD="$tmp/sampler.so" \
        ${alloc:+SAMPLER_ALLOC="$alloc"} SAMPLER_OUT="$tmp/run$i" "$@" >&2
done

# Each PC becomes an offset into BIN (counted per offset) or the name of
# the object it fell in.  A backtrace becomes one line of the offsets of
# its return addresses inside BIN, each less one so it lands inside the
# call, or the object of its innermost frame when none is.
: >"$tmp/outside"
: >"$tmp/traces"
awk -v bin="$bin" -v out="$tmp" '
    function hex(s,   v, i) {
        v = 0
        for (i = 1; i <= length(s); i++)
            v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
    }
    FNR == 1 { nmap = 0; base = -1 }
    $1 == "map" && $3 ~ /x/ {
        split($2, r, "-")
        lo[++nmap] = hex(r[1]); hi[nmap] = hex(r[2]); obj[nmap] = $7
    }
    $1 == "map" && $7 == bin && $4 ~ /^0+$/ { base = hex(substr($2, 1, index($2, "-") - 1)) }
    function object(pc,   m, n, p) {
        for (m = 1; m <= nmap; m++)
            if (pc >= lo[m] && pc < hi[m]) {
                if (obj[m] == bin && base >= 0) return ""
                n = split(obj[m], p, "/"); return "[" p[n] "]"
            }
        return "[unmapped]"
    }
    $1 == "allocs" { calls += $2; every = $3 }
    $1 == "cpu" { cpu += $2 }
    $1 == "pc" {
        pc = hex($2); total++; where = object(pc)
        if (where == "") in_bin[sprintf("%x", pc - base)]++
        else outside[where]++
    }
    $1 == "bt" {
        total++; line = ""; first = ""
        for (i = 2; i <= NF; i++) {
            pc = hex($i); where = object(pc)
            if (where != "") { if (first == "") first = where; continue }
            a = sprintf("%x", pc - base - 1); line = line " " a
            if (!(a in in_bin)) in_bin[a] = 0
        }
        if (line != "") { print substr(line, 2) > (out "/traces"); inside++ }
        else outside[first == "" ? "[unmapped]" : first]++
    }
    END {
        for (a in in_bin) { print a > (out "/addrs"); print a, in_bin[a] > (out "/counts"); inside += in_bin[a] }
        for (o in outside) print o, outside[o] > (out "/outside")
        rate = cpu > 0 ? sprintf("%.0f", total / cpu) : "?"
        print total + 0, inside + 0, calls + 0, every + 0, cpu + 0, rate > (out "/totals")
    }' "$tmp"/run*
read -r total inside calls every cpu rate <"$tmp/totals"
if [ -n "$alloc" ]; then
    echo "$calls allocation calls over $runs run(s), one backtrace per $every:" \
        "$total samples, $inside inside $bin"
else
    echo "$total samples over $runs run(s) and $cpu CPU-seconds ($rate per" \
        "CPU-second, 1000 armed), $inside inside $bin"
fi
[ "$inside" -gt 0 ] || exit 1
a2l=addr2line
if command -v llvm-addr2line >/dev/null; then a2l="llvm-addr2line --no-demangle"; fi
$a2l -a -f -i -e "$bin" <"$tmp/addrs" | c++filt >"$tmp/syms"

if [ -n "$alloc" ]; then
    awk -v total="$total" -v re="$grep" -v root="$PWD/" '
        function top(title, a,   k, cmd) {
            printf "\n%s\n", title
            cmd = "sort -rn | head -25"
            for (k in a) printf "%6.1f %%  %7d  %s\n", 100 * a[k] / total, a[k], k | cmd
            close(cmd)
        }
        FILENAME ~ /addrs$/ { id[$1] = ++na; next }
        FILENAME ~ /outside$/ { site[$1] += $2; chains[$1] += $2; next }
        FILENAME ~ /syms$/ {
            if (/^0x/) { k++; nf[k] = 0; odd = 1; next }
            if (odd) { sub(/::h[0-9a-f]+$/, ""); fn[k, ++nf[k]] = $0 }
            else {
                if (index($0, root) == 1) $0 = substr($0, length(root) + 1)
                loc[k, nf[k]] = $0
            }
            odd = !odd; next
        }
        {
            m = 0; cut = 0
            for (i = 1; i <= NF; i++) {
                a = id[$i]
                for (j = 1; j <= nf[a]; j++) {
                    F[++m] = fn[a, j]; L[m] = loc[a, j]
                    if (F[m] ~ /__rust_(alloc|realloc|alloc_zeroed)$/) cut = m
                }
            }
            s = ""; chain = ""; all = ""; depth = 0
            for (i = cut + 1; i <= m; i++) {
                if (L[i] ~ /^(\/rustc\/|\?)/) continue
                all = all (all == "" ? "" : " < ") F[i]
                if (s == "") s = F[i] " (" L[i] ")"
                if (depth++ < 3) chain = chain (chain == "" ? "" : " < ") F[i]
            }
            if (s == "") s = chain = "[standard library only]"
            site[s]++; chains[chain]++
            if (re != "" && all ~ re) hit++
        }
        END {
            top("site (innermost frame outside the standard library)", site)
            top("chain (three innermost frames outside the standard library)", chains)
            if (re != "") printf "\n%6.1f %%  %7d  match /%s/\n", 100 * hit / total, hit, re
        }' "$tmp/addrs" "$tmp/outside" "$tmp/syms" "$tmp/traces"
    exit 0
fi

awk -v total="$total" -v re="$grep" -v out="$tmp" '
    function top(title, a,   k, cmd) {
        printf "\n%s\n", title
        cmd = "sort -rn | head -20"
        for (k in a) printf "%6.1f %%  %7d  %s\n", 100 * a[k] / total, a[k], k | cmd
        close(cmd)
    }
    FILENAME ~ /counts$/ { count[++na] = $2; next }
    FILENAME ~ /outside$/ { leaf[$1] += $2; outer[$1] += $2; incl[$1] += $2; next }
    /^0x/ { k++; nf[k] = 0; odd = 1; next }
    odd { sub(/::h[0-9a-f]+$/, ""); f[k, ++nf[k]] = $0 }
    { odd = !odd }
    END {
        for (i = 1; i <= k; i++) {
            c = count[i]; chain = ""
            delete seen
            for (j = 1; j <= nf[i]; j++) {
                fn = f[i, j]
                if (!(fn in seen)) { seen[fn] = 1; incl[fn] += c }
                chain = chain (j > 1 ? " < " : "") fn
            }
            leaf[f[i, 1]] += c; outer[f[i, nf[i]]] += c
            if (re != "" && chain ~ re) hit += c
        }
        top("outermost frame", outer); top("inclusive (any inline frame)", incl); top("leaf", leaf)
        if (re != "") printf "\n%6.1f %%  %7d  match /%s/\n", 100 * hit / total, hit, re
    }' "$tmp/counts" "$tmp/outside" "$tmp/syms"
