#!/bin/sh
# The census of ROADMAP item 17: which production `pub fn`s does nothing
# but a test, an example or an integration suite call?
#
# In a temporary copy of the tree, every `pub fn` (and `pub const fn`) in
# production code -- the lines above the first `#[cfg(test)]` of each .rs
# file under crates/*/src and src/, as scripts/loc.sh counts them, the
# test-only proptest shim excluded -- becomes `pub(crate)`.  `cargo check`
# of the production targets (every workspace library and binary) and of
# the frozen benchmark probes then says which of them are needed across
# crates: each privacy error restores the function it names, until both
# checks pass.  What the compiler's `dead_code` lint reports after that
# is production code that no production path and no probe calls.
#
# Each reported item is printed as `Type::name` (or `module::name` for a
# free function) with its location.  The script exits 1 if any of them
# is missing from DESIGN.md §5's list of kept test, probe and example
# API, or if that list names something the census no longer reports.
#
# Run from anywhere; POSIX sh + awk + cargo, no other dependencies.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/census.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

tar --exclude=./target --exclude=./.git -cf - . | (cd "$work" && tar -xf -)
cd "$work"
export CARGO_TARGET_DIR="$work/target"

# Rewrite: `pub fn` -> `pub(crate) fn`, remembering each site as file:line.
find crates/*/src src -name '*.rs' | grep -v '^crates/proptest-shim/' | sort |
while read -r f; do
    awk -v f="$f" -v list="$work/rewritten" '
        /^[ \t]*#\[cfg\(test\)\]/ { t = 1 }
        !t && /^[ \t]*pub (const )?fn / {
            sub(/pub /, "pub(crate) "); print f ":" FNR >> list
        }
        { print }' "$f" > "$f.census"
    mv "$f.census" "$f"
done

# Diagnostics as flat records, one per line:
#   M <level> <code>                   a compiler message, then its spans:
#   S <top|child> <primary> <file> <line> <col>
# A tiny JSON scanner: it tracks object depth outside strings and keeps,
# per depth, only that object's own keys, so a span's nested `text` and
# `expansion` objects cannot shadow its fields.
diagnostics() {
    awk -v work="$work/" '
        function field(obj, key,    m) {
            if (!match(obj, "\"" key "\":(\"[^\"]*\"|[^,}]*)")) return ""
            m = substr(obj, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
            gsub(/"/, "", m)
            return m
        }
        !/"reason":"compiler-message"/ { next }
        {
            n = length($0); d = 0; ns = 0; code = "-"
            for (i = 1; i <= n; i++) {
                c = substr($0, i, 1)
                if (c == "\"") {
                    match(substr($0, i), /^"([^"\\]|\\.)*"/)
                    buf[d] = buf[d] substr($0, i, RLENGTH); i += RLENGTH - 1
                    continue
                }
                if (c == "{") { buf[++d] = ""; continue }
                if (c != "}") { buf[d] = buf[d] c; continue }
                obj = buf[d--]; buf[d] = buf[d] "{}"
                if (d == 2 && obj ~ /"explanation":/) code = field(obj, "code")
                if (d == 1 && obj ~ /"\$message_type":/) level = field(obj, "level")
                if ((d == 2 || d == 3) && obj ~ /"file_name":"/) {
                    file = field(obj, "file_name")
                    if (index(file, work) == 1) file = substr(file, length(work) + 1)
                    span[++ns] = (d == 2 ? "top" : "child") " " \
                        (field(obj, "is_primary") == "true") " " file " " \
                        field(obj, "line_start") " " field(obj, "column_start")
                }
            }
            print "M", level, code
            for (k = 1; k <= ns; k++) print "S", span[k]
        }'
}

check() {
    cargo check --offline --quiet --keep-going --workspace --lib --bins \
        --message-format=json 2>/dev/null || true
    cargo check --offline --quiet --keep-going \
        --manifest-path benchmark/probes/Cargo.toml \
        --message-format=json 2>/dev/null || true
}

# The identifier at file:line:col (the last segment of a path there), or
# the name the line declares when the span starts at its visibility keyword.
ident_awk='
    function ident(file, line, col,    s, k, t) {
        k = 0; s = ""
        while (k < line && (getline t < file) > 0) { k++; if (k == line) s = t }
        close(file)
        t = substr(s, col)
        if (match(t, /^(pub|fn|const|struct|enum|static|type|trait)[^A-Za-z0-9_]/) &&
            match(s, /(fn|const|struct|enum|static|type|trait) +[A-Za-z_][A-Za-z0-9_]*/)) {
            t = substr(s, RSTART, RLENGTH); sub(/^[a-z]+ +/, "", t); return t
        }
        match(t, /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*/)
        t = substr(t, 1, RLENGTH); sub(/.*::/, "", t)
        return t
    }'

round=0
while :; do
    round=$((round + 1))
    check | diagnostics > "$work/diag"
    # Sites to restore: every rewritten line an error points at; for an
    # error that points at none (a method call that fell through to
    # another candidate, a re-export), every rewritten `fn` of the name
    # at its primary span.
    awk "$ident_awk"'
        FILENAME == ARGV[1] { rewritten[$0] = 1; next }
        function flush() {
            if (!err) return
            errors++
            if (!hit) for (k = 1; k <= np; k++) byname[prim[k]] = 1
        }
        $1 == "M" { flush(); err = $2 == "error"; hit = 0; np = 0; next }
        err && $1 == "S" {
            key = $4 ":" $5
            if (key in rewritten) { restore[key] = 1; hit = 1 }
            else if ($2 == "top" && $3 == 1) prim[++np] = ident($4, $5, $6)
        }
        END {
            flush()
            for (key in rewritten) {
                split(key, p, ":")
                k = 0
                while (k < p[2] && (getline t < p[1]) > 0) k++
                close(p[1])
                if (t !~ /pub\(crate\) (const )?fn /) continue
                if (key in restore) { print key; continue }
                if (match(t, /fn [A-Za-z_][A-Za-z0-9_]*/) &&
                    substr(t, RSTART + 3, RLENGTH - 3) in byname) print key
            }
            if (errors) print "errors " errors > "/dev/stderr"
        }' "$work/rewritten" "$work/diag" > "$work/restore" 2> "$work/errors" || true
    if [ ! -s "$work/errors" ]; then
        break
    fi
    if [ ! -s "$work/restore" ] || [ "$round" -ge 20 ]; then
        echo "census: the checks fail and no rewritten pub fn explains it:" >&2
        cargo check --offline --workspace --lib --bins >&2 || true
        cargo check --offline --manifest-path benchmark/probes/Cargo.toml >&2 || true
        exit 2
    fi
    sort "$work/restore" | while IFS=: read -r f l; do
        sed -i "${l}s/pub(crate) /pub /" "$f"
    done
done

# What dead_code reports, qualified by the enclosing impl/struct/enum or
# inline module (a free item by its file: the file's stem, the directory
# of a mod.rs, or the crate's directory for lib.rs and main.rs).
awk "$ident_awk"'
    function owner(file, line,    k, t, o, m) {
        k = 0; o = ""
        while (k < line && (getline t < file) > 0) {
            k++
            if (t ~ /^}/) o = ""
            else if (match(t, /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{/)) {
                sub(/^(pub(\([a-z]+\))? )?mod /, "", t); sub(/ .*/, "", t); o = t
            } else if (match(t, /^(pub(\([a-z]+\))? )?(impl|struct|enum|trait|union)[ <]/)) {
                sub(/^(pub(\([a-z]+\))? )?[a-z]+/, "", t)
                if (t ~ /^</) { m = 0
                    while (t != "") { c = substr(t, 1, 1); t = substr(t, 2)
                        if (c == "<") m++; else if (c == ">" && --m == 0) break } }
                sub(/^[ \t]+/, "", t); sub(/^dyn +/, "", t)
                match(t, /^[A-Za-z_][A-Za-z0-9_]*/); o = substr(t, 1, RLENGTH)
            }
        }
        close(file)
        if (o != "") return o
        n = split(file, p, "/"); m = p[n]; sub(/\.rs$/, "", m)
        if (m == "mod") m = p[n - 1]
        else if (m == "lib" || m == "main") m = p[1] == "crates" ? p[2] : "gridmon"
        return m
    }
    $1 == "M" { dead = $3 == "dead_code"; next }
    dead && $1 == "S" && $2 == "top" && $3 == 1 && $4 !~ /^\// {
        name = owner($4, $5) "::" ident($4, $5, $6)
        if (!seen[name]++) printf "%-40s %s:%s\n", name, $4, $5
    }' "$work/diag" | sort > "$work/dead"

# DESIGN.md §5's kept list: the first backticked name of each bullet
# under its "Kept API" heading.
awk '
    /^#+ / { on = /^#+ Kept API/; next }
    on && /^- `[^`]*`/ { s = $0; sub(/^- `/, "", s); sub(/`.*/, "", s); print s }
' "$root/DESIGN.md" | sort -u > "$work/kept"

echo "census: $(wc -l < "$work/rewritten") production pub fns," \
    "$(wc -l < "$work/dead") dead outside production and the probes:"
cat "$work/dead"
status=0
for name in $(awk '{ print $1 }' "$work/dead"); do
    grep -qxF "$name" "$work/kept" && continue
    echo "census: $name is not in DESIGN.md §5's kept list" >&2
    status=1
done
for name in $(cat "$work/kept"); do
    awk -v n="$name" '$1 == n { found = 1 } END { exit !found }' "$work/dead" && continue
    echo "census: DESIGN.md §5 keeps $name, which the census no longer reports" >&2
    status=1
done
exit $status
