#!/usr/bin/env python3
"""Repo-specific invariant lint (DESIGN.md §11.4).

Enforces contracts the compiler cannot know about:

  hot-map         No std::unordered_map / std::unordered_set in the hot-path
                  directories (src/runtime/, src/core/, src/data/, src/worker/).
                  Steady-state instantiation and worker ingest are designed around
                  dense-id flat arrays and sorted vectors; a hash map on those paths is
                  either a perf bug or needs a written justification.
  send-kind       Every Network::Send call site passes an explicit MessageKind
                  argument. (The parameter has no default, so the compiler enforces
                  this too; the lint keeps a default from being quietly reintroduced
                  and catches sites behind #if blocks the current build skips.)
  decoder-bounds  Every raw cursor advance or raw buffer access in the wire decoders
                  (src/common/serialize.h, src/task/wire.cc) has a bounds check
                  (NIMBUS_CHECK_LE / remaining()) or goes through the checked
                  ExtractRaw helper within the preceding few lines.
  map-invalidate  Every controller function that mutates the version map (directly
                  via versions_.*, or through the pipeline's EnsureObjectsExist /
                  ApplyEffects sweeps) also calls InvalidateLookahead, so the
                  overlapped precondition sweep can never be consumed against a map
                  it did not read.
  counters-register  Every *Counters struct in src/common/stats.h is self-describing:
                  it declares kGroupName and VisitFields so it can register with the
                  metrics registry (src/common/metrics.h). A counter struct without
                  them is invisible to every registry-driven report.
  byte-loop       No per-byte WriteU8 loop over a blob anywhere in src/: a loop whose
                  body (the `for` line and the two after it) calls WriteU8 on the loop
                  variable itself or on an element indexed by it. Blobs and id arrays go
                  through BlobWriter::WriteBytes in one copy (DESIGN.md §10.1); one
                  push_back per byte costs ~70x a memcpy on the serialized-dispatch path.
  node-boundary   No file under src/controller/ includes a src/worker/ header, and no
                  file under src/worker/ includes a src/controller/ header. Controller
                  and workers are nodes: they name each other by id and meet only
                  through the transport and the wire envelopes (src/net/, src/task/).
                  An include across the boundary is what a direct call needs first.
  pricing-boundary  No CostModel, Processor, CorePool or costs_ token in the code (comments
                  stripped) of src/controller/ or src/worker/. Nodes report typed work
                  through their sim::WorkMeter, and CostModel::Price is the one table that
                  prices it (DESIGN.md §8.2); a node that reads a constant or books its own
                  simulator resource has started pricing again.

Suppression mechanism
---------------------
A violation is silenced by a comment on the same line or one of the two lines above:

    // lint:allow(<rule>) -- <reason>

The reason is mandatory; an allow without one is itself an error, and so is an
allow that no longer suppresses anything (stale suppressions rot).

Exit status 0 = clean, 1 = violations found, 2 = usage error.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

HOT_DIRS = ("src/runtime", "src/core", "src/data", "src/worker")
DECODER_FILES = ("src/common/serialize.h", "src/task/wire.cc")
CONTROLLER_GLOB = "src/controller/*.cc"
SEND_SCAN_DIRS = ("src", "tests", "bench")

ALLOW_RE = re.compile(r"lint:allow\(([\w\-, ]+)\)\s*(?:--\s*(.*))?")
RULES = ("hot-map", "send-kind", "decoder-bounds", "map-invalidate", "counters-register",
         "byte-loop", "node-boundary", "pricing-boundary")

STATS_FILE = "src/common/stats.h"

# node-boundary: each node directory and the directory its files must not include.
NODE_BOUNDARIES = (("src/controller", "src/worker"), ("src/worker", "src/controller"))
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# pricing-boundary: node directories and the pricing names their code must not use.
PRICING_DIRS = ("src/controller", "src/worker")
PRICING_RE = re.compile(r"\b(CostModel|Processor|CorePool|costs_)\b")

# decoder-bounds: a raw access must see one of these within the window above it.
DECODER_WINDOW = 4
DECODER_ACCESS_RE = re.compile(
    r"pos_\s*\+\+|pos_\s*\+=|blob_\s*\[|blob_\.data\(\)\s*\+\s*pos_")
DECODER_CHECK_RE = re.compile(r"NIMBUS_CHECK_LE|remaining\(\)|ExtractRaw\s*\(")

# byte-loop: a `for` header, the names it declares, and a WriteU8 call's argument.
BYTE_LOOP_WINDOW = 2
FOR_HEADER_RE = re.compile(r"\bfor\s*\((.*)")
LOOP_VAR_RE = re.compile(r"(\w+)\s*(?:=(?!=)|(?<!:):(?!:))")
WRITE_U8_RE = re.compile(r"WriteU8\s*\((.*)\)\s*;")
CAST_RE = re.compile(r"^static_cast<[^>]*>\((.*)\)$")

# map-invalidate: mutation entry points into the version map from the controller.
MUTATION_RE = re.compile(
    r"versions_\.(RecordCopyToLatest|DropWorker|Restore|CreateObject|InternWorker|"
    r"AdvanceVersions)\s*\(|pipeline_\.(ApplyEffects|EnsureObjectsExist)\s*\(|"
    r"(?<![\w.>])EnsureObjectsExist\s*\(")
FUNC_DEF_RE = re.compile(r"^[A-Za-z_][\w:<>,&*~\s]*::\w+\s*\(")


class Source:
    """A file with comment-stripped lines and its lint:allow suppressions."""

    def __init__(self, path: Path):
        self.path = path
        self.rel = path.relative_to(REPO).as_posix()
        raw = path.read_text(encoding="utf-8").splitlines()
        self.raw = raw
        self.code = [self._strip(line) for line in raw]
        # line number (1-based) -> (set of rules, reason, used flag holder)
        self.allows = {}
        for i, line in enumerate(raw, start=1):
            m = ALLOW_RE.search(line)
            if m is not None:
                rules = {r.strip() for r in m.group(1).split(",")}
                reason = (m.group(2) or "").strip()
                self.allows[i] = {"rules": rules, "reason": reason, "used": False}

    @staticmethod
    def _strip(line: str) -> str:
        # Strip // comments and string/char literals; block comments are not used for
        # code in this repo, so line comments are the only case that matters.
        line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
        return line.split("//", 1)[0]

    def allowed(self, rule: str, lineno: int) -> bool:
        """True (and marks the suppression used) if an allow covers this line."""
        for cand in (lineno, lineno - 1, lineno - 2):
            entry = self.allows.get(cand)
            if entry is not None and rule in entry["rules"]:
                entry["used"] = True
                return True
        return False


def emit(errors, src, lineno, rule, message):
    errors.append(f"{src.rel}:{lineno}: [{rule}] {message}")


# ------------------------------------------------------------------------------------
# Rule: hot-map
# ------------------------------------------------------------------------------------

def check_hot_map(src: Source, errors):
    for i, line in enumerate(src.code, start=1):
        if "std::unordered_map<" in line or "std::unordered_set<" in line:
            if not src.allowed("hot-map", i):
                emit(errors, src, i, "hot-map",
                     "hash map in a hot-path directory; use a dense-id flat array or "
                     "sorted vector, or justify with lint:allow(hot-map) -- <reason>")


# ------------------------------------------------------------------------------------
# Rule: send-kind
# ------------------------------------------------------------------------------------

SEND_CALL_RE = re.compile(r"(?:\.|->)Send\s*\(")


def check_send_kind(src: Source, errors):
    text = "\n".join(src.code)
    for m in SEND_CALL_RE.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        # Walk the balanced argument list (lambda bodies nest braces and parens).
        depth = 0
        end = None
        for j in range(m.end() - 1, len(text)):
            c = text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        if end is None:
            emit(errors, src, lineno, "send-kind", "unbalanced Send call")
            continue
        args = text[m.end():end]
        if "MessageKind::" not in args:
            if not src.allowed("send-kind", lineno):
                emit(errors, src, lineno, "send-kind",
                     "Send call without an explicit MessageKind argument")


# ------------------------------------------------------------------------------------
# Rule: decoder-bounds
# ------------------------------------------------------------------------------------

def check_decoder_bounds(src: Source, errors):
    for i, line in enumerate(src.code, start=1):
        if not DECODER_ACCESS_RE.search(line):
            continue
        window = src.code[max(0, i - 1 - DECODER_WINDOW):i]  # this line + lines above
        if any(DECODER_CHECK_RE.search(w) for w in window):
            continue
        if not src.allowed("decoder-bounds", i):
            emit(errors, src, i, "decoder-bounds",
                 "raw decoder access without a bounds check (NIMBUS_CHECK_LE / "
                 f"remaining() / ExtractRaw) within the preceding {DECODER_WINDOW} lines")


# ------------------------------------------------------------------------------------
# Rule: map-invalidate
# ------------------------------------------------------------------------------------

def check_map_invalidate(src: Source, errors):
    # Split into function bodies: a column-0 `Type Class::Name(` line starts one.
    starts = [i for i, line in enumerate(src.code, start=1) if FUNC_DEF_RE.match(line)]
    bounds = list(zip(starts, starts[1:] + [len(src.code) + 1]))
    for begin, end in bounds:
        body = src.code[begin - 1:end - 1]
        mutation_line = None
        for off, line in enumerate(body):
            if MUTATION_RE.search(line):
                mutation_line = begin + off
                break
        if mutation_line is None:
            continue
        if any("InvalidateLookahead" in line for line in body):
            continue
        # A function-level allow anywhere in the body suppresses (reads better at the
        # top of the function than glued to one of several mutation lines).
        covered = False
        for lineno in range(begin, end):
            entry = src.allows.get(lineno)
            if entry is not None and "map-invalidate" in entry["rules"]:
                entry["used"] = True
                covered = True
        if not covered:
            emit(errors, src, mutation_line, "map-invalidate",
                 "version-map mutation in a function that never calls "
                 "InvalidateLookahead; stale overlapped sweeps could be consumed")


# ------------------------------------------------------------------------------------
# Rule: counters-register
# ------------------------------------------------------------------------------------

COUNTERS_DEF_RE = re.compile(r"^\s*struct\s+(\w+Counters)\b")


def check_counters_register(src: Source, errors):
    for i, line in enumerate(src.code, start=1):
        m = COUNTERS_DEF_RE.match(line)
        if m is None:
            continue
        # Skip the CRTP helper itself (and any future templated base): a template
        # header line directly above marks it as infrastructure, not a counter group.
        if i >= 2 and "template" in src.code[i - 2]:
            continue
        # Walk the balanced struct body.
        depth = 0
        body_lines = []
        for j in range(i - 1, len(src.code)):
            depth += src.code[j].count("{") - src.code[j].count("}")
            body_lines.append(src.code[j])
            if depth == 0 and "{" in "".join(body_lines):
                break
        body = "\n".join(body_lines)
        missing = [need for need in ("kGroupName", "VisitFields") if need not in body]
        if missing and not src.allowed("counters-register", i):
            emit(errors, src, i, "counters-register",
                 f"counter struct {m.group(1)} lacks {' and '.join(missing)}; declare "
                 "kGroupName + VisitFields so it can register with the metrics "
                 "registry (src/common/metrics.h)")


# ------------------------------------------------------------------------------------
# Rule: byte-loop
# ------------------------------------------------------------------------------------

def _writes_loop_byte(arg: str, loop_vars) -> bool:
    """True if a WriteU8 argument is a loop variable or an element indexed by one."""
    arg = arg.strip()
    m = CAST_RE.match(arg)
    if m is not None:
        arg = m.group(1).strip()
    if arg in loop_vars:
        return True
    m = re.search(r"\[\s*(\w+)\s*\]$", arg)
    return m is not None and m.group(1) in loop_vars


def check_byte_loop(src: Source, errors):
    for i, line in enumerate(src.code, start=1):
        m = FOR_HEADER_RE.search(line)
        if m is None:
            continue
        loop_vars = set(LOOP_VAR_RE.findall(m.group(1)))
        for j in range(i, min(i + BYTE_LOOP_WINDOW, len(src.code)) + 1):
            body = src.code[j - 1] if j > i else m.group(1)
            call = WRITE_U8_RE.search(body)
            if call is None or not _writes_loop_byte(call.group(1), loop_vars):
                continue
            if not src.allowed("byte-loop", i):
                emit(errors, src, i, "byte-loop",
                     "per-byte WriteU8 loop; append the whole range with "
                     "BlobWriter::WriteBytes")
            break


# ------------------------------------------------------------------------------------
# Rule: node-boundary
# ------------------------------------------------------------------------------------

def check_node_boundary(src: Source, forbidden: str, errors):
    # Include paths are string literals, which the comment-stripped view blanks out.
    for i, line in enumerate(src.raw, start=1):
        m = INCLUDE_RE.match(line)
        if m is None or not m.group(1).startswith(forbidden + "/"):
            continue
        if not src.allowed("node-boundary", i):
            emit(errors, src, i, "node-boundary",
                 f"includes {m.group(1)}: controller and workers meet only through the "
                 "transport; name the peer by id and send it an envelope")


# ------------------------------------------------------------------------------------
# Rule: pricing-boundary
# ------------------------------------------------------------------------------------

def check_pricing_boundary(src: Source, errors):
    for i, line in enumerate(src.code, start=1):
        m = PRICING_RE.search(line)
        if m is not None and not src.allowed("pricing-boundary", i):
            emit(errors, src, i, "pricing-boundary",
                 f"node code names {m.group(1)}; report a sim::Work kind through the "
                 "node's WorkMeter and price it in CostModel::Price")


# ------------------------------------------------------------------------------------
# Driver
# ------------------------------------------------------------------------------------

def collect(patterns):
    out = []
    for pat in patterns:
        out.extend(sorted(REPO.glob(pat)))
    return out


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__)
        return 2

    errors = []
    sources = {}

    def source(path: Path) -> Source:
        if path not in sources:
            sources[path] = Source(path)
        return sources[path]

    for d in HOT_DIRS:
        for path in collect([f"{d}/**/*.h", f"{d}/**/*.cc"]):
            check_hot_map(source(path), errors)

    for d in SEND_SCAN_DIRS:
        for path in collect([f"{d}/**/*.h", f"{d}/**/*.cc"]):
            check_send_kind(source(path), errors)

    for rel in DECODER_FILES:
        check_decoder_bounds(source(REPO / rel), errors)

    for path in collect([CONTROLLER_GLOB]):
        check_map_invalidate(source(path), errors)

    check_counters_register(source(REPO / STATS_FILE), errors)

    for path in collect(["src/**/*.h", "src/**/*.cc"]):
        check_byte_loop(source(path), errors)

    for node_dir, forbidden in NODE_BOUNDARIES:
        for path in collect([f"{node_dir}/**/*.h", f"{node_dir}/**/*.cc"]):
            check_node_boundary(source(path), forbidden, errors)

    for d in PRICING_DIRS:
        for path in collect([f"{d}/**/*.h", f"{d}/**/*.cc"]):
            check_pricing_boundary(source(path), errors)

    # Suppression hygiene: every allow must carry a reason and actually fire.
    for src in sources.values():
        for lineno, entry in src.allows.items():
            unknown = entry["rules"] - set(RULES)
            if unknown:
                emit(errors, src, lineno, "lint",
                     f"unknown rule(s) in lint:allow: {', '.join(sorted(unknown))}")
            if not entry["reason"]:
                emit(errors, src, lineno, "lint",
                     "lint:allow without a reason (use `lint:allow(<rule>) -- <why>`)")
            if not entry["used"]:
                emit(errors, src, lineno, "lint",
                     "stale lint:allow: nothing on the covered lines violates "
                     f"{', '.join(sorted(entry['rules']))}")

    if errors:
        for e in sorted(errors):
            print(e)
        print(f"\nlint_invariants: {len(errors)} violation(s)")
        return 1
    print(f"lint_invariants: clean ({len(sources)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
