#!/usr/bin/env python3
"""bgpcc-lint: project-invariant static analysis for the bgpcc tree.

The dynamic test batteries (differential, golden, sanitizer) prove the
paper-reproduction contract *after* the fact; bgpcc-lint enforces the
load-bearing invariants statically, before any test runs:

  D1  no iteration over unordered containers inside deterministic-output
      functions (serialize/save, report(), render_*, write_*, golden
      paths) without an intervening sort barrier — the PR 6 rule that
      makes identical state always produce identical bytes.
  D2  no wall-clock, randomness, pointer-value, or locale-dependent
      formatting feeding deterministic output.
  H1  no mutex acquisition, heap allocation, container growth, or throw
      in the shard-observer / obs hot paths that PR 8/9 promise are
      lock-free (AnalysisDriver::observe_shard, obs::Counter::inc,
      obs::Gauge updates, obs::Histogram::observe, obs::StageTimer).
  P1  pass-contract conformance: every `*Pass` class with a nested
      State declares kStateTag (unique, and a serialize::PassTag value
      when the enum is in view), the full State interface
      (observe/merge/report plus the static fields() list its save and
      load derive from; a report(const core::SessionLedger&) stands in
      for observe, as in the Pass concept), make_state, a
      copy-constructible State (the snapshot contract), and no State
      member holding a core::Classifier or a SessionKey-keyed map of
      TypeCounts (the §5 comparison and its per-session tally run once,
      in the driver's stream table; passes read its StreamEvent and its
      ledger).
  S1  DecodeError-path completeness: decode functions never bypass the
      ByteReader primitives with raw stream reads, and never pre-size
      allocations from an unvalidated wire-read count.
  L1  layering: a file in the measurement layers (netbase, bgp, mrt,
      obs, core, analytics) never includes a simulator header (sim/,
      router/, synth/) — simulated collectors reach the engine as MRT
      bytes through synth::ingest.
  SUP suppression hygiene: every inline suppression must carry a
      reason string (SUP findings are themselves unsuppressible).

Findings are suppressed inline with a reason:

    // bgpcc-lint: allow(D1, iteration feeds a hash, not output bytes)

A trailing comment covers its statement; a standalone comment line
covers the following statement. `allow-file(ID, reason)` anywhere in a
file covers the whole file. Reasons are mandatory.

Engine: a token/AST-lite analyzer that needs nothing beyond the Python
standard library, so it runs in bare CI and in the 1-CPU dev container.
When the libclang Python bindings are importable, `--engine clang`
cross-checks D1 range-for types against the real AST (experimental; the
token engine remains the gate and is what the fixture corpus pins).

Usage:
    bgpcc_lint.py [options] path [path...]
        paths are files or directories (recursed for .h/.hpp/.cc/.cpp)
    --checks D1,H1,...   run a subset (default: all)
    --format text|compact|json
    --root DIR           paths in output are reported relative to DIR
    --engine tokens|clang
    --list-checks        print the check inventory and exit

Exit status: 0 clean, 1 findings, 2 usage/internal error.

See docs/LINTING.md for the full check inventory and suppression
policy; tests/lint_fixtures/ is the executable specification.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Project configuration: which functions are deterministic-output paths,
# which are lock-free hot paths. Kept as data so a future PR extends the
# contract by editing two tuples.

# Unqualified function names whose bodies must emit deterministically.
EMIT_FUNCTION_NAMES = {"save", "serialize", "report", "to_string"}
# Name prefixes that mark deterministic-output helpers.
EMIT_FUNCTION_PREFIXES = (
    "render_", "write_", "print_", "emit_", "format_", "finalize_",
)

# Qualified-name suffixes of the lock-free hot paths (PR 8/9 contract).
HOT_PATH_SUFFIXES = (
    "AnalysisDriver::observe_shard",
    "Counter::inc",
    "Gauge::set",
    "Gauge::add",
    "Gauge::sub",
    "Histogram::observe",
    "StageTimer::StageTimer",
    "StageTimer::~StageTimer",
    "StageTimer::stop",
)

# Layering (L1): files directly under these directories are the
# measurement pipeline and may not include headers from the simulator
# layers. The layer of a file is the name of the directory holding it
# (src/<layer>/<file>).
MEASUREMENT_LAYERS = ("netbase", "bgp", "mrt", "obs", "core", "analytics")
SIMULATOR_LAYERS = ("sim", "router", "synth")
INCLUDE_DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")
INCLUDE_TARGET_RE = re.compile(r'#\s*include\s*[<"]([^>"]+)[>"]')

UNORDERED_TYPE_RE = re.compile(
    r"\b(unordered_map|unordered_set|unordered_multimap|unordered_multiset|"
    r"flat_hash_map|flat_hash_set|node_hash_map|node_hash_set)\b")

# D2: calls that make output depend on something other than the state.
NONDETERMINISM_TOKENS = (
    # (regex on code text, what it is)
    (re.compile(r"\b(system_clock|high_resolution_clock|steady_clock)\s*::"
                r"\s*now\b"), "a clock read"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|NULL|0|&)"), "wall-clock "
     "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "wall-clock gettimeofday()"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "the process clock"),
    (re.compile(r"\b(localtime|localtime_r)\s*\("), "local-timezone "
     "formatting"),
    (re.compile(r"(?<![\w:])(rand|srand|random)\s*\("), "C randomness"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bdefault_random_engine\b"), "a random engine"),
    (re.compile(r"\bsetlocale\s*\("), "setlocale"),
    (re.compile(r"\bstd\s*::\s*locale\b"), "std::locale"),
    (re.compile(r"\.\s*imbue\s*\("), "stream locale imbuing"),
    (re.compile(r"\bgetenv\s*\("), "environment lookup"),
    (re.compile(r"\bstatic_cast\s*<\s*(const\s+)?void\s*\*\s*>"),
     "pointer-value formatting"),
)
# %p in a format string (checked against raw text, strings included).
POINTER_FORMAT_RE = re.compile(r'"[^"\n]*%p[^"\n]*"')

# H1: tokens forbidden in lock-free hot paths.
HOT_PATH_FORBIDDEN = (
    (re.compile(r"\b(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "acquires a mutex"),
    (re.compile(r"\bstd\s*::\s*mutex\b"), "names a mutex"),
    (re.compile(r"\.\s*lock\s*\(\s*\)"), "acquires a lock"),
    (re.compile(r"(?<!\w)new\b(?!\s*\()"), "heap-allocates"),
    (re.compile(r"\b(make_unique|make_shared)\b"), "heap-allocates"),
    (re.compile(r"\b(malloc|calloc|realloc)\s*\("), "heap-allocates"),
    (re.compile(r"\.\s*(push_back|emplace_back|emplace|insert|resize|"
                r"reserve)\s*\("), "may grow a container (allocates)"),
    (re.compile(r"\bto_string\s*\("), "builds a std::string (allocates)"),
    (re.compile(r"(?<!\w)throw\b"), "throws (allocates, cold path)"),
)

# S1: decode functions must go through the ByteReader primitives.
RAW_STREAM_READ_RE = re.compile(r"\.\s*(read|get|getline|peek|ignore)\s*\(")
WIRE_READ_RE = re.compile(r"\b(\w+)\s*=[^=;]*?\.\s*(u32|u64|i64)\s*\(\s*\)")
WIRE_READ_DECL_RE = re.compile(
    r"\b(?:auto|std::uint32_t|std::uint64_t|std::int64_t|uint32_t|uint64_t|"
    r"int64_t|std::size_t|size_t)\s+(\w+)\s*=[^=;]*?\.\s*(u32|u64|i64)"
    r"\s*\(\s*\)")
PRESIZE_RE = re.compile(
    r"(?:\.\s*(?:reserve|resize)\s*\(\s*(\w+)|"
    r"\bnew\s+[\w:]+\s*\[\s*(\w+)|"
    r"\b(?:vector|string)\s*(?:<[^;<>]*>)?\s+\w+\s*\(\s*(\w+))")

SUPPRESS_RE = re.compile(
    r"bgpcc-lint:\s*(allow|allow-file)\s*\(\s*([A-Z0-9|]+)\s*"
    r"(?:,\s*([^)]*?)\s*)?\)")

CHECK_INVENTORY = {
    "D1": "iteration over an unordered container in a deterministic-output "
          "function without a sort barrier",
    "D2": "wall-clock / randomness / pointer / locale input feeding "
          "deterministic output",
    "H1": "lock, allocation, container growth, or throw in a lock-free "
          "hot path",
    "P1": "pass-contract conformance (kStateTag, State interface, "
          "copyable State, make_state, no private Classifier or "
          "per-session tally)",
    "S1": "decode path bypasses the ByteReader primitives or pre-sizes from "
          "an unvalidated wire count",
    "L1": "measurement layer (netbase/bgp/mrt/obs/core/analytics) "
          "includes a sim/, router/ or synth/ header",
    "SUP": "malformed suppression (missing reason string)",
}


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str
    suppressible: bool = True


@dataclass
class Suppression:
    check_ids: tuple
    reason: str
    first_line: int
    last_line: int  # inclusive
    whole_file: bool = False


@dataclass
class Function:
    qualified: str      # e.g. bgpcc::analytics::CommunityStatsPass::State::save
    name: str           # unqualified
    class_path: str     # e.g. CommunityStatsPass::State ('' for free funcs)
    params: str         # parameter list text (code, one line)
    start_line: int
    end_line: int
    body: str           # code text of the body, newlines preserved
    body_start_line: int


@dataclass
class ClassInfo:
    # key: 'Outer::Nested' (namespaces excluded — member lookup matches by
    # suffix, which is unambiguous in this codebase)
    path: str
    members: dict = field(default_factory=dict)   # name -> type text
    methods: set = field(default_factory=set)     # declared method names
    reads_ledger: bool = False  # declares report(... SessionLedger ...)
    body: str = ""
    start_line: int = 0
    decl_lines: dict = field(default_factory=dict)  # member -> line
    has_virtual: bool = False
    deleted_copy_ctor: bool = False
    statics: dict = field(default_factory=dict)   # static constexpr name->val


@dataclass
class FileModel:
    path: str
    raw: str
    code: str               # comments/string-bodies blanked, same shape
    lines: list             # code split per line
    raw_lines: list
    suppressions: list
    functions: list
    classes: dict           # path -> ClassInfo
    aliases: dict           # alias name -> target type text
    pass_tag_enum: dict     # enumerator name -> int (serialize::PassTag)


# ---------------------------------------------------------------------------
# Lexing: blank out comments and string literal bodies, keep line structure.

def strip_comments(text):
    """Returns (code, comments) where code has comments and the contents
    of string/char literals replaced by spaces (quotes preserved), and
    comments is a list of (line_number, comment_text)."""
    out = []
    comments = []
    i, n = 0, len(text)
    line = 1
    state = "code"
    comment_start_line = 0
    comment_buf = []
    raw_delim = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if c == '"':
                if out and re.search(r'R\s*$', "".join(out[-2:])):
                    m = re.match(r'R"([^(\n]*)\(', text[i - 1:i + 20])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw_string"
                        out.append('"')
                        i += 1 + len(m.group(1)) + 1
                        out.append(" " * (len(m.group(1)) + 1))
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                out.append("\n")
            else:
                comment_buf.append(c)
                out.append(" ")
            i += 1
            if c == "\n":
                line += 1
            continue
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment_buf.append(c)
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = "code"
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        if c == "\n":
            line += 1
        i += 1
    if state == "line_comment":
        comments.append((comment_start_line, "".join(comment_buf)))
    return "".join(out), comments


# ---------------------------------------------------------------------------
# Statement / scope scanning.

KEYWORD_HEADS = {"if", "for", "while", "switch", "catch", "do", "else",
                 "return", "sizeof", "alignof", "decltype", "new"}


def line_of(offset, line_starts):
    """Binary search: 1-based line number of a character offset."""
    lo, hi = 0, len(line_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def statement_end_line(code, line_starts, from_offset):
    """Line of the `;` or `{` that ends the statement starting at
    from_offset (balanced parens), capped at 40 lines past the start."""
    depth = 0
    start_line = line_of(from_offset, line_starts)
    i = from_offset
    while i < len(code):
        c = code[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and c in ";{":
            return line_of(i, line_starts)
        cur = line_of(i, line_starts)
        if cur - start_line > 40:
            return cur
        i += 1
    return line_of(len(code) - 1, line_starts) if code else start_line


def find_name_before_paren(head):
    """The function name in a statement head ending just before its
    parameter-list '('. Returns (name, explicit_qualifier) or None."""
    m = re.search(r"(~?[A-Za-z_]\w*)\s*$", head)
    if not m:
        if re.search(r"operator\s*(\(\)|\[\]|[<>=!+\-*/%&|^~]+)\s*$", head):
            return ("operator", "")
        return None
    name = m.group(1)
    if name in KEYWORD_HEADS:
        return None
    qual = ""
    rest = head[: m.start()].rstrip()
    while rest.endswith("::"):
        rest = rest[:-2].rstrip()
        mq = re.search(r"([A-Za-z_]\w*)\s*$", rest)
        if not mq:
            break
        qual = mq.group(1) + ("::" + qual if qual else "")
        rest = rest[: mq.start()].rstrip()
    return (name, qual)


def parse_scopes(model):
    """Populates model.functions and model.classes by walking braces."""
    code = model.code
    line_starts = [0]
    for m in re.finditer(r"\n", code):
        line_starts.append(m.end())

    # Scope stack entries: dicts with kind, name, class_path, fn (Function)
    stack = []
    # Head of the statement currently being accumulated (since the last
    # ; { } at this nesting level).
    head_start = 0
    i, n = 0, len(code)
    paren_depth = 0

    def class_path():
        names = [s["name"] for s in stack if s["kind"] == "class"]
        return "::".join(names)

    def qualified(name, explicit_qual):
        names = [s["name"] for s in stack
                 if s["kind"] in ("namespace", "class")]
        if explicit_qual:
            names.append(explicit_qual)
        names.append(name)
        return "::".join(n for n in names if n)

    while i < n:
        c = code[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth -= 1
        elif c == ";" and paren_depth == 0:
            head = code[head_start:i]
            if stack and stack[-1]["kind"] == "class":
                record_class_member(stack[-1]["info"], head,
                                    line_of(head_start, line_starts))
            head_start = i + 1
        elif c == "{" and paren_depth == 0:
            head = code[head_start:i].strip()
            scope = classify_head(head)
            entry = {"kind": scope[0], "name": scope[1], "open": i,
                     "head_start": head_start}
            if scope[0] == "class":
                cp = class_path() + ("::" if class_path() else "") + scope[1]
                # Anchor the class at its class/struct keyword, not at
                # whatever blank space followed the previous statement —
                # suppressions target the reported line.
                kw = re.search(r"\b(?:class|struct)\b",
                               code[head_start:i])
                anchor = head_start + (kw.start() if kw else 0)
                info = model.classes.setdefault(
                    cp, ClassInfo(path=cp,
                                  start_line=line_of(anchor, line_starts)))
                entry["info"] = info
            elif scope[0] == "function":
                name, qual = scope[2]
                cp = class_path()
                if not qual and stack and stack[-1]["kind"] == "class":
                    # Inline member-function definition: register it on
                    # the class so contract checks see it.
                    add_method(stack[-1]["info"], name, scope[3])
                if qual:
                    cp = cp + ("::" if cp else "") + qual
                fn = Function(
                    qualified=qualified(name, qual), name=name,
                    class_path=cp, params=scope[3],
                    start_line=line_of(head_start, line_starts),
                    end_line=0, body="",
                    body_start_line=line_of(i, line_starts))
                entry["fn"] = fn
            stack.append(entry)
            head_start = i + 1
        elif c == "}" and paren_depth == 0:
            if stack:
                entry = stack.pop()
                if entry["kind"] == "function":
                    fn = entry["fn"]
                    fn.end_line = line_of(i, line_starts)
                    fn.body = code[entry["open"] + 1:i]
                    model.functions.append(fn)
                elif entry["kind"] == "class":
                    info = entry["info"]
                    info.body = code[entry["open"] + 1:i]
            head_start = i + 1
        i += 1
    model.line_starts = line_starts


def classify_head(head):
    """What does the `{` after this statement head open?"""
    # Strip template<...> prefixes and attributes for classification.
    h = re.sub(r"\[\[[^\]]*\]\]", " ", head)
    h = h.strip()
    if re.search(r"\bnamespace\b", h) and "(" not in h:
        m = re.search(r"namespace\s+([A-Za-z_][\w:]*)\s*$", h)
        return ("namespace", m.group(1) if m else "", None)
    if re.search(r"\benum\b", h):
        return ("other", "", None)
    mclass = re.search(
        r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?"
        r"(?:alignas\s*\([^)]*\)\s*)?([A-Za-z_]\w*)\s*"
        r"(?:final\s*)?(?::[^;{]*)?$", h)
    if mclass and "(" not in h.split("class")[-1].split(":")[0]:
        return ("class", mclass.group(1), None)
    # Lambda introducer immediately before a brace, or control keyword.
    first = re.match(r"([A-Za-z_]\w*)", h)
    if first and first.group(1) in ("if", "for", "while", "switch", "catch",
                                    "do", "else", "try", "return"):
        return ("block", "", None)
    # Function definition: last balanced (...) group followed only by
    # qualifiers / noexcept / trailing return / ctor initializer list.
    depth = 0
    close = -1
    opens = []
    pairs = []
    for idx, ch in enumerate(h):
        if ch == "(":
            opens.append(idx)
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and opens:
                pairs.append((opens[0], idx))
                opens = []
    for popen, pclose in pairs:
        if not function_tail_ok(h[pclose + 1:]):
            continue
        name_part = h[:popen]
        if name_part.rstrip().endswith("]"):       # lambda [..](..)
            return ("block", "", None)
        named = find_name_before_paren(name_part)
        if named is None:
            continue
        name, qual = named
        if name in KEYWORD_HEADS:
            return ("block", "", None)
        params = h[popen + 1:pclose]
        return ("function", name, (name, qual), params)
    return ("block", "", None)


def function_tail_ok(tail):
    """True if what follows a parameter list's ')' is a legal function
    suffix (cv/ref qualifiers, noexcept, trailing return, ctor
    initializer list). Linear scan — a naive regex here backtracks
    catastrophically on long expression statements."""
    t = tail.strip()
    while t:
        m = re.match(r"(?:const|override|final|mutable|volatile)\b", t)
        if m:
            t = t[m.end():].lstrip()
            continue
        m = re.match(r"noexcept(\s*\([^()]*(?:\([^()]*\)[^()]*)*\))?", t)
        if m:
            t = t[m.end():].lstrip()
            continue
        if t.startswith("->") or t.startswith(":"):
            # Trailing return type / ctor initializer list: everything up
            # to the already-located '{' belongs to it.
            return True
        if t[0] == "&":
            t = t.lstrip("&").lstrip()
            continue
        return False
    return True


def record_class_member(info, head, line):
    """Parses one class-scope statement (ends with ;) into members /
    method declarations / static constexpr values."""
    h = re.sub(r"\[\[[^\]]*\]\]", " ", head).strip()
    # An access label shares its "statement" with the declaration that
    # follows it — peel it off rather than bailing out.
    h = re.sub(r"^(?:\s*(?:public|private|protected)\s*:)+\s*", "", h)
    if not h or h.startswith("#"):
        return
    # Track the bits P1 cares about before general parsing.
    if re.search(r"\bvirtual\b", h):
        info.has_virtual = True
    mdel = re.search(r"(\w+)\s*\(\s*const\s+(\w+)\s*&[^)]*\)\s*=\s*delete",
                     h)
    if mdel and mdel.group(1) == mdel.group(2):
        info.deleted_copy_ctor = True
    mstatic = re.search(
        r"static\s+constexpr\s+[\w:]+\s+(\w+)\s*=\s*([\w:]+)", h)
    if mstatic:
        info.statics[mstatic.group(1)] = mstatic.group(2)
        info.decl_lines[mstatic.group(1)] = line
        return
    # using alias inside a class.
    musing = re.match(r"using\s+(\w+)\s*=\s*(.+)$", h, re.S)
    if musing:
        info.members["using " + musing.group(1)] = musing.group(2).strip()
        return
    # Split off any initializer.
    h2 = re.split(r"=(?![=<>])", h, maxsplit=1)[0].strip()
    # Method declaration? name followed by ( at angle-depth 0.
    depth = 0
    for idx, ch in enumerate(h2):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            named = find_name_before_paren(h2[:idx])
            if named:
                add_method(info, named[0], h2[idx:])
            return
    # Data member: last identifier (before any array suffix) is the name.
    m = re.search(r"([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)*$", h2)
    if not m:
        return
    name = m.group(1)
    ty = h2[: m.start()].strip()
    if not ty or ty in ("class", "struct", "friend", "typedef", "using",
                        "return", "break", "continue"):
        return
    info.members[name] = ty
    info.decl_lines[name] = line


# ---------------------------------------------------------------------------
# Suppressions.

def parse_suppressions(model, comments, findings):
    code = model.code
    line_starts = model.line_starts
    for line, text in comments:
        for m in SUPPRESS_RE.finditer(text):
            kind, ids, reason = m.group(1), m.group(2), m.group(3)
            check_ids = tuple(x for x in ids.split("|") if x)
            if not reason or not reason.strip():
                findings.append(Finding(
                    model.path, line, "SUP",
                    f"suppression for {ids} has no reason — write "
                    f"// bgpcc-lint: {kind}({ids}, <why this is safe>)",
                    suppressible=False))
                continue
            if kind == "allow-file":
                model.suppressions.append(Suppression(
                    check_ids, reason.strip(), 1, 1 << 30, whole_file=True))
                continue
            # Find the statement the comment covers: the one that begins
            # on (or continues through) the comment's line, extended to
            # the statement's end.
            line_text = (model.lines[line - 1]
                         if line - 1 < len(model.lines) else "")
            if line_text.strip():
                start = line
            else:
                start = line + 1
            offset = line_starts[start - 1] if start - 1 < len(
                line_starts) else len(code)
            end = statement_end_line(code, line_starts, offset)
            model.suppressions.append(Suppression(
                check_ids, reason.strip(), min(line, start), max(line, end)))


def is_suppressed(model, finding):
    if not finding.suppressible:
        return False
    for sup in model.suppressions:
        if finding.check in sup.check_ids and (
                sup.whole_file or
                sup.first_line <= finding.line <= sup.last_line):
            return True
    return False


# ---------------------------------------------------------------------------
# Type resolution across the scanned file set.

class Project:
    def __init__(self):
        self.models = []
        self.aliases = {}        # name -> target
        self.classes = {}        # class path -> ClassInfo
        self.pass_tags = {}      # enumerator -> int value

    def add(self, model):
        self.models.append(model)
        self.aliases.update(model.aliases)
        for path, info in model.classes.items():
            # Last definition wins; identical-name classes in different
            # namespaces are rare enough here not to matter.
            self.classes.setdefault(path, info)
            for mname, mtype in info.members.items():
                if mname.startswith("using "):
                    self.aliases.setdefault(mname[6:], mtype)
        self.pass_tags.update(model.pass_tag_enum)

    def resolve_alias(self, type_text, depth=0):
        if depth > 5 or not type_text:
            return type_text
        m = re.match(r"(?:const\s+)?(?:std\s*::\s*)?([A-Za-z_]\w*)",
                     type_text.strip())
        if m and m.group(1) in self.aliases:
            target = self.aliases[m.group(1)]
            if m.group(1) not in target:
                return self.resolve_alias(target, depth + 1)
        # Also resolve qualified aliases like core::cleaning::SecondCarry.
        m2 = re.search(r"([A-Za-z_]\w*)\s*$",
                       re.sub(r"<.*", "", type_text).strip())
        if m2 and m2.group(1) in self.aliases:
            target = self.aliases[m2.group(1)]
            if m2.group(1) not in target:
                return self.resolve_alias(target, depth + 1)
        return type_text

    def class_for(self, class_path_suffix):
        """Finds a ClassInfo whose path ends with the given suffix."""
        if class_path_suffix in self.classes:
            return self.classes[class_path_suffix]
        for path, info in self.classes.items():
            if path.endswith("::" + class_path_suffix):
                return info
        return None

    def member_type(self, class_path, member):
        probe = class_path
        while probe:
            info = self.class_for(probe)
            if info and member in info.members:
                return info.members[member]
            if "::" in probe:
                probe = probe.rsplit("::", 1)[0]
            else:
                probe = ""
        return None

    def is_unordered(self, type_text):
        if not type_text:
            return False
        resolved = self.resolve_alias(type_text)
        return bool(UNORDERED_TYPE_RE.search(resolved))


def collect_aliases(code):
    out = {}
    for m in re.finditer(
            r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);", code):
        out[m.group(1)] = re.sub(r"\s+", " ", m.group(2)).strip()
    return out


def collect_pass_tag_enum(code):
    """serialize::PassTag enumerator values, when defined in this file."""
    m = re.search(r"enum\s+class\s+PassTag[^{]*\{([^}]*)\}", code)
    if not m:
        return {}
    out = {}
    for em in re.finditer(r"(\w+)\s*=\s*(\d+)", m.group(1)):
        out[em.group(1)] = int(em.group(2))
    return out


# ---------------------------------------------------------------------------
# The checks.

def is_emit_function(fn):
    if fn.name in EMIT_FUNCTION_NAMES:
        return True
    return fn.name.startswith(EMIT_FUNCTION_PREFIXES)


def local_types(fn):
    """Very light local-declaration scan of a function body:
    name -> type text (including the range-decl of for loops)."""
    out = {}
    for m in re.finditer(
            r"(?m)^\s*(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<[^;{}]*?>)?)\s*&?&?"
            r"\s+([A-Za-z_]\w*)\s*(?:[=({;\[]|$)", fn.body):
        ty, name = m.group(1), m.group(2)
        if ty in ("return", "throw", "delete", "goto", "case", "new",
                  "else", "do", "using", "typedef", "if", "for", "while"):
            continue
        out.setdefault(name, ty)
    for pm in re.finditer(
            r"(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<[^()]*?>)?)\s*[&*]*\s*"
            r"([A-Za-z_]\w*)\s*(?:,|$|=)", fn.params):
        out.setdefault(pm.group(2), pm.group(1))
    return out


def resolve_expr_type(project, fn, expr, locals_map):
    """Best-effort type of `expr` (an identifier chain) in `fn`."""
    expr = expr.strip()
    expr = re.sub(r"^\(+|\)+$", "", expr).strip()
    expr = re.sub(r"^(\*|&)+", "", expr).strip()
    expr = re.sub(r"^this\s*->\s*", "", expr)
    if not re.fullmatch(r"[A-Za-z_]\w*(\s*[.]\s*[A-Za-z_]\w*)*", expr):
        return None
    parts = [p.strip() for p in expr.split(".")]
    first = parts[0]
    ty = locals_map.get(first) or project.member_type(fn.class_path, first)
    if ty is None:
        return None
    for nxt in parts[1:]:
        resolved = project.resolve_alias(ty)
        m = re.match(r"(?:const\s+)?(?:[\w:]*::)?([A-Za-z_]\w*)",
                     resolved.strip())
        if not m:
            return None
        inner = project.member_type(m.group(1), nxt)
        if inner is None:
            return None
        ty = inner
    return ty


def range_for_loops(fn, line_starts_base):
    """Yields (line, range_expr) for every range-for in the body, plus
    (line, 'X') for classic loops over X.begin()."""
    body = fn.body
    # Map body offsets to absolute lines.
    def body_line(off):
        return fn.body_start_line + body[:off].count("\n")
    for m in re.finditer(r"\bfor\s*\(", body):
        start = m.end()
        depth = 1
        i = start
        while i < len(body) and depth:
            if body[i] == "(":
                depth += 1
            elif body[i] == ")":
                depth -= 1
            i += 1
        inner = body[start:i - 1]
        if ";" in inner:
            bm = re.search(r"(\w[\w.\->]*)\s*\.\s*begin\s*\(\s*\)", inner)
            if bm:
                yield (body_line(m.start()), bm.group(1))
            continue
        # Range-for: split on the first top-level ':' that is not '::'.
        depth2 = 0
        for j, ch in enumerate(inner):
            if ch in "(<[":
                depth2 += 1
            elif ch in ")>]":
                depth2 -= 1
            elif (ch == ":" and depth2 <= 0 and
                  (j + 1 >= len(inner) or inner[j + 1] != ":") and
                  (j == 0 or inner[j - 1] != ":")):
                yield (body_line(m.start()), inner[j + 1:].strip())
                break


def check_d1(project, model, findings):
    for fn in model.functions:
        if not is_emit_function(fn):
            continue
        locals_map = local_types(fn)
        for line, expr in range_for_loops(fn, model.line_starts):
            ty = resolve_expr_type(project, fn, expr, locals_map)
            if ty and project.is_unordered(ty):
                shown = re.sub(r"\s+", " ", project.resolve_alias(ty)).strip()
                findings.append(Finding(
                    model.path, line, "D1",
                    f"deterministic-output function '{fn.name}' iterates "
                    f"unordered container '{expr.strip()}' ({shown}) — "
                    f"copy to a vector and sort before emitting "
                    f"(docs/LINTING.md)"))


def check_d2(project, model, findings):
    for fn in model.functions:
        if not is_emit_function(fn):
            continue
        for rx, what in NONDETERMINISM_TOKENS:
            for m in rx.finditer(fn.body):
                line = fn.body_start_line + fn.body[:m.start()].count("\n")
                findings.append(Finding(
                    model.path, line, "D2",
                    f"deterministic-output function '{fn.name}' uses {what} "
                    f"— output bytes must depend only on the state"))
        # %p in format strings: search the raw text of the body's lines.
        for ln in range(fn.body_start_line,
                        min(fn.end_line + 1, len(model.raw_lines) + 1)):
            if POINTER_FORMAT_RE.search(model.raw_lines[ln - 1]):
                findings.append(Finding(
                    model.path, ln, "D2",
                    f"deterministic-output function '{fn.name}' formats a "
                    f"pointer value (%p) — addresses differ across runs"))


def check_h1(project, model, findings):
    for fn in model.functions:
        if not any(fn.qualified.endswith(sfx) for sfx in HOT_PATH_SUFFIXES):
            continue
        for rx, what in HOT_PATH_FORBIDDEN:
            for m in rx.finditer(fn.body):
                line = fn.body_start_line + fn.body[:m.start()].count("\n")
                findings.append(Finding(
                    model.path, line, "H1",
                    f"lock-free hot path '{fn.qualified.split('bgpcc::')[-1]}'"
                    f" {what} — the shard-observer/obs contract (PR 8/9) "
                    f"forbids blocking and allocation here"))


# P1: a State member holding its own §5 stream cursor duplicates the
# driver's per-shard stream table.
CLASSIFIER_MEMBER_RE = re.compile(r"\bClassifier\b")

NONCOPYABLE_MEMBER_RE = re.compile(
    r"\b(std\s*::\s*)?(mutex|shared_mutex|recursive_mutex|atomic|thread|"
    r"unique_ptr|condition_variable)\b")

STATE_REQUIRED_METHODS = ("observe", "merge", "report", "fields")


# P1: a State member tallying §5 types per session duplicates the stream
# table's ledger.
SESSION_TALLY_MEMBER_RE = re.compile(
    r"\bmap\s*<\s*[\w:]*\bSessionKey\s*,\s*[\w:]*\bTypeCounts\s*>")


def add_method(info, name, params):
    """Registers a declared or defined method on its class."""
    info.methods.add(name)
    if name == "report" and re.search(r"\bSessionLedger\b", params):
        info.reads_ledger = True


def check_p1(project, model, findings):
    seen_tags = {}
    for path, info in model.classes.items():
        leaf = path.rsplit("::", 1)[-1]
        if not leaf.endswith("Pass") or leaf == "Pass":
            continue
        state = project.class_for(path + "::State")
        if state is None or info.has_virtual:
            continue  # type-erasure helpers / interfaces, not shipped passes
        line = info.start_line
        if "kStateTag" not in info.statics:
            findings.append(Finding(
                model.path, line, "P1",
                f"pass '{leaf}' has no `static constexpr std::uint16_t "
                f"kStateTag` — every registered pass needs a pinned wire "
                f"tag (serialize::PassTag, append-only)"))
        else:
            tag = info.statics["kStateTag"]
            tag_line = info.decl_lines.get("kStateTag", line)
            if tag.isdigit():
                if project.pass_tags and int(tag) not in set(
                        project.pass_tags.values()):
                    findings.append(Finding(
                        model.path, tag_line, "P1",
                        f"pass '{leaf}' pins kStateTag = {tag}, which is "
                        f"not a serialize::PassTag enumerator — append a "
                        f"new enumerator (never renumber)"))
                if tag in seen_tags:
                    findings.append(Finding(
                        model.path, tag_line, "P1",
                        f"pass '{leaf}' reuses wire tag {tag} already "
                        f"pinned by '{seen_tags[tag]}' — tags identify "
                        f"state layouts and must be unique"))
                seen_tags.setdefault(tag, leaf)
        if "make_state" not in info.methods:
            findings.append(Finding(
                model.path, line, "P1",
                f"pass '{leaf}' declares no make_state() — the driver "
                f"mints one State per shard through it"))
        missing = [m for m in STATE_REQUIRED_METHODS
                   if m not in state.methods and
                   not (m == "observe" and state.reads_ledger)]
        if missing:
            findings.append(Finding(
                model.path, state.start_line, "P1",
                f"pass '{leaf}' State is missing {', '.join(missing)} — "
                f"the Pass/SerializablePass contract requires observe/"
                f"merge/report plus a static fields() list, from which "
                f"checkpointing derives save and load"))
        for mname, mtype in state.members.items():
            if mname.startswith("using "):
                continue
            if CLASSIFIER_MEMBER_RE.search(mtype):
                findings.append(Finding(
                    model.path, state.decl_lines.get(
                        mname, state.start_line), "P1",
                    f"pass '{leaf}' State member '{mname}' holds a "
                    f"core::Classifier ('{mtype}') — take the driver's "
                    f"per-shard stream table's verdict instead: declare "
                    f"observe(record, const core::StreamEvent&)"))
            elif SESSION_TALLY_MEMBER_RE.search(mtype):
                findings.append(Finding(
                    model.path, state.decl_lines.get(
                        mname, state.start_line), "P1",
                    f"pass '{leaf}' State member '{mname}' tallies §5 "
                    f"types per session ('{mtype}') — the driver's stream "
                    f"table keeps that ledger once: declare "
                    f"report(const core::SessionLedger&)"))
        if state.deleted_copy_ctor:
            findings.append(Finding(
                model.path, state.start_line, "P1",
                f"pass '{leaf}' State deletes its copy constructor — "
                f"snapshot() clones per-shard states, so State must be "
                f"copy-constructible (the snapshot contract in pass.h)"))
        else:
            for mname, mtype in state.members.items():
                if mname.startswith("using "):
                    continue
                if NONCOPYABLE_MEMBER_RE.search(mtype):
                    findings.append(Finding(
                        model.path, state.decl_lines.get(
                            mname, state.start_line), "P1",
                        f"pass '{leaf}' State member '{mname}' has "
                        f"non-copyable type '{mtype}' — snapshot() "
                        f"requires a faithful deep-copyable State"))


def is_decode_function(fn):
    if re.search(r"\bByteReader\s*&", fn.params):
        return True
    return fn.name == "load" or fn.name.startswith("read_")


def check_s1(project, model, findings):
    for fn in model.functions:
        if not is_decode_function(fn):
            continue
        cls_leaf = fn.class_path.rsplit("::", 1)[-1] if fn.class_path else ""
        if cls_leaf in ("ByteReader", "ByteWriter"):
            continue  # the primitives themselves
        # (a) raw stream reads bypassing the primitives.
        for m in RAW_STREAM_READ_RE.finditer(fn.body):
            line = fn.body_start_line + fn.body[:m.start()].count("\n")
            findings.append(Finding(
                model.path, line, "S1",
                f"decode function '{fn.name}' calls .{m.group(1)}() on a "
                f"stream directly — go through the ByteReader "
                f"primitives so truncation throws DecodeError"))
        # (b) pre-sized allocation from an unvalidated wire count.
        tainted = {}
        for m in WIRE_READ_DECL_RE.finditer(fn.body):
            tainted[m.group(1)] = m.start()
        for m in WIRE_READ_RE.finditer(fn.body):
            tainted.setdefault(m.group(1), m.start())
        if not tainted:
            continue
        guarded = set()
        for var, born in tainted.items():
            for gm in re.finditer(r"\bif\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)",
                                  fn.body):
                if gm.start() > born and re.search(
                        r"\b%s\b" % re.escape(var), gm.group(1)):
                    guarded.add((var, gm.start()))
        for m in PRESIZE_RE.finditer(fn.body):
            var = m.group(1) or m.group(2) or m.group(3)
            if var not in tainted or m.start() < tainted[var]:
                continue
            around = fn.body[max(0, m.start() - 80):m.start()]
            if re.search(r"\bmin\s*(<[^<>]*>)?\s*\($", around.rstrip()) or \
                    "min" in around[-40:]:
                continue
            if any(g[0] == var and g[1] < m.start() for g in guarded):
                continue
            line = fn.body_start_line + fn.body[:m.start()].count("\n")
            findings.append(Finding(
                model.path, line, "S1",
                f"decode function '{fn.name}' pre-sizes an allocation from "
                f"wire count '{var}' with no bound check — corrupt input "
                f"must throw DecodeError before it can drive a huge "
                f"allocation"))


def check_l1(project, model, findings):
    layer = os.path.basename(os.path.dirname(os.path.abspath(model.path)))
    if layer not in MEASUREMENT_LAYERS:
        return
    for index, code_line in enumerate(model.lines):
        # The directive must survive comment stripping; the target is
        # read from the raw line because string bodies are blanked.
        if not INCLUDE_DIRECTIVE_RE.match(code_line):
            continue
        m = INCLUDE_TARGET_RE.search(model.raw_lines[index])
        if not m or m.group(1).split("/", 1)[0] not in SIMULATOR_LAYERS:
            continue
        findings.append(Finding(
            model.path, index + 1, "L1",
            f"layer '{layer}' includes '{m.group(1)}' — the measurement "
            f"layers must not depend on the simulator; hand simulated "
            f"collectors to the engine as MRT bytes (synth::ingest)"))


CHECK_FUNCS = {
    "D1": check_d1,
    "D2": check_d2,
    "H1": check_h1,
    "P1": check_p1,
    "S1": check_s1,
    "L1": check_l1,
}


# ---------------------------------------------------------------------------
# Optional libclang engine (experimental): cross-checks D1 with real AST
# types. The token engine remains the gate; this exists for local deep
# dives where the bindings are installed.

def libclang_d1(paths, findings):
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        sys.stderr.write(
            "bgpcc-lint: --engine clang requested but the libclang Python "
            "bindings are not importable; falling back to tokens\n")
        return False
    index = cindex.Index.create()
    for path in paths:
        try:
            tu = index.parse(path, args=["-std=c++20", "-Isrc"])
        except cindex.TranslationUnitLoadError:
            continue
        def walk(node, fn_name):
            if node.kind == cindex.CursorKind.FUNCTION_DECL or \
                    node.kind == cindex.CursorKind.CXX_METHOD:
                fn_name = node.spelling
            if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT and \
                    fn_name and (fn_name in EMIT_FUNCTION_NAMES or
                                 fn_name.startswith(EMIT_FUNCTION_PREFIXES)):
                children = list(node.get_children())
                if children:
                    ty = children[-2].type.spelling if len(
                        children) >= 2 else ""
                    if UNORDERED_TYPE_RE.search(ty or ""):
                        findings.append(Finding(
                            path, node.location.line, "D1",
                            f"(libclang) '{fn_name}' iterates unordered "
                            f"range of type {ty}"))
            for child in node.get_children():
                if child.location.file and \
                        child.location.file.name == path:
                    walk(child, fn_name)
        walk(tu.cursor, None)
    return True


# ---------------------------------------------------------------------------
# Driver.

SOURCE_EXTS = (".h", ".hpp", ".hh", ".cc", ".cpp", ".cxx")


def gather_files(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("build", ".git", "_deps"))
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        out.append(os.path.join(root, name))
        elif os.path.isfile(p):
            out.append(p)
        else:
            raise FileNotFoundError(p)
    return out


def build_model(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    code, comments = strip_comments(raw)
    model = FileModel(
        path=path, raw=raw, code=code,
        lines=code.split("\n"), raw_lines=raw.split("\n"),
        suppressions=[], functions=[], classes={},
        aliases=collect_aliases(code),
        pass_tag_enum=collect_pass_tag_enum(code))
    parse_scopes(model)
    model.comments = comments
    return model


def run(argv):
    ap = argparse.ArgumentParser(prog="bgpcc-lint", add_help=True)
    ap.add_argument("paths", nargs="*", help="files or directories")
    ap.add_argument("--checks", default="all",
                    help="comma-separated check ids (default: all)")
    ap.add_argument("--format", default="text",
                    choices=("text", "compact", "json"))
    ap.add_argument("--root", default=None,
                    help="report paths relative to this directory")
    ap.add_argument("--engine", default="tokens",
                    choices=("tokens", "clang"))
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid, desc in CHECK_INVENTORY.items():
            print(f"{cid:4} {desc}")
        return 0
    if not args.paths:
        ap.error("no paths given")

    if args.checks == "all":
        enabled = set(CHECK_FUNCS) | {"SUP"}
    else:
        enabled = set(x.strip() for x in args.checks.split(",") if x.strip())
        unknown = enabled - set(CHECK_INVENTORY)
        if unknown:
            ap.error(f"unknown checks: {', '.join(sorted(unknown))}")

    try:
        files = gather_files(args.paths)
    except FileNotFoundError as e:
        sys.stderr.write(f"bgpcc-lint: no such path: {e}\n")
        return 2

    project = Project()
    models = []
    for path in files:
        model = build_model(path)
        models.append(model)
        project.add(model)

    findings = []
    for model in models:
        file_findings = []
        parse_suppressions(model, model.comments, file_findings)
        for cid, fnc in CHECK_FUNCS.items():
            if cid in enabled:
                fnc(project, model, file_findings)
        if "SUP" not in enabled:
            file_findings = [f for f in file_findings if f.check != "SUP"]
        findings.extend(f for f in file_findings
                        if not is_suppressed(model, f))

    if args.engine == "clang" and "D1" in enabled:
        libclang_d1(files, findings)

    def rel(path):
        return os.path.relpath(path, args.root) if args.root else path

    findings.sort(key=lambda f: (rel(f.path), f.line, f.check, f.message))
    if args.format == "json":
        print(json.dumps(
            [{"path": rel(f.path), "line": f.line, "check": f.check,
              "message": f.message} for f in findings], indent=2))
    elif args.format == "compact":
        for f in findings:
            print(f"{rel(f.path)}:{f.line}: {f.check} "
                  f"{f.message.split(' — ')[0]}")
    else:
        for f in findings:
            print(f"{rel(f.path)}:{f.line}: [{f.check}] {f.message}")
        if findings:
            print(f"\nbgpcc-lint: {len(findings)} finding(s). Suppress a "
                  f"deliberate one with // bgpcc-lint: allow(ID, reason); "
                  f"see docs/LINTING.md.")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
