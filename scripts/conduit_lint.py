#!/usr/bin/env python3
"""conduit-lint: determinism/snapshot static analysis for the conduit tree.

Every claim this reproduction makes rests on one invariant: simulated
outputs are byte-identical across thread counts, snapshot/fork,
replays, and disabled-knob configurations. This tool turns the common
ways that invariant silently rots into build-time errors:

  unordered-iter    Range-for / iterator traversal of an
                    std::unordered_map/set in simulation-affecting
                    code. Iteration order is address-dependent, so any
                    simulated quantity derived from it breaks replay.
  wallclock         std::random_device, rand()/srand(), time(),
                    clock(), gettimeofday, or std::chrono::*_clock in
                    simulated paths. Wall-clock reads are allowed only
                    in the perf-attribution files (SweepPerf in
                    sweep_runner.cc; the benches live outside src/).
  ptr-order         std::map/std::set keyed on a raw pointer type, or
                    std::sort with a comparator ordering raw pointer
                    values. Address order varies run to run.
  snapshot          A snapshot-participating class (Engine, Device,
                    Ftl, NandArray, DramModel, IspCore,
                    ReliabilityModel, EventQueue) has a non-static
                    data member that is neither referenced in its
                    capture/restore/snapshot implementation nor marked
                    `// lint: transient(<why>)`. Those substrates keep
                    their mutable state in one State struct (FtlState,
                    EngineState, ...) that capture copies whole, so
                    a new member must go into the State or be marked.
                    The State structs, their nested records, StatSet
                    and Rng are copied wholesale: there, a raw pointer
                    or reference member is the finding, because the
                    copy would alias it. This is the check that makes
                    "the snapshot PR forgot a field" structurally
                    impossible. The same member coverage
                    holds for every struct a warm-image recipe is made
                    of (SsdConfig and its sub-structs, EngineOptions,
                    WorkloadParams, DeviceOptions, DeviceRecipe,
                    WarmTraffic) against the runner's imageKey(), so
                    two cells differing in any field never share one
                    warm image.
  write-only        A member of one of those imageKey-keyed settings
                    structs that nothing under src/ reads outside the
                    key itself: a setting the simulator ignores, which
                    misstates the modelled device. A name occurrence
                    counts as a read unless it is the declaration or
                    the left side of a plain `=`.
  float-accum       `+=` on a float/double accumulator inside a
                    parallelFor lambda. Cross-cell reductions must use
                    the order-preserving Histogram merge (or integer
                    arithmetic); FP addition is not associative.
  seed-plumbing     An RNG constructed from a numeric literal or via a
                    std:: random engine outside the config structs.
                    Seeds must flow from SsdConfig/spec fields so
                    sweeps and forks replay.
  test-only         A public member function declared in a src/
                    header whose name appears nowhere in src/, bench/,
                    examples/ or perfbench/ except at member function
                    declarations and out-of-line definitions: program
                    surface that only tests keep alive. Move the test
                    onto what the simulator calls, or delete both.
                    Matching is by name, so a name shared with a
                    called function hides a dead one.

Parsing uses the libclang Python bindings when they are importable and
a working libclang is found; otherwise (the common case — no new hard
dependency) a lightweight built-in C++ tokenizer handles everything.
Both paths share the same suppression and reporting machinery.

Suppressions
------------
  // lint: allow(<check>,<why>)      on the offending line or the
                                     line directly above it.
  // lint: transient(<why>)          on a snapshot-class member's
                                     declaration line (or directly
                                     above): the member is deliberately
                                     not captured.
  // lint: transient-begin(<why>)    block form of transient, closed
  // lint: transient-end             by transient-end.

Suppressions are themselves counted and listed in the report, so a
tree that drifts toward "annotate everything" is visible at a glance.

Output
------
Human-readable findings by default; `::error file=..` GitHub
annotations when --github is passed or GITHUB_ACTIONS is set; a JSON
report via --report. Exit status: 0 clean, 1 unsuppressed findings,
2 usage/internal error.

Usage
-----
  scripts/conduit_lint.py                  # lint src/ of the repo
  scripts/conduit_lint.py --root DIR       # lint DIR/src
  scripts/conduit_lint.py --selftest       # fixture suite (lint/)
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))

CHECKS = (
    "unordered-iter",
    "wallclock",
    "ptr-order",
    "snapshot",
    "write-only",
    "float-accum",
    "seed-plumbing",
    "test-only",
)

# Directories under src/ whose code computes simulated quantities.
# Everything is scanned; this set only widens unordered-iter (pure
# lookup is fine anywhere, traversal is only a hazard where the
# result can feed simulated output — which is all of these).
SIM_DIRS = (
    "src/sim", "src/core", "src/ftl", "src/cluster",
    "src/reliability", "src/nand", "src/dram", "src/isp", "src/host",
    "src/offload", "src/vectorizer", "src/ir", "src/workloads",
    "src/energy", "src/runner", "src/trace",
)

# Files allowed to read the wall clock: per-cell SweepPerf
# attribution. Simulated results never depend on these reads — the
# CI thread-determinism diffs enforce that independently.
WALLCLOCK_ALLOWED_FILES = ("src/runner/sweep_runner.cc",)

# Files allowed to construct literal-seeded RNGs: the config structs
# define the default seeds every other site must plumb from.
SEED_ALLOWED_FILES = ("src/sim/config.hh", "src/sim/config.cc")

# test-only: headers whose public member functions need a caller, and
# the directories whose code counts as one (tests/ does not).
TEST_ONLY_HEADERS = ("src/",)
CALLER_DIRS = ("src", "bench", "examples", "perfbench")


class SnapshotClass:
    """One snapshot-participating class and where its capture lives.

    impls: list of (file, [qualified function names]) whose bodies
    must reference every non-transient member. Functions named
    without '::' are looked up inline in the class body itself.
    wholesale: the object is captured by whole-object copy/assignment
    (e.g. a substrate's `State`, or the engine's `stats_` copied into
    its Image), so value members are covered by the
    compiler-generated copy; raw pointer/reference members still
    require a transient annotation because they alias, not copy.
    settings: the impls are a sharing key over simulator settings, so
    every member must also be read somewhere outside them (the
    write-only check).
    """

    def __init__(self, name, header, impls=(), wholesale=False,
                 loss="a forked device would silently lose this state",
                 settings=False):
        self.name = name
        self.header = header
        self.impls = impls
        self.wholesale = wholesale
        self.loss = loss
        self.settings = settings


SNAPSHOT_CLASSES = (
    SnapshotClass("Engine", "src/core/engine.hh",
                  impls=[("src/core/engine.cc",
                          ["Engine::captureImage",
                           "Engine::restoreImage"])]),
    SnapshotClass("Device", "src/core/device.hh",
                  impls=[("src/core/device.cc",
                          ["Device::snapshot", "Device::Device"])]),
    SnapshotClass("Ftl", "src/ftl/ftl.hh",
                  impls=[(None, ["capture"]),
                         ("src/ftl/ftl.cc", ["Ftl::restore"])]),
    SnapshotClass("NandArray", "src/nand/nand.hh",
                  impls=[(None, ["capture", "restore"])]),
    SnapshotClass("DramModel", "src/dram/dram.hh",
                  impls=[(None, ["capture", "restore"])]),
    SnapshotClass("IspCore", "src/isp/isp_core.hh",
                  impls=[(None, ["capture", "restore"])]),
    SnapshotClass("ReliabilityModel", "src/reliability/reliability.hh",
                  impls=[(None, ["capture", "restore"])]),
    SnapshotClass("EventQueue", "src/sim/event_queue.hh",
                  impls=[(None, ["restore"])]),
    SnapshotClass("StatSet", "src/sim/stats.hh", wholesale=True),
    SnapshotClass("Rng", "src/sim/rng.hh", wholesale=True),
) + tuple(
    # The mutable state each class above captures by copying it whole
    # (and the record types nested in it).
    SnapshotClass(name, header, wholesale=True)
    for name, header in (
        ("EngineState", "src/core/engine.hh"),
        ("EngineState::PageMeta", "src/core/engine.hh"),
        ("FtlState", "src/ftl/ftl.hh"),
        ("FtlState::BlockState", "src/ftl/ftl.hh"),
        ("NandState", "src/nand/nand.hh"),
        ("DramState", "src/dram/dram.hh"),
        ("IspState", "src/isp/isp_core.hh"),
        ("ReliabilityState", "src/reliability/reliability.hh"),
        ("ReliabilityState::BlockWear",
         "src/reliability/reliability.hh"),
    )) + tuple(
    SnapshotClass(name, header,
                  impls=[("src/runner/sweep_runner.cc", ["imageKey"])],
                  loss="cells differing only in it would share one "
                  "warm image", settings=True)
    for name, header in (
        ("NandConfig", "src/sim/config.hh"),
        ("DramConfig", "src/sim/config.hh"),
        ("IspConfig", "src/sim/config.hh"),
        ("HostConfig", "src/sim/config.hh"),
        ("EnergyConfig", "src/sim/config.hh"),
        ("OverheadConfig", "src/sim/config.hh"),
        ("ComputeModelConfig", "src/sim/config.hh"),
        ("ReliabilityConfig", "src/sim/config.hh"),
        ("SsdConfig", "src/sim/config.hh"),
        ("EngineOptions", "src/core/run_result.hh"),
        ("WorkloadParams", "src/workloads/workloads.hh"),
        ("DeviceOptions", "src/core/device.hh"),
        ("DeviceRecipe", "src/runner/run_spec.hh"),
        ("WarmTraffic", "src/runner/run_spec.hh"),
    ))


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message
        self.suppressed = None  # (line, why) when allowed inline

    def key(self):
        return (self.path, self.line, self.check)


# --------------------------------------------------------------------
# Source model: comment/string stripping with line preservation.
# --------------------------------------------------------------------

class Source:
    """One file: raw lines, comment text, and stripped code lines.

    `code[i]` is line i with comments and string/char literal
    contents blanked (lengths preserved, so column arithmetic and
    regexes keep working). `comments[i]` holds the comment text of
    line i, where the `// lint:` directives live.
    """

    def __init__(self, path, text):
        self.path = path
        self.raw = text.split("\n")
        self.code = []
        self.comments = []
        self._strip(text)
        self.allows = self._directives("allow")
        self.transients = self._directives("transient")
        self.transient_blocks = self._transient_blocks()

    def _strip(self, text):
        code_lines, comment_lines = [], []
        code, comment = [], []
        state = "code"  # code | line-comment | block-comment | str | chr
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "\n":
                code_lines.append("".join(code))
                comment_lines.append("".join(comment))
                code, comment = [], []
                if state == "line-comment":
                    state = "code"
                i += 1
                continue
            if state == "code":
                if c == "/" and nxt == "/":
                    state = "line-comment"
                    code.append("  ")
                    i += 2
                    continue
                if c == "/" and nxt == "*":
                    state = "block-comment"
                    code.append("  ")
                    i += 2
                    continue
                if c == '"':
                    state = "str"
                    code.append(c)
                    i += 1
                    continue
                if c == "'" and not _in_number(code):
                    state = "chr"
                    code.append(c)
                    i += 1
                    continue
                code.append(c)
                i += 1
                continue
            if state in ("line-comment", "block-comment"):
                if state == "block-comment" and c == "*" and nxt == "/":
                    state = "code"
                    code.append("  ")
                    i += 2
                    continue
                comment.append(c)
                code.append(" ")
                i += 1
                continue
            # String/char literal: blank the contents.
            if c == "\\":
                code.append("  ")
                i += 2
                continue
            if (state == "str" and c == '"') or (
                    state == "chr" and c == "'"):
                state = "code"
                code.append(c)
                i += 1
                continue
            code.append(" ")
            i += 1
        code_lines.append("".join(code))
        comment_lines.append("".join(comment))
        self.code = code_lines
        self.comments = comment_lines

    def _directives(self, kind):
        """{line (1-based): why} for `lint: <kind>(check,why)` forms."""
        out = {}
        # Greedy body match: the reason text may itself contain
        # parentheses (e.g. "snapshot() drains..."), so capture up to
        # the last ')' on the line.
        pat = re.compile(
            r"lint:\s*" + kind + r"\((.*)\)")
        for idx, comment in enumerate(self.comments):
            m = pat.search(comment)
            if m:
                out[idx + 1] = m.group(1).strip()
        return out

    def _transient_blocks(self):
        """[(first, last, why)] line ranges of transient-begin/end."""
        blocks = []
        begin = re.compile(r"lint:\s*transient-begin\((.*)\)")
        end = re.compile(r"lint:\s*transient-end")
        open_at, why = None, None
        for idx, comment in enumerate(self.comments):
            m = begin.search(comment)
            if m:
                open_at, why = idx + 1, m.group(1).strip()
                continue
            if end.search(comment) and open_at is not None:
                blocks.append((open_at, idx + 1, why))
                open_at = None
        return blocks

    def allow_for(self, line):
        """allow() on the finding's line or the line above, if any."""
        for cand in (line, line - 1):
            if cand in self.allows:
                return cand, self.allows[cand]
        return None

    def transient_for(self, line):
        for cand in (line, line - 1):
            if cand in self.transients:
                return cand, self.transients[cand]
        for first, last, why in self.transient_blocks:
            if first <= line <= last:
                return first, why
        return None

    def line_of_offset(self, offset):
        """1-based line containing character offset into joined code."""
        joined = 0
        for idx, line in enumerate(self.code):
            joined += len(line) + 1
            if offset < joined:
                return idx + 1
        return len(self.code)

    def joined_code(self):
        return "\n".join(self.code)


def _in_number(code):
    """True when the line so far ends inside a numeric literal, where
    a quote is a digit separator (`1'000'000`), not a char literal."""
    tail = re.search(r"[\w']*$", "".join(code[-40:])).group(0)
    return tail[:1].isdigit()


def load_source(root, relpath):
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        return Source(relpath, f.read())


# --------------------------------------------------------------------
# Lightweight C++ helpers (the fallback tokenizer's toolbox).
# --------------------------------------------------------------------

IDENT = r"[A-Za-z_]\w*"


def match_paren(text, open_pos, open_ch="(", close_ch=")"):
    """Offset one past the matching close bracket, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def find_function_body(text, qualified_name):
    """[(start, end)] body extents of definitions of qualified_name.

    Matches `name (args) [qualifiers] {` — good enough for this
    codebase's formatting, where definitions put the qualified name
    at the start of a line.
    """
    out = []
    pat = re.compile(re.escape(qualified_name) + r"\s*\(")
    for m in pat.finditer(text):
        close = match_paren(text, m.end() - 1)
        if close < 0:
            continue
        # Skip declarations (`...);`) and find the opening brace,
        # tolerating `const`, `noexcept`, `override`, init lists.
        i = close
        depth = 0
        while i < len(text):
            c = text[i]
            if c == ";" and depth == 0:
                break  # declaration, not a definition
            if c in "({[":
                if c == "{" and depth == 0:
                    end = match_paren(text, i, "{", "}")
                    if end > 0:
                        out.append((i, end))
                    break
                depth += 1
            elif c in ")}]":
                depth -= 1
            i += 1
    return out


def find_class_body(text, class_name):
    """(start, end) offsets of `class/struct name ... { ... }`.

    A qualified name (`Outer::Inner`) is looked up scope by scope:
    Inner's body is searched for inside Outer's only.
    """
    body, lo, hi = None, 0, len(text)
    for part in class_name.split("::"):
        pat = re.compile(
            r"\b(?:class|struct)\s+" + re.escape(part) +
            r"\b[^;{]*\{")
        m = pat.search(text, lo, hi)
        if not m:
            return None
        open_pos = m.end() - 1
        end = match_paren(text, open_pos, "{", "}")
        if end < 0:
            return None
        body, lo, hi = (open_pos, end), open_pos + 1, end
    return body


MEMBER_SKIP_PREFIX = re.compile(
    r"\s*(public|private|protected|using|typedef|friend|static|"
    r"template|enum|struct|class|union|return)\b")


def class_members(text, body_start, body_end):
    """[(name, decl_offset)] non-static data members of a class body.

    Walks the class body at nesting depth 1 (skipping nested type
    and inline function bodies), splits statements at top-level
    semicolons, filters out declarations with top-level parens
    (functions) and keyword-led statements, and takes the declarator
    name as the last identifier before the initializer.
    """
    members = []
    depth = 0
    stmt_start = body_start + 1
    i = body_start + 1
    while i < body_end - 1:
        c = text[i]
        if c in "{(":
            inner = match_paren(
                text, i, c, "}" if c == "{" else ")")
            if inner < 0:
                break
            head = text[stmt_start:i]
            if c == "(" and ("=" not in head or
                             re.search(r"\boperator\b", head)):
                # Parens before any initializer make the statement a
                # function declaration/definition: mark it. Parens
                # after `=` belong to a member's default initializer
                # (`Tick t = usToTicks(50);`), which stays a member.
                depth_paren_stmt.add(stmt_start)
            i = inner
            continue
        if c == ";":
            stmt = text[stmt_start:i]
            off = stmt_start
            name = _member_name(stmt)
            if name and stmt_start not in depth_paren_stmt:
                # Offset of the declarator itself, for line mapping.
                m = re.search(r"\b" + re.escape(name) + r"\b(?!.*\b" +
                              re.escape(name) + r"\b)", stmt,
                              re.DOTALL)
                members.append(
                    (name, off + (m.start() if m else 0)))
            stmt_start = i + 1
        i += 1
    return members


depth_paren_stmt = set()  # reset per class_members call site


def _member_name(stmt):
    s = stmt.strip()
    if not s or MEMBER_SKIP_PREFIX.match(s):
        return None
    if "(" in _outside_angles(s.split("=", 1)[0].split("{", 1)[0]):
        return None
    # Drop the initializer: split at the first top-level '=' or '{'.
    decl = _split_initializer(s)
    # Strip trailing array extents: `state_[4]` -> `state_`.
    decl = re.sub(r"\[[^\]]*\]\s*$", "", decl).rstrip()
    m = re.search(r"(" + IDENT + r")\s*$", decl)
    if not m:
        return None
    name = m.group(1)
    if name in ("const", "mutable", "volatile"):
        return None
    return name


def _split_initializer(s):
    depth_angle = 0
    for i, c in enumerate(s):
        if c == "<":
            depth_angle += 1
        elif c == ">":
            depth_angle = max(0, depth_angle - 1)
        elif c in "={" and depth_angle == 0:
            return s[:i]
    return s


def _outside_angles(s):
    out, depth = [], 0
    for c in s:
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(c)
    return "".join(out)


# --------------------------------------------------------------------
# Optional libclang front-end (refines unordered-iter when present).
# --------------------------------------------------------------------

def _try_libclang():
    try:
        from clang import cindex  # noqa: F401
        idx = cindex.Index.create()
        return cindex, idx
    except Exception:  # ImportError or LibclangError
        return None, None


LIBCLANG, LIBCLANG_INDEX = _try_libclang()


def libclang_unordered_loops(root, relpath):
    """Range-for statements whose range is an unordered container.

    Returns a set of 1-based lines, or None when libclang is
    unavailable or fails to parse (the tokenizer path then stands
    alone, which is the no-hard-dependency contract).
    """
    if LIBCLANG is None:
        return None
    try:
        tu = LIBCLANG_INDEX.parse(
            os.path.join(root, relpath),
            args=["-std=c++17", "-I", root])
    except Exception:
        return None
    lines = set()

    def visit(node):
        if node.kind == LIBCLANG.CursorKind.CXX_FOR_RANGE_STMT:
            for child in node.get_children():
                t = child.type.spelling
                if "unordered_map" in t or "unordered_set" in t:
                    lines.add(node.location.line)
                break
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    return lines


# --------------------------------------------------------------------
# Check 1: unordered-iteration.
# --------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_VAR = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")


def collect_unordered_names(src):
    """Names declared (anywhere in the file) with an unordered type.

    Conservative: a name is tainted file-wide. That over-taints
    shadowed locals in principle, but those don't occur here and the
    failure mode is a spurious finding someone annotates, not a
    silently missed hazard.
    """
    names = set()
    text = src.joined_code()
    for m in UNORDERED_VAR.finditer(text):
        close = _match_angle(text, m.end() - 1)
        if close < 0:
            continue
        rest = text[close:]
        dm = re.match(r"\s*&?\s*(" + IDENT + r")\s*[;={(,)]", rest)
        if dm:
            names.add(dm.group(1))
        # Alias declarations: using Foo = std::unordered_map<...>;
        before = text[max(0, m.start() - 120):m.start()]
        am = re.search(r"using\s+(" + IDENT + r")\s*=\s*$", before)
        if am:
            names.add(am.group(1))
    return names


def _match_angle(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def check_unordered_iter(src, findings):
    if not any(src.path.startswith(d + "/") or
               os.path.dirname(src.path) == d for d in SIM_DIRS):
        return
    names = collect_unordered_names(src)
    text = src.joined_code()

    # Range-for over a tainted name: for (... : expr-with-name)
    for m in re.finditer(r"\bfor\s*\(", text):
        close = match_paren(text, m.end() - 1)
        if close < 0:
            continue
        header = text[m.end():close - 1]
        if ":" not in header:
            continue
        range_expr = header.rsplit(":", 1)[1]
        for name in names:
            if re.search(r"\b" + re.escape(name) + r"\b", range_expr):
                line = src.line_of_offset(m.start())
                findings.append(Finding(
                    "unordered-iter", src.path, line,
                    f"range-for over unordered container '{name}': "
                    "iteration order is address-dependent and breaks "
                    "replay determinism"))
                break

    # Iterator traversal / bulk copies: name.begin()/cbegin()/rbegin().
    for name in names:
        for m in re.finditer(
                r"\b" + re.escape(name) +
                r"\s*\.\s*(?:c?r?begin)\s*\(", text):
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                "unordered-iter", src.path, line,
                f"iterator traversal of unordered container "
                f"'{name}': iteration order is address-dependent "
                "and breaks replay determinism"))

    # libclang refinement: lines it proves are unordered range-fors
    # that the name-based pass missed (e.g. via member access off a
    # getter). Purely additive.
    clang_lines = libclang_unordered_loops(REPO_ROOT, src.path)
    if clang_lines:
        seen = {f.line for f in findings
                if f.path == src.path and f.check == "unordered-iter"}
        for line in sorted(clang_lines - seen):
            findings.append(Finding(
                "unordered-iter", src.path, line,
                "range-for over unordered container (libclang): "
                "iteration order is address-dependent"))


# --------------------------------------------------------------------
# Check 2: wall-clock / entropy.
# --------------------------------------------------------------------

WALLCLOCK_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device is non-deterministic entropy"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("),
     "rand()/srand() is unseeded global entropy"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() reads the wall clock"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("),
     "wall-clock syscall"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*(?:steady_clock|"
                r"system_clock|high_resolution_clock)\b"),
     "std::chrono clock read in a simulated path"),
)


def check_wallclock(src, findings):
    if src.path in WALLCLOCK_ALLOWED_FILES:
        return
    text = src.joined_code()
    for pat, why in WALLCLOCK_PATTERNS:
        for m in pat.finditer(text):
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                "wallclock", src.path, line,
                f"{why}; simulated quantities must derive only from "
                "simulated time and plumbed seeds"))


# --------------------------------------------------------------------
# Check 3: pointer-ordered containers.
# --------------------------------------------------------------------

ORDERED_CONTAINER = re.compile(
    r"std\s*::\s*(?:multi)?(?:map|set)\s*<")


def check_ptr_order(src, findings):
    text = src.joined_code()
    for m in ORDERED_CONTAINER.finditer(text):
        # Exclude unordered_* (the regex can't look behind var-width).
        before = text[max(0, m.start() - 10):m.start()]
        if before.endswith("unordered_"):
            continue
        close = _match_angle(text, m.end() - 1)
        if close < 0:
            continue
        args = text[m.end():close - 1]
        key = _first_template_arg(args)
        if key.rstrip().endswith("*"):
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                "ptr-order", src.path, line,
                f"ordered container keyed on raw pointer "
                f"'{key.strip()}': iteration order follows addresses "
                "and varies run to run"))

    # std::sort with a comparator ordering raw pointers directly.
    for m in re.finditer(r"std\s*::\s*(?:stable_)?sort\s*\(", text):
        close = match_paren(text, m.end() - 1)
        if close < 0:
            continue
        call = text[m.end():close - 1]
        lam = re.search(
            r"\[[^\]]*\]\s*\(([^)]*\*[^)]*)\)\s*(?:->[^{]*)?\{",
            call)
        if not lam:
            continue
        params = [p.strip() for p in lam.group(1).split(",")]
        ptr_names = []
        for p in params:
            pm = re.search(r"\*\s*(?:const\s+)?(" + IDENT + r")\s*$",
                           p)
            if pm:
                ptr_names.append(pm.group(1))
        if len(ptr_names) < 2:
            continue
        body_open = call.find("{", lam.start())
        body_end = match_paren(call, body_open, "{", "}")
        body = call[body_open:body_end]
        a, b = ptr_names[0], ptr_names[1]
        direct = re.search(
            r"\b" + a + r"\s*[<>]=?\s*" + b + r"\b|\b" +
            b + r"\s*[<>]=?\s*" + a + r"\b", body)
        if direct:
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                "ptr-order", src.path, line,
                "std::sort comparator orders raw pointer values: "
                "address order varies run to run"))


def _first_template_arg(args):
    depth = 0
    for i, c in enumerate(args):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "," and depth == 0:
            return args[:i]
    return args


# --------------------------------------------------------------------
# Check 4: snapshot coverage.
# --------------------------------------------------------------------

def check_snapshot(root, classes, findings, missing_is_error=True):
    for sc in classes:
        header_path = os.path.join(root, sc.header)
        if not os.path.isfile(header_path):
            if missing_is_error:
                findings.append(Finding(
                    "snapshot", sc.header, 1,
                    f"snapshot class {sc.name}: header not found"))
            continue
        src = load_source(root, sc.header)
        text = src.joined_code()
        body = find_class_body(text, sc.name)
        if body is None:
            findings.append(Finding(
                "snapshot", sc.header, 1,
                f"snapshot class {sc.name}: class body not found"))
            continue
        depth_paren_stmt.clear()
        members = class_members(text, body[0], body[1])

        # Gather the capture/restore implementation text.
        impl_text = []
        for impl_file, fn_names in sc.impls:
            if impl_file is None:
                impl_src, impl_body_text = src, text[body[0]:body[1]]
            else:
                impl_src = load_source(root, impl_file)
                impl_body_text = impl_src.joined_code()
            for fn in fn_names:
                spans = find_function_body(impl_body_text, fn)
                for start, end in spans:
                    impl_text.append(impl_body_text[start:end])
        impl = "\n".join(impl_text)
        if sc.impls and not impl:
            findings.append(Finding(
                "snapshot", sc.header,
                src.line_of_offset(body[0]),
                f"snapshot class {sc.name}: no "
                "capture/restore/snapshot implementation found "
                f"({', '.join(fn for _, fns in sc.impls for fn in fns)})"))
            continue

        for name, decl_off in members:
            decl_line = src.line_of_offset(decl_off)
            if sc.wholesale:
                # Whole-object copy covers value members; aliasing
                # members (raw pointers/references) still need an
                # explicit transient annotation.
                decl_stmt = src.code[decl_line - 1]
                if "*" not in decl_stmt and "&" not in decl_stmt:
                    continue
                if src.transient_for(decl_line):
                    continue
                findings.append(Finding(
                    "snapshot", sc.header, decl_line,
                    f"{sc.name}::{name} is a pointer/reference in a "
                    "wholesale-copied snapshot class: the copy "
                    "aliases instead of deep-copying; mark it "
                    "`// lint: transient(<why>)` or restructure"))
                continue
            if re.search(r"\b" + re.escape(name) + r"\b", impl):
                continue
            if src.transient_for(decl_line):
                continue
            fns = ", ".join(
                fn for _, fn_list in sc.impls for fn in fn_list)
            findings.append(Finding(
                "snapshot", sc.header, decl_line,
                f"{sc.name}::{name} is neither referenced in "
                f"{fns or 'the snapshot implementation'} nor marked "
                f"`// lint: transient(<why>)` — {sc.loss}"))


# --------------------------------------------------------------------
# Check 5: write-only settings.
# --------------------------------------------------------------------

def _impl_spans(sc, path, text):
    """[(start, end)] bodies of sc's key functions inside `path`."""
    spans = []
    for impl_file, fn_names in sc.impls:
        if (impl_file or sc.header) != path:
            continue
        for fn in fn_names:
            spans.extend(find_function_body(text, fn))
    return spans


def check_write_only(classes, sources, findings):
    """Flag settings members nothing in `sources` reads.

    A read is any whole-word occurrence of the member name outside
    the key functions, except its own declaration and a plain
    assignment (`name = ...`). Common names may match unrelated code,
    so the check can miss a dead member.
    """
    codes = {rel: src.joined_code() for rel, src in sorted(sources.items())}
    for sc in classes:
        if not sc.settings or sc.header not in sources:
            continue
        src = sources[sc.header]
        text = codes[sc.header]
        body = find_class_body(text, sc.name)
        if body is None:
            continue  # check_snapshot reports it
        depth_paren_stmt.clear()
        for name, decl_off in class_members(text, body[0], body[1]):
            word = re.compile(r"\b" + re.escape(name) + r"\b")
            read = False
            for rel, code in codes.items():
                skip = _impl_spans(sc, rel, code)
                for m in word.finditer(code):
                    if rel == sc.header and m.start() == decl_off:
                        continue
                    if any(a <= m.start() < b for a, b in skip):
                        continue
                    if re.match(r"\s*=(?!=)", code[m.end():]):
                        continue
                    read = True
                    break
                if read:
                    break
            if not read:
                findings.append(Finding(
                    "write-only", sc.header, src.line_of_offset(decl_off),
                    f"{sc.name}::{name} is read nowhere outside "
                    f"{', '.join(fn for _, f in sc.impls for fn in f)}: "
                    "the simulator ignores this setting; delete it or "
                    "make it a constant where it is needed"))


# --------------------------------------------------------------------
# Check 6: float accumulation order inside parallelFor.
# --------------------------------------------------------------------

FLOAT_DECL = re.compile(
    r"\b(?:double|float)\s+(" + IDENT + r")\s*[;={]")


def check_float_accum(src, findings):
    text = src.joined_code()
    float_names = {m.group(1) for m in FLOAT_DECL.finditer(text)}
    # References/pointers to float also accumulate float.
    for m in re.finditer(
            r"\b(?:double|float)\s*[&*]\s*(" + IDENT + r")", text):
        float_names.add(m.group(1))
    if not float_names:
        return
    for m in re.finditer(r"\bparallelFor\s*\(", text):
        close = match_paren(text, m.end() - 1)
        if close < 0:
            continue
        body = text[m.end():close - 1]
        for am in re.finditer(
                r"\b(" + IDENT + r")\s*(?:\[[^\]]*\]\s*)?\+=", body):
            name = am.group(1)
            if name in float_names:
                line = src.line_of_offset(m.end() + am.start())
                findings.append(Finding(
                    "float-accum", src.path, line,
                    f"float accumulator '{name}' updated with += "
                    "inside a parallelFor body: FP addition is not "
                    "associative — merge per-cell results in index "
                    "order (Histogram::merge) instead"))


# --------------------------------------------------------------------
# Check 7: seed plumbing.
# --------------------------------------------------------------------

SEED_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
                r"default_random_engine|knuth_b|ranlux\w+)\b"),
     "std:: random engine: distribution outputs are not fixed "
     "across standard libraries — use conduit::Rng with a plumbed "
     "seed"),
    (re.compile(r"\bRng\s+" + IDENT +
                r"\s*[({]\s*(?:0[xX][0-9a-fA-F']+|\d[\d']*)"
                r"\s*[uUlL]*\s*[)}]"),
     "RNG constructed from a numeric literal: seeds must flow from "
     "config/spec fields so sweeps and forks replay"),
    (re.compile(r"(?<![\w:.])srand\s*\("),
     "srand() seeds global state invisibly"),
)


def check_seed_plumbing(src, findings):
    if src.path in SEED_ALLOWED_FILES:
        return
    text = src.joined_code()
    for pat, why in SEED_PATTERNS:
        for m in pat.finditer(text):
            line = src.line_of_offset(m.start())
            findings.append(Finding(
                "seed-plumbing", src.path, line, why))


# --------------------------------------------------------------------
# Check 8: public member functions that only tests call.
# --------------------------------------------------------------------

CLASS_HEAD = re.compile(
    r"\b(class|struct)\s+(" + IDENT + r")\b[^;{}()]*\{")
NOT_A_FUNCTION = re.compile(
    r"(friend|using|typedef|static_assert|enum|struct|class|union)\b")
ACCESS_LABELS = ("public", "private", "protected")
# Keywords a "name(" can be in a declaration that names no function.
NOT_A_NAME = ("alignas", "decltype", "noexcept", "sizeof", "alignof",
              "void", "bool", "char", "int", "long", "double", "auto")


def _function_decl(flat):
    """Name of the member function a flattened statement declares.

    `flat` is one class-body statement with every bracket group
    collapsed to "()" or "{}". Returns None for data members, nested
    types, constructors' `= default`/`= delete`, and operators.
    """
    s = _outside_angles(flat).strip()
    if not _function_head(s):
        return None
    before, after = s.split("()", 1)
    if re.search(r"\boperator\b", before) or \
            after.lstrip().startswith("()"):  # a function pointer
        return None
    if re.search(r"=\s*(?:default|delete)\s*$", s):
        return None
    m = re.search(r"(~?)(" + IDENT + r")\s*$", before)
    if not m or m.group(1) or m.group(2) in NOT_A_NAME:
        return None
    return m.group(2)


def _function_head(s):
    """True when flattened statement `s` declares a function
    (constructors, destructors and operators included)."""
    if not s or NOT_A_FUNCTION.match(s) or "()" not in s:
        return False
    return "=" not in s.split("()", 1)[0] or \
        re.search(r"\boperator\b", s) is not None


def _opens_body(s):
    """True when a `{` after flattened `s` opens a function body
    rather than a member's brace initializer."""
    if not _function_head(s):
        return False
    tail = s.rstrip()
    return tail.endswith((")", "}")) or "->" in tail or \
        re.search(r"\b(?:const|override|final|noexcept)$", tail) \
        is not None


def class_functions(text, head, open_pos, close_pos):
    """[(name, decl_offset, line_offset, public)] of one class body.

    `head` is the body's CLASS_HEAD match. Walks the body at depth 1,
    tracking access labels; bracket groups (parameter lists, inline
    bodies, nested types) are skipped whole, so a nested class is
    left to its own CLASS_HEAD match. `line_offset` is the first
    token of the declaration (its return type), where a finding and
    its allow() go.
    """
    out = []
    public = head.group(1) == "struct"
    flat = []
    start = open_pos + 1

    def finish(end):
        name = _function_decl("".join(flat))
        if not name or name == head.group(2):
            return
        m = re.compile(r"\b" + re.escape(name) + r"\s*\(").search(
            text, start, end)
        if m:
            first = start + len(text[start:end]) - \
                len(text[start:end].lstrip())
            out.append((name, m.start(), first, public))

    i = open_pos + 1
    while i < close_pos - 1:
        c = text[i]
        if c in "({":
            end = match_paren(text, i, c, ")" if c == "(" else "}")
            if end < 0:
                break
            if c == "{" and _opens_body(_outside_angles("".join(flat))):
                finish(i)  # an inline definition ends the statement
                flat, start = [], end
            else:
                flat.append("()" if c == "(" else "{}")
            i = end
            continue
        if c == ";":
            finish(i)
            flat, start = [], i + 1
        elif c == ":" and text[i + 1] != ":" and text[i - 1] != ":" \
                and "".join(flat).strip() in ACCESS_LABELS:
            public = "".join(flat).strip() == "public"
            flat, start = [], i + 1
        else:
            flat.append(c)
        i += 1
    return out


DEFINITION_TAIL = re.compile(
    r"(?:\s|const\b|noexcept\b|override\b|final\b)*\{")


def _is_definition(code, m):
    """True when name match `m` is a qualified `X::name(...) {`."""
    if code[max(0, m.start() - 2):m.start()] != "::":
        return False
    paren = re.compile(r"\s*\(").match(code, m.end())
    if not paren:
        return False
    close = match_paren(code, paren.end() - 1)
    return close > 0 and DEFINITION_TAIL.match(code, close) is not None


def check_test_only(sources, corpus, findings):
    """Flag public member functions nothing in `corpus` calls.

    `corpus` maps each caller file to its stripped code. A name
    occurrence is a use unless it is a member function declaration
    parsed from a header in scope, or a qualified `X::name(...) {`
    definition.
    """
    decls = {}  # name -> {(path, offset)} of every parsed declaration
    public = []
    for rel in sorted(sources):
        if not rel.endswith(".hh") or \
                not rel.startswith(TEST_ONLY_HEADERS):
            continue
        text = corpus[rel]
        for m in CLASS_HEAD.finditer(text):
            if re.search(r"\benum\s*$", text[max(0, m.start() - 16):
                                               m.start()]):
                continue
            open_pos = m.end() - 1
            close = match_paren(text, open_pos, "{", "}")
            if close < 0:
                continue
            for name, off, first, is_public in class_functions(
                    text, m, open_pos, close):
                decls.setdefault(name, set()).add((rel, off))
                if is_public:
                    public.append((rel, first, name))
    word = re.compile(IDENT)
    used = set()
    for rel in sorted(corpus):
        code = corpus[rel]
        for m in word.finditer(code):
            name = m.group(0)
            if name not in decls or name in used:
                continue
            if (rel, m.start()) in decls[name] or \
                    _is_definition(code, m):
                continue
            used.add(name)
    for rel, off, name in public:
        if name in used:
            continue
        findings.append(Finding(
            "test-only", rel, sources[rel].line_of_offset(off),
            f"public member function '{name}' is called nowhere in "
            f"{', '.join(d + '/' for d in CALLER_DIRS)}: only tests "
            "keep it alive; move its tests onto what the simulator "
            "calls, or delete both"))


def caller_corpus(root, sources):
    """{path: stripped code} of every file under CALLER_DIRS."""
    corpus = {rel: src.joined_code() for rel, src in sources.items()}
    for d in CALLER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                if not name.endswith((".cc", ".hh")):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                if rel not in corpus:
                    corpus[rel] = load_source(root, rel).joined_code()
    return corpus


# --------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------

def scan_tree(root, paths=None, snapshot_classes=SNAPSHOT_CLASSES,
              checks=CHECKS):
    findings = []
    files = []
    if paths:
        files = sorted(paths)
    else:
        for dirpath, _, names in os.walk(os.path.join(root, "src")):
            for name in sorted(names):
                if name.endswith((".cc", ".hh")):
                    files.append(os.path.relpath(
                        os.path.join(dirpath, name), root))
        files.sort()

    sources = {}
    for rel in files:
        try:
            sources[rel] = load_source(root, rel)
        except OSError as e:
            findings.append(Finding(
                "internal", rel, 1, f"unreadable: {e}"))

    for rel, src in sources.items():
        if "unordered-iter" in checks:
            check_unordered_iter(src, findings)
        if "wallclock" in checks:
            check_wallclock(src, findings)
        if "ptr-order" in checks:
            check_ptr_order(src, findings)
        if "float-accum" in checks:
            check_float_accum(src, findings)
        if "seed-plumbing" in checks:
            check_seed_plumbing(src, findings)
    if "snapshot" in checks:
        check_snapshot(root, snapshot_classes, findings)
    if "write-only" in checks:
        check_write_only(snapshot_classes, sources, findings)
    if "test-only" in checks:
        check_test_only(sources, caller_corpus(root, sources), findings)

    # Apply inline suppressions.
    suppressed = []
    active = []
    dedup = set()
    for f in sorted(findings, key=Finding.key):
        if f.key() in dedup:
            continue
        dedup.add(f.key())
        src = sources.get(f.path)
        if src is None and os.path.isfile(os.path.join(root, f.path)):
            src = load_source(root, f.path)
            sources[f.path] = src
        allow = src.allow_for(f.line) if src else None
        if allow:
            why = allow[1]
            check_tag = why.split(",", 1)[0].strip()
            if check_tag == f.check or check_tag == "*":
                f.suppressed = allow
                suppressed.append(f)
                continue
        active.append(f)
    return active, suppressed, sources


def count_transients(sources):
    out = []
    for rel in sorted(sources):
        src = sources[rel]
        for line, why in sorted(src.transients.items()):
            out.append((rel, line, why))
        for first, _, why in src.transient_blocks:
            out.append((rel, first, f"[block] {why}"))
    return out


def emit(findings, suppressed, transients, github, report_path):
    for f in findings:
        if github:
            print(f"::error file={f.path},line={f.line},"
                  f"title=conduit-lint [{f.check}]::{f.message}")
        print(f"{f.path}:{f.line}: error: [{f.check}] {f.message}")
    if suppressed:
        print(f"\n{len(suppressed)} suppressed finding(s):")
        for f in suppressed:
            why = f.suppressed[1].split(",", 1)
            reason = why[1].strip() if len(why) > 1 else "(no reason)"
            print(f"  {f.path}:{f.line}: [{f.check}] "
                  f"allowed: {reason}")
    if transients:
        print(f"{len(transients)} transient member annotation(s):")
        for rel, line, why in transients:
            print(f"  {rel}:{line}: transient: {why}")
    by_check = {}
    for f in findings:
        by_check[f.check] = by_check.get(f.check, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(
        by_check.items())) or "clean"
    print(f"\nconduit-lint: {len(findings)} unsuppressed finding(s) "
          f"({summary}), {len(suppressed)} suppressed, "
          f"{len(transients)} transient annotations "
          f"[{'libclang' if LIBCLANG else 'builtin tokenizer'}]")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump({
                "findings": [
                    {"check": x.check, "file": x.path,
                     "line": x.line, "message": x.message}
                    for x in findings],
                "suppressed": [
                    {"check": x.check, "file": x.path,
                     "line": x.line, "why": x.suppressed[1]}
                    for x in suppressed],
                "transients": [
                    {"file": rel, "line": line, "why": why}
                    for rel, line, why in transients],
                "frontend": ("libclang" if LIBCLANG
                             else "builtin tokenizer"),
            }, f, indent=2)
            f.write("\n")


# --------------------------------------------------------------------
# Selftest: fixture suite under lint/.
# --------------------------------------------------------------------

FIXTURE_SNAPSHOT_CLASSES = (
    SnapshotClass("SnapBad", "lint/fixtures/snapshot_bad.hh",
                  impls=[(None, ["capture", "restore"])]),
    SnapshotClass("SnapGood", "lint/fixtures/snapshot_good.hh",
                  impls=[(None, ["capture", "restore"])]),
    SnapshotClass("SnapWholesaleBad",
                  "lint/fixtures/snapshot_wholesale.hh",
                  wholesale=True),
    SnapshotClass("NestedBad::State",
                  "lint/fixtures/snapshot_nested.hh",
                  wholesale=True),
    SnapshotClass("KeyedBad", "lint/fixtures/snapshot_key_bad.hh",
                  impls=[("lint/fixtures/snapshot_key_bad.hh",
                          ["keyOf"])],
                  loss="cells differing only in it would share one "
                  "warm image"),
    SnapshotClass("SettingsBad", "lint/fixtures/write_only_bad.hh",
                  impls=[("lint/fixtures/write_only_bad.hh",
                          ["settingsKey"])],
                  loss="cells differing only in it would share one "
                  "warm image", settings=True),
)


def selftest(root):
    fixture_dir = os.path.join(root, "lint", "fixtures")
    golden_path = os.path.join(root, "lint", "expected",
                               "findings.golden")
    if not os.path.isdir(fixture_dir):
        print(f"selftest: no fixture dir at {fixture_dir}")
        return 2
    fixtures = []
    for name in sorted(os.listdir(fixture_dir)):
        if name.endswith((".cc", ".hh")):
            fixtures.append(os.path.join("lint/fixtures", name))

    # Fixtures are linted as if they lived in a sim-affecting dir,
    # and are their own callers for the test-only check.
    global SIM_DIRS, WALLCLOCK_ALLOWED_FILES, SEED_ALLOWED_FILES
    global TEST_ONLY_HEADERS, CALLER_DIRS
    saved = (SIM_DIRS, WALLCLOCK_ALLOWED_FILES, SEED_ALLOWED_FILES,
             TEST_ONLY_HEADERS, CALLER_DIRS)
    SIM_DIRS = SIM_DIRS + ("lint/fixtures",)
    WALLCLOCK_ALLOWED_FILES = (
        "lint/fixtures/wallclock_allowed_file.cc",)
    SEED_ALLOWED_FILES = ()
    TEST_ONLY_HEADERS = ("lint/fixtures/test_only_",)
    CALLER_DIRS = ("lint/fixtures",)
    try:
        active, suppressed, _ = scan_tree(
            root, paths=fixtures,
            snapshot_classes=FIXTURE_SNAPSHOT_CLASSES)
    finally:
        (SIM_DIRS, WALLCLOCK_ALLOWED_FILES, SEED_ALLOWED_FILES,
         TEST_ONLY_HEADERS, CALLER_DIRS) = saved

    got = sorted(f"{f.check} {f.path}:{f.line}" for f in active)
    got += sorted(f"suppressed {f.check} {f.path}:{f.line}"
                  for f in suppressed)
    with open(golden_path, encoding="utf-8") as f:
        want = [ln.rstrip() for ln in f
                if ln.strip() and not ln.startswith("#")]
    if got != want:
        print("lint selftest FAILED: findings differ from golden")
        for line in sorted(set(want) - set(got)):
            print(f"  missing: {line}")
        for line in sorted(set(got) - set(want)):
            print(f"  extra:   {line}")
        return 1
    print(f"lint selftest passed: {len(want)} golden findings "
          f"reproduced over {len(fixtures)} fixtures "
          f"[{'libclang' if LIBCLANG else 'builtin tokenizer'}]")
    return 0


def main():
    global REPO_ROOT
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: the tree "
                        "containing this script)")
    parser.add_argument("paths", nargs="*",
                        help="specific files (relative to root) "
                        "instead of all of src/")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub annotation lines "
                        "(auto-on under GITHUB_ACTIONS)")
    parser.add_argument("--report", metavar="FILE",
                        help="write a JSON report")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture suite under lint/")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0
    REPO_ROOT = os.path.abspath(args.root)
    if args.selftest:
        return selftest(REPO_ROOT)

    github = args.github or os.environ.get("GITHUB_ACTIONS") == "true"
    active, suppressed, sources = scan_tree(
        REPO_ROOT, paths=args.paths or None)
    transients = count_transients(sources)
    emit(active, suppressed, transients, github, args.report)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
