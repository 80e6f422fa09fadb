#!/usr/bin/env python3
"""ron_lint: house invariants no generic linter can check.

Seven rules, each load-bearing for this repo specifically:

  raw-bytes      Code that encodes wire bytes must not hand-roll byte
                 access: no memcpy/memmove/reinterpret_cast in src/oracle/,
                 src/served/, src/churn/, src/scenario/ or src/sim/ outside
                 src/oracle/wire.{h,cpp}. Every snapshot and frame byte
                 crosses the one bounds-checked WireReader/WireWriter codec
                 (a file only changes where the bytes come from or go to),
                 so a corrupt length can never become UB. The socket
                 address casts and the sim's name hash carry per-line
                 waivers.

  determinism    No wall-clock or ambient randomness in src/: rand()/srand(),
                 std::random_device, system_clock, time()/clock()/localtime/
                 gmtime are all banned. Determinism is a load-bearing
                 contract — churn replay, golden fixtures and the
                 "save -> load -> serve bit-identical" invariant all assume
                 outputs are a pure function of (spec, seed). Timing goes
                 through telemetry/clock.h (see the clock rule), which only
                 annotates results, never shapes them. src/sim/ additionally
                 bans unordered containers and std::hash: the simulator's
                 event log and metrics envelope are byte-compared across
                 equal-seed runs, and hash-table iteration order is not part
                 of that contract.

  clock          One sanctioned timing source: no <chrono>, std::chrono,
                 steady_clock or high_resolution_clock anywhere in src/,
                 tools/ or bench/ outside telemetry/clock.{h,cpp}. Every
                 timing site goes through ron::Clock / Stopwatch so tests
                 can inject a FakeClock and telemetry stays deterministic
                 under test — a raw steady_clock call is untestable and
                 invisible to that seam. src/sim/ is held to a stricter
                 bar: the simulator runs on VIRTUAL time (sim::SimClock),
                 so even the sanctioned wall-clock seam (ron::Clock,
                 Stopwatch, real_now_ns) is banned there — a wall-time
                 read inside the event loop would leak host timing into
                 the byte-reproducible event stream.

  check-message  Every RON_CHECK carries a message. A bare condition throws
                 "RON_CHECK failed: (x < n_)" with no operand values; the
                 repro then starts with adding the message this rule asks
                 for up front.

  sockets        Raw socket/errno syscalls (socket/bind/connect/recv/send/
                 poll/...) live only in src/served/. Everything else talks
                 to Server/Client, which own the EINTR/partial-I/O/SIGPIPE
                 handling — a stray recv() elsewhere would re-open exactly
                 the robustness holes src/served/ exists to close.

  dense          O(n^2) structures live only in src/metric/: constructing
                 DenseMetric / DenseProximityIndex, or resizing a container
                 to n*n, anywhere else in src/, tools/ or bench/ is a
                 finding. Everything outside src/metric/ reaches proximity
                 data through make_proximity_index() and the backend-
                 portable ProximityIndex surface (ball_ids/row_prefix/
                 kth_radius/...), which is what lets a sparse backend serve
                 10^6 nodes. Small-n benches and the guardrailed APSP
                 matrices carry per-line waivers.

  test-timeout   Every registered test carries a TIMEOUT property (both
                 gtest_discover_tests and raw add_test registrations). A
                 hung interleaving in the tsan shard — or a degenerate
                 overlay walk — must fail fast, not eat the ctest budget.

A finding can be waived per line with a trailing comment naming the rule:
    foo();  // ron-lint: allow(determinism) — <why>
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CXX_EXTENSIONS = (".h", ".cpp")
SKIP_DIRS = {".git", ".github"}

ALLOW_RE = re.compile(r"ron-lint:\s*allow\(([a-z-]+)\)")

RAW_BYTES_RE = re.compile(
    r"\bmemcpy\s*\(|\bmemmove\s*\(|\breinterpret_cast\b")
RAW_BYTES_DIRS = ("src/oracle", "src/served", "src/churn", "src/scenario",
                  "src/sim")
RAW_BYTES_EXEMPT = {os.path.join("src", "oracle", "wire.h"),
                    os.path.join("src", "oracle", "wire.cpp")}

DETERMINISM_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\btime\s*\("), "time()"),
    (re.compile(r"\bclock\s*\("), "clock()"),
    (re.compile(r"\blocaltime\b"), "localtime"),
    (re.compile(r"\bgmtime\b"), "gmtime"),
]
# Extra determinism bans inside src/sim/ (see the docstring): equal-seed
# runs byte-compare their event logs, so iteration order must be defined.
SIM_DETERMINISM_PATTERNS = [
    (re.compile(r"\bunordered_map\b"), "std::unordered_map"),
    (re.compile(r"\bunordered_set\b"), "std::unordered_set"),
    (re.compile(r"\bstd\s*::\s*hash\b"), "std::hash"),
]

CLOCK_PATTERNS = [
    (re.compile(r"^\s*#\s*include\s*<chrono>"), "#include <chrono>"),
    (re.compile(r"\bstd\s*::\s*chrono\b"), "std::chrono"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "high_resolution_clock"),
]
# src/sim/ runs on virtual time only (sim::SimClock): even the sanctioned
# wall-clock seam is off-limits inside the simulator, because a real-time
# read in the event loop would make equal-seed runs diverge byte-for-byte.
SIM_CLOCK_PATTERNS = [
    (re.compile(r"\bClock\s*::\s*real\b"), "Clock::real()"),
    (re.compile(r"\bStopwatch\b"), "Stopwatch"),
    (re.compile(r"\breal_now_ns\b"), "real_now_ns()"),
]
# Matched against the RAW line (the include path is a string literal, which
# strip_noncode blanks out of `code`).
SIM_CLOCK_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*"telemetry/clock\.h"')
SIM_DIR = os.path.join("src", "sim") + os.sep
# The one place allowed to touch <chrono>: the Clock::real() implementation
# (and its header, so doc-adjacent code stays free to evolve).
CLOCK_EXEMPT = {
    os.path.join("src", "telemetry", "clock.cpp"),
    os.path.join("src", "telemetry", "clock.h"),
}


# Bare or ::-qualified calls only: `cli.connect(...)` (a member) stays
# legal everywhere, `::connect(...)` / `connect(...)` (the syscall) does
# not. Names like send_frame fail the `\s*\(` tail and never match.
SOCKETS_RE = re.compile(
    r"(?<![\w.>])(?:::\s*)?"
    r"(?:socket|bind|listen|accept4?|connect|recvfrom|recv|sendto|send|"
    r"setsockopt|getsockname|getpeername|inet_pton|inet_ntop|htons|ntohs|"
    r"poll|epoll_\w+|pipe2?)\s*\(")
SOCKETS_EXEMPT_DIR = os.path.join("src", "served") + os.sep

# Construction of a dense type (declaration, make_unique<...>, temporary).
# `(?!\s*::)` keeps scope access legal everywhere: error messages that print
# DenseProximityIndex::kMaxDenseNodes are guidance, not a dense matrix.
DENSE_TYPE_RE = re.compile(r"\bDense(?:ProximityIndex|Metric)\b(?!\s*::)")
# A container sized to n*n is a dense matrix whatever its element type.
DENSE_ALLOC_RE = re.compile(
    r"\b(?:resize|reserve|assign)\s*\(\s*(?:n|n_|num_nodes_?)\s*\*\s*"
    r"(?:n|n_|num_nodes_?)\b"
    r"|\bvector\s*<[^<>]*>\s*\(\s*(?:n|n_|num_nodes_?)\s*\*\s*"
    r"(?:n|n_|num_nodes_?)\b")
DENSE_EXEMPT_DIR = os.path.join("src", "metric") + os.sep


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_noncode(line: str) -> str:
    """Removes string/char literals and // comments so banned tokens inside
    them (docs, messages) don't trip the source-token rules. Block comments
    are handled by the caller, which tracks /* ... */ state across lines."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in ('"', "'"):
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(" ")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_code_lines(path: str):
    """Yields (lineno, code, raw) with literals/comments blanked in `code`."""
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    in_block = False
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield lineno, "", raw
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        code = strip_noncode(line)
        while True:
            start = code.find("/*")
            if start < 0:
                break
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block = True
                break
            code = code[:start] + " " * (end + 2 - start) + code[end + 2:]
        yield lineno, code, raw


def allowed(raw: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw)
    return bool(m) and m.group(1) == rule


def cxx_files(*roots: str):
    for root in roots:
        base = os.path.join(REPO_ROOT, root)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def check_raw_bytes(findings: list):
    for path in cxx_files(*RAW_BYTES_DIRS):
        if os.path.relpath(path, REPO_ROOT) in RAW_BYTES_EXEMPT:
            continue
        for lineno, code, raw in iter_code_lines(path):
            m = RAW_BYTES_RE.search(code)
            if m and not allowed(raw, "raw-bytes"):
                findings.append(Finding(
                    path, lineno, "raw-bytes",
                    f"'{m.group(0).strip()}' in wire-encoding code — route "
                    "bytes through wire.h's bounds-checked WireReader/"
                    "WireWriter"))


def check_determinism(findings: list):
    for path in cxx_files("src"):
        in_sim = os.path.relpath(path, REPO_ROOT).startswith(SIM_DIR)
        for lineno, code, raw in iter_code_lines(path):
            for pattern, label in DETERMINISM_PATTERNS:
                if pattern.search(code) and not allowed(raw, "determinism"):
                    findings.append(Finding(
                        path, lineno, "determinism",
                        f"{label} in src/ — outputs must be a pure function "
                        "of (spec, seed); draw randomness from ron::Rng and "
                        "time batches via telemetry/clock.h"))
            if not in_sim:
                continue
            for pattern, label in SIM_DETERMINISM_PATTERNS:
                if pattern.search(code) and not allowed(raw, "determinism"):
                    findings.append(Finding(
                        path, lineno, "determinism",
                        f"{label} in src/sim/ — equal-seed runs byte-compare "
                        "their event logs, so every container the simulator "
                        "iterates must have a defined order (use sorted "
                        "vectors or std::map)"))


def check_clock(findings: list):
    for path in cxx_files("src", "tools", "bench"):
        rel = os.path.relpath(path, REPO_ROOT)
        if rel in CLOCK_EXEMPT:
            continue
        in_sim = rel.startswith(SIM_DIR)
        for lineno, code, raw in iter_code_lines(path):
            for pattern, label in CLOCK_PATTERNS:
                if pattern.search(code) and not allowed(raw, "clock"):
                    findings.append(Finding(
                        path, lineno, "clock",
                        f"{label} outside telemetry/clock.h — time through "
                        "ron::Clock/Stopwatch so a FakeClock can be "
                        "injected under test"))
            if not in_sim:
                continue
            sim_hits = [label for pattern, label in SIM_CLOCK_PATTERNS
                        if pattern.search(code)]
            if SIM_CLOCK_INCLUDE_RE.search(raw):
                sim_hits.append('#include "telemetry/clock.h"')
            for label in sim_hits:
                if allowed(raw, "clock"):
                    continue
                findings.append(Finding(
                    path, lineno, "clock",
                    f"{label} in src/sim/ — the simulator runs on "
                    "virtual time only (sim::SimClock); a wall-clock "
                    "read would leak host timing into the "
                    "byte-reproducible event stream"))


def check_sockets(findings: list):
    for path in cxx_files("src", "tools", "bench"):
        if os.path.relpath(path, REPO_ROOT).startswith(SOCKETS_EXEMPT_DIR):
            continue
        for lineno, code, raw in iter_code_lines(path):
            m = SOCKETS_RE.search(code)
            if m and not allowed(raw, "sockets"):
                findings.append(Finding(
                    path, lineno, "sockets",
                    f"'{m.group(0).strip()}' outside src/served/ — raw "
                    "socket I/O goes through Server/Client, which own the "
                    "EINTR/partial-I/O/SIGPIPE handling"))


def split_check_args(text: str, start: int):
    """Given text and the index just past 'RON_CHECK(', returns
    (top_level_comma_count, end_index) or None if the call never closes
    (macro spans something we can't see — treated as a parse error)."""
    depth = 1
    commas = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c in ('"', "'"):
            quote = c
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == quote:
                    break
                i += 1
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return commas, i
        elif c == "," and depth == 1:
            commas += 1
        i += 1
    return None


def check_dense(findings: list):
    for path in cxx_files("src", "tools", "bench"):
        if os.path.relpath(path, REPO_ROOT).startswith(DENSE_EXEMPT_DIR):
            continue
        for lineno, code, raw in iter_code_lines(path):
            m = DENSE_TYPE_RE.search(code)
            if m and not allowed(raw, "dense"):
                findings.append(Finding(
                    path, lineno, "dense",
                    f"'{m.group(0)}' constructed outside src/metric/ — go "
                    "through make_proximity_index() and the backend-portable "
                    "ProximityIndex surface so the code path also works at "
                    "sparse scale"))
            m = DENSE_ALLOC_RE.search(code)
            if m and not allowed(raw, "dense"):
                findings.append(Finding(
                    path, lineno, "dense",
                    f"'{m.group(0).strip()}' allocates an n*n matrix outside "
                    "src/metric/ — dense-quadratic storage is confined there "
                    "(or waive with a justified guardrail)"))


def check_messages(findings: list):
    call_re = re.compile(r"\bRON_CHECK\s*\(")
    for path in cxx_files("src", "tools", "bench"):
        if os.path.basename(path) == "check.h":
            continue  # the macro definition itself
        lines = list(iter_code_lines(path))
        # Join the comment-stripped code so multi-line calls parse; remember
        # where each line starts to map offsets back to line numbers.
        offsets = []
        pos = 0
        joined_parts = []
        for lineno, code, raw in lines:
            offsets.append((pos, lineno, raw))
            joined_parts.append(code)
            pos += len(code) + 1
        joined = "\n".join(joined_parts)

        def line_of(offset: int):
            best = offsets[0]
            for entry in offsets:
                if entry[0] <= offset:
                    best = entry
                else:
                    break
            return best[1], best[2]

        for m in call_re.finditer(joined):
            parsed = split_check_args(joined, m.end())
            lineno, raw = line_of(m.start())
            if parsed is None:
                findings.append(Finding(
                    path, lineno, "check-message",
                    "unterminated RON_CHECK( call (parse error)"))
                continue
            commas, _ = parsed
            if commas == 0 and not allowed(raw, "check-message"):
                findings.append(Finding(
                    path, lineno, "check-message",
                    "RON_CHECK without a message — say which invariant "
                    "broke and include the operand values"))


def check_test_timeouts(findings: list):
    cmake_files = []
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS and not d.startswith("build")]
        for name in filenames:
            if name == "CMakeLists.txt":
                cmake_files.append(os.path.join(dirpath, name))
    discover_re = re.compile(r"gtest_discover_tests\s*\(", re.MULTILINE)
    add_test_re = re.compile(r"add_test\s*\(\s*NAME\s+([A-Za-z0-9_.${}]+)")
    for path in sorted(cmake_files):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in discover_re.finditer(text):
            parsed = split_check_args(text, m.end())
            lineno = text.count("\n", 0, m.start()) + 1
            if parsed is None:
                findings.append(Finding(path, lineno, "test-timeout",
                                        "unterminated gtest_discover_tests("))
                continue
            _, end = parsed
            body = text[m.end():end]
            # DISCOVERY_TIMEOUT is a different knob — require the property.
            if not re.search(r"(?<![A-Z_])TIMEOUT\b", body):
                findings.append(Finding(
                    path, lineno, "test-timeout",
                    "gtest_discover_tests without PROPERTIES TIMEOUT — a "
                    "hung test must fail fast, not eat the ctest budget"))
        for m in add_test_re.finditer(text):
            name = m.group(1)
            lineno = text.count("\n", 0, m.start()) + 1
            props_re = re.compile(
                r"set_tests_properties\s*\(\s*" + re.escape(name)
                + r"[^)]*(?<![A-Z_])TIMEOUT\b")
            if not props_re.search(text):
                findings.append(Finding(
                    path, lineno, "test-timeout",
                    f"add_test({name}) has no set_tests_properties(... "
                    "TIMEOUT ...) in this file"))


RULES = {
    "raw-bytes": check_raw_bytes,
    "determinism": check_determinism,
    "clock": check_clock,
    "check-message": check_messages,
    "dense": check_dense,
    "sockets": check_sockets,
    "test-timeout": check_test_timeouts,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable; default: all)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)
    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0
    findings: list = []
    for name in (args.rule or sorted(RULES)):
        RULES[name](findings)
    findings.sort(key=lambda f: (f.path, f.line))
    for finding in findings:
        print(finding)
    if findings:
        print(f"ron_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ron_lint: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
