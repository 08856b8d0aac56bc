#!/usr/bin/env python3
"""daosim-lint: project-specific correctness rules the compiler can't enforce.

The simulator's core claim is determinism: one seed, one virtual-time trace.
These rules ban the constructs that historically break that claim in
coroutine-heavy C++ codebases:

  spawn-temporary     Scheduler::spawn(lambda()) on an immediately-invoked
                      closure. The temporary closure dies at the end of the
                      full expression while the coroutine frame keeps pointing
                      at it (CppCoreGuidelines CP.51). Pass the callable
                      itself: spawn(lambda).
  wall-clock          std::chrono clocks, time()/gettimeofday(), rand()/
                      srand(), std::random_device, or an unseeded
                      std::mt19937 inside src/. All simulation time must be
                      virtual (sim/time.hpp) and all randomness must flow
                      through sim/random.hpp so runs replay from a seed.
  unordered-iteration Range-for over a std::unordered_map/std::unordered_set
                      whose body schedules work (spawn/schedule/resume/
                      co_await). Hash-table iteration order depends on
                      pointer values and rehash history; feeding it into the
                      event queue makes traces machine-dependent.
  ignored-result      A call to a Result<T>-returning function used as a bare
                      expression statement (or discarded via (void)). Errno
                      propagation is the recoverable-error channel; dropping
                      it silently loses failures.
  raw-rpc-call        `co_await ... call(...)` (RpcEndpoint::call) inside
                      src/client/. Client code must go through the resilient
                      wrappers (call_with_deadline / call_retry / call_target)
                      so every RPC gets a deadline, bounded retries, and the
                      eviction path; a raw call hangs forever on a dead node.
  untracked-metric    Direct construction of a telemetry metric node
                      (telemetry::Counter/Gauge/StatGauge/DurationHistogram/
                      Probe) by value, new, or make_unique outside
                      src/telemetry/. A node that does not live in a
                      telemetry::Registry has no path and never appears in a
                      dump; obtain nodes via Registry::find_or_create /
                      add_probe and hold pointers.
  unbatched-extent-rpc A for/while loop in src/client/ that both declares an
                      ObjUpdateReq/ObjFetchReq and calls Body::make in its
                      body: one RPC per extent, bypassing the vectorized
                      batcher. Build the extent vector first and let
                      ArrayObject's update_batch/fetch_batch coalesce pieces
                      per (target, replica), bounded by
                      ClientConfig::max_batch_extents.

  direct-map-query    The typed pool-service MapQuery command named in a
                      src/client/ file other than client/refresh.cpp. The
                      point query hits the pool-service leader — O(clients)
                      leader load per membership change. Clients learn map
                      versions passively from stamped replies and pull deltas
                      from engines (docs/membership.md); only the refresh
                      module's sanctioned fallback may query the leader.
  tx-unresolved       A TxHandle obtained from tx_begin() that reaches the end
                      of its scope without a co_await'ed .commit() or .abort()
                      (and without escaping via return/std::move). An
                      unresolved handle leaves prepared DTX entries on every
                      touched shard; they pin aggregation until the orphan
                      reaper times them out and aborts them seconds later.
  orphan-span         A TraceContext brace-literal with members written outside
                      src/sim/. Hand-rolled {trace, span, parent} triples mint
                      span ids outside Scheduler::alloc_span_id() and parent
                      ids nothing emitted, producing orphan spans the analyzer
                      rejects. TraceContext::root(alloc_span_id()) and
                      ctx.child(alloc_span_id()) are the only sanctioned
                      origins; `{}` (the inactive context) stays free.
  unjustified-allow   A daosim-lint or daosim-check suppression marker without
                      a trailing justification, or naming a rule that does not
                      exist. Every allow is a claim that the checker is wrong
                      here; the claim must say why, and it must point at a
                      real rule or it silences nothing.

Suppression: append  // daosim-lint: allow(<rule>): <reason>  to the offending
line, or put  // daosim-lint: allow-file(<rule>): <reason>  anywhere in the
file. The reason is mandatory (enforced by unjustified-allow).

Usage:
  daosim_lint.py --root <repo> [--quiet]      lint the tree (src/tests/bench/
                                              examples); exit 1 on violations
  daosim_lint.py --self-test                  run the seeded-violation fixtures
                                              under selftest/; exit 1 unless
                                              every EXPECT-LINT line matches
"""

import argparse
import os
import re
import sys

RULES = ("spawn-temporary", "wall-clock", "unordered-iteration", "ignored-result",
         "raw-rpc-call", "untracked-metric",
         "unbatched-extent-rpc", "direct-map-query", "tx-unresolved",
         "orphan-span", "unjustified-allow")

# Rules owned by the libclang analyzer (tools/analyze/daosim_check.py). The
# unjustified-allow rule validates daosim-check markers against this list, and
# the meta-selftest requires a seeded fixture per analyzer rule, so the plain
# ctest suite catches a rule/fixture drift even on hosts without libclang.
CHECK_RULES = ("ref-across-suspend", "ref-capture-spawn", "guard-across-suspend",
               "discarded-task", "unordered-source-of-order")

# wall-clock applies to src/ only: tests and benches may legitimately measure
# host time; the simulation itself never may.
TREE_DIRS = ("src", "tests", "bench", "examples")
WALL_CLOCK_DIRS = ("src",)
# raw-rpc-call applies to the client library only: engines, raft, and tests
# drive endpoints directly by design; client code must use the retry wrappers.
# unbatched-extent-rpc shares this scope: only the client library owns the
# extent batcher; servers and tests build per-extent requests legitimately.
RAW_RPC_DIRS = ("src/client",)
# untracked-metric applies everywhere except the telemetry library itself,
# which is the one place sanctioned to materialize nodes.
UNTRACKED_METRIC_EXCLUDE = ("src/telemetry",)

CPP_EXTS = (".hpp", ".cpp", ".h", ".cc", ".cxx")

# The marker may appear anywhere inside a comment, possibly after other text:
#   foo();  // EEXIST is fine; daosim-lint: allow(ignored-result)
ALLOW_LINE_RE = re.compile(r"daosim-lint:\s*allow\(([\w,\s-]+)\)")
ALLOW_FILE_RE = re.compile(r"daosim-lint:\s*allow-file\(([\w,\s-]+)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def blank_comments_and_strings(text):
    """Returns text with comments, string and char literals replaced by spaces
    (newlines preserved) so rule regexes never match inside them."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i > 0 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                m = re.match(r'R"([^(\s]{0,16})\(', text[i - 1:])
                if m:
                    delim = m.group(1)
                    end = text.find(f"){delim}\"", i)
                    if end < 0:
                        end = n - 1
                    for j in range(i, min(end + len(delim) + 2, n)):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end + len(delim) + 2
                    continue
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def skip_balanced(text, pos, open_ch, close_ch):
    """pos points at open_ch; returns index one past the matching close_ch."""
    depth = 0
    n = len(text)
    while pos < n:
        c = text[pos]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return pos + 1
        pos += 1
    return n


# ---------------------------------------------------------------- rules ----

SPAWN_RE = re.compile(r"\bspawn\s*\(")


def check_spawn_temporary(path, text, clean):
    """spawn( [capture](...) {...} () )  — closure invoked before spawn sees it."""
    out = []
    for m in SPAWN_RE.finditer(clean):
        open_paren = m.end() - 1
        end = skip_balanced(clean, open_paren, "(", ")")
        arg = clean[open_paren + 1 : end - 1].strip()
        if arg.startswith("[") and arg.endswith(")"):
            out.append(
                Violation(
                    path,
                    line_of(clean, m.start()),
                    "spawn-temporary",
                    "spawn() on an immediately-invoked lambda: the closure is a "
                    "temporary that dies before the coroutine runs (CP.51); pass "
                    "the callable itself, spawn(std::move(f))",
                )
            )
    return out


WALL_CLOCK_PATTERNS = (
    (re.compile(r"std\s*::\s*chrono\s*::\s*(system|steady|high_resolution)_clock"),
     "std::chrono::{}_clock reads the host clock; use virtual sim::Time"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?s?rand\s*\("),
     "rand()/srand() is global-state randomness; use sim/random.hpp (Xoshiro256)"),
    (re.compile(r"std\s*::\s*random_device"),
     "std::random_device is nondeterministic; seed a Xoshiro256 instead"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?(?:time|gettimeofday|clock_gettime)\s*\("),
     "host wall-clock call; all simulation time must be virtual"),
)
UNSEEDED_MT_RE = re.compile(r"std\s*::\s*mt19937(?:_64)?\s+\w+\s*(;|\{\s*\}|\(\s*\))")
MT_RE = re.compile(r"std\s*::\s*mt19937(?:_64)?\b")


def check_wall_clock(path, text, clean):
    out = []
    for pat, msg in WALL_CLOCK_PATTERNS:
        for m in pat.finditer(clean):
            detail = msg.format(m.group(1)) if "{}" in msg else msg
            out.append(Violation(path, line_of(clean, m.start()), "wall-clock", detail))
    for m in UNSEEDED_MT_RE.finditer(clean):
        out.append(
            Violation(
                path,
                line_of(clean, m.start()),
                "wall-clock",
                "unseeded std::mt19937 (default seed hides intent and invites "
                "random_device seeding later); use sim/random.hpp",
            )
        )
    return out


UNORDERED_DECL_RE = re.compile(r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
SCHEDULING_RE = re.compile(r"\b(?:spawn|schedule|schedule_callback|co_await)\b|\.\s*resume\s*\(")


def unordered_container_names(clean):
    """Names of variables/members declared with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(clean):
        end = skip_balanced(clean, m.end() - 1, "<", ">")
        tail = clean[end:]
        dm = re.match(r"\s*&?\s*(\w+)\s*[;={(,)]", tail)
        if dm:
            names.add(dm.group(1))
    return names


def check_unordered_iteration(path, text, clean):
    names = unordered_container_names(clean)
    if not names:
        return []
    out = []
    for m in RANGE_FOR_RE.finditer(clean):
        open_paren = m.end() - 1
        head_end = skip_balanced(clean, open_paren, "(", ")")
        head = clean[open_paren + 1 : head_end - 1]
        if ":" not in head:
            continue
        range_expr = head.split(":", 1)[1]
        used = [n for n in names if re.search(rf"\b{re.escape(n)}\b", range_expr)]
        if not used:
            continue
        # Body: balanced braces, or a single statement up to ';'.
        body_start = head_end
        while body_start < len(clean) and clean[body_start].isspace():
            body_start += 1
        if body_start < len(clean) and clean[body_start] == "{":
            body_end = skip_balanced(clean, body_start, "{", "}")
        else:
            body_end = clean.find(";", body_start) + 1
        body = clean[body_start:body_end]
        if SCHEDULING_RE.search(body):
            out.append(
                Violation(
                    path,
                    line_of(clean, m.start()),
                    "unordered-iteration",
                    f"iterating '{used[0]}' (unordered container) and scheduling "
                    "work in the loop body: hash order is address-dependent and "
                    "leaks into the event queue; iterate a sorted view instead",
                )
            )
    return out


# A function returning Result<T> directly or asynchronously (CoTask<Result<T>>).
RESULT_FN_DECL_RE = re.compile(r"\bResult\s*<[^;{}()]*>\s+(\w+)\s*\(")
# Any function-shaped declaration: return-type tokens, optional class
# qualifiers, name, open paren. Used to find names that are ALSO declared with
# a non-Result return type — such ambiguous names are dropped from the rule,
# because a by-name checker cannot tell the overloads apart at the call site.
ANY_FN_DECL_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:static\s+|virtual\s+|inline\s+|constexpr\s+|explicit\s+|friend\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;{}]*?>)?(?:\s*[*&])*)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*\("
)
DECL_KEYWORDS = {
    "return", "co_return", "co_await", "co_yield", "throw", "new", "delete",
    "else", "case", "goto", "using", "typedef", "namespace", "template",
    "public", "private", "protected", "operator", "sizeof", "alignof",
}


def scan_decls(clean, result_names, other_names):
    for m in RESULT_FN_DECL_RE.finditer(clean):
        result_names.add(m.group(1))
    for m in ANY_FN_DECL_RE.finditer(clean):
        ret, name = m.group(1), m.group(2)
        first_tok = re.match(r"[A-Za-z_][\w]*", ret)
        if first_tok and first_tok.group(0) in DECL_KEYWORDS:
            continue
        if "Result" not in ret:
            other_names.add(name)


def result_returning_functions(root):
    """Names unambiguously declared to return Result<...> (or
    CoTask<Result<...>>) across src/: names that also appear with a non-Result
    return type anywhere are excluded."""
    result_names, other_names = set(), set()
    src = os.path.join(root, "src")
    for dirpath, _dirs, files in os.walk(src):
        for f in files:
            if f.endswith(CPP_EXTS):
                try:
                    text = open(os.path.join(dirpath, f), encoding="utf-8", errors="replace").read()
                except OSError:
                    continue
                scan_decls(blank_comments_and_strings(text), result_names, other_names)
    return result_names - other_names


# '(' is deliberately absent: a *closed* paren group may be a call link in a
# receiver chain (`endpoint().unlink();`), which RECEIVER_RE judges; an
# unclosed one fails its fullmatch anyway.
STMT_PREFIX_EXCLUDE_RE = re.compile(
    r"[=,]|\breturn\b|\bco_return\b|\bco_yield\b|\bif\b|\bwhile\b|\bfor\b|\bswitch\b|\bcase\b"
)
# A pure receiver chain: `a.`, `x->y.`, `ns::obj->`, possibly templated, with
# at most one call link per segment (`endpoint().`, `mount(id)->`) whose
# arguments stay flat — nested parens or `;` mean we are not looking at a
# simple receiver anymore.
RECEIVER_RE = re.compile(
    r"(?:[A-Za-z_]\w*(?:\s*<[^<>;]*>)?(?:\s*\([^();]*\))?\s*(?:\.|->|::)\s*)+")
CONTROL_HEAD_RE = re.compile(r"(?:if|while|for|switch)\s*(?:constexpr\s*)?\(")


def close_of_paren(s, pos):
    """pos points at '('; returns the index one past its matching ')', or -1
    when the group does not close inside s."""
    depth = 0
    for i in range(pos, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def peel_control_prefix(stripped):
    """Strips complete leading control clauses — `if (...)`, `while (...)`,
    `for (...)`, `switch (...)`, `else`, `do` — so that the call in
    `if (cached) co_await flush();` is judged as the statement it is. A clause
    whose parens do NOT close inside the prefix means the call sits in the
    condition itself (its value is used); the prefix is returned unpeeled and
    the caller's exclusion test rejects it."""
    while True:
        stripped = stripped.strip()
        m = CONTROL_HEAD_RE.match(stripped)
        if m:
            end = close_of_paren(stripped, m.end() - 1)
            if end < 0:
                return stripped
            stripped = stripped[end:]
            continue
        m = re.match(r"(?:else|do)\b", stripped)
        if m:
            stripped = stripped[m.end():]
            continue
        return stripped


def check_ignored_result(path, text, clean, result_fns):
    if not result_fns:
        return []
    out = []
    fn_alt = "|".join(sorted(re.escape(f) for f in result_fns))
    call_re = re.compile(rf"\b({fn_alt})\s*\(")
    for m in call_re.finditer(clean):
        # Find the start of the enclosing statement.
        stmt_start = max(clean.rfind(";", 0, m.start()), clean.rfind("{", 0, m.start()),
                         clean.rfind("}", 0, m.start())) + 1
        stripped = peel_control_prefix(clean[stmt_start : m.start()].strip())
        void_cast = False
        vm = re.match(r"\(\s*void\s*\)", stripped)
        if vm:
            void_cast = True
            stripped = stripped[vm.end():].strip()
        am = re.match(r"co_await\b", stripped)  # discarding an awaited Result
        if am:
            stripped = stripped[am.end():].strip()
        if STMT_PREFIX_EXCLUDE_RE.search(stripped):
            continue
        # Only bare calls and receiver chains; anything else (declarations,
        # comparisons, initialisers) is not a discarded call statement.
        if stripped and not RECEIVER_RE.fullmatch(stripped):
            continue
        call_end = skip_balanced(clean, m.end() - 1, "(", ")")
        tail = clean[call_end:].lstrip()
        if not tail.startswith(";"):
            continue  # chained: .value(), .ok(), operator*, ...
        what = "explicitly (void)-discarded" if void_cast else "silently ignored"
        out.append(
            Violation(
                path,
                line_of(clean, m.start()),
                "ignored-result",
                f"Result-returning call '{m.group(1)}(...)' {what}; check .ok() "
                "or propagate the Errno (suppress only with a lint allow comment)",
            )
        )
    return out


# `co_await <anything but a statement break> call(` — matches RpcEndpoint::call
# through any receiver chain (ep.call, ep->call, endpoint().call) but not the
# sanctioned wrappers (call_retry/call_with_deadline/call_target: `call` is
# not followed by `(` there).
RAW_RPC_RE = re.compile(r"\bco_await\b[^;]*?\bcall\s*\(")


def check_raw_rpc_call(path, text, clean):
    out = []
    for m in RAW_RPC_RE.finditer(clean):
        out.append(
            Violation(
                path,
                line_of(clean, m.start()),
                "raw-rpc-call",
                "raw RpcEndpoint::call in client code: no deadline, no retry, "
                "no eviction reporting; use call_with_deadline/call_retry/"
                "call_target (DaosClient)",
            )
        )
    return out


# A per-extent RPC loop: the loop body both declares an object-I/O request
# (one extent each) and serializes it with Body::make — N extents become N
# RPCs, bypassing the client batcher. Loops that only *build* requests (and
# hand them to update_batch/fetch_batch for coalescing) don't call Body::make
# inside the loop and stay clean.
LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")
EXTENT_REQ_DECL_RE = re.compile(r"\bObj(?:Update|Fetch)Req\s+[A-Za-z_]\w*\s*[;{=]")
BODY_MAKE_RE = re.compile(r"\bBody\s*::\s*make\s*\(")


def check_unbatched_extent_rpc(path, text, clean):
    out = []
    for m in LOOP_HEAD_RE.finditer(clean):
        head_end = skip_balanced(clean, m.end() - 1, "(", ")")
        body_start = head_end
        while body_start < len(clean) and clean[body_start].isspace():
            body_start += 1
        if body_start < len(clean) and clean[body_start] == "{":
            body_end = skip_balanced(clean, body_start, "{", "}")
        else:
            body_end = clean.find(";", body_start) + 1
        body = clean[body_start:body_end]
        dm = EXTENT_REQ_DECL_RE.search(body)
        if dm and BODY_MAKE_RE.search(body):
            out.append(
                Violation(
                    path,
                    line_of(clean, m.start()),
                    "unbatched-extent-rpc",
                    "loop declares an ObjUpdateReq/ObjFetchReq and serializes it "
                    "with Body::make per iteration: one RPC per extent bypasses "
                    "the batcher; collect extents and go through ArrayObject's "
                    "update_batch/fetch_batch (ClientConfig::max_batch_extents)",
                )
            )
    return out


METRIC_TYPES = "Counter|Gauge|StatGauge|DurationHistogram|Probe"
# Value declaration (`telemetry::Counter x`), heap construction (`new
# telemetry::Counter`), or make_unique — each bypasses the registry. Pointer
# and reference declarations (`telemetry::Counter*`/`&`) and nested names
# (`telemetry::DurationHistogram::State`) don't match: the identifier must
# follow the type name directly.
UNTRACKED_METRIC_RE = re.compile(
    rf"\bnew\s+(?:daosim\s*::\s*)?telemetry\s*::\s*(?:{METRIC_TYPES})\b"
    rf"|make_unique\s*<\s*(?:daosim\s*::\s*)?telemetry\s*::\s*(?:{METRIC_TYPES})\s*>"
    rf"|\btelemetry\s*::\s*(?:{METRIC_TYPES})\s+[A-Za-z_]"
)


def check_untracked_metric(path, text, clean):
    out = []
    for m in UNTRACKED_METRIC_RE.finditer(clean):
        out.append(
            Violation(
                path,
                line_of(clean, m.start()),
                "untracked-metric",
                "telemetry node constructed outside a Registry: it has no path "
                "and never appears in a metrics dump; use "
                "Registry::find_or_create<T>(path) / add_probe and hold a pointer",
            )
        )
    return out


# The typed MapQuery command, matched in `clean` (comments and strings
# blanked): the command only exists to be sent to the pool service, so naming
# it in client code IS issuing the point query. Mentions in comments stay
# free. Shares the raw-rpc-call scope (src/client/); the refresh module owns
# the sanctioned fallback.
MAP_QUERY_RE = re.compile(r"\bMapQuery\b")
MAP_QUERY_EXEMPT_SUFFIX = "client/refresh.cpp"


def check_direct_map_query(path, text, clean):
    if path.replace(os.sep, "/").endswith(MAP_QUERY_EXEMPT_SUFFIX):
        return []
    out = []
    for m in MAP_QUERY_RE.finditer(clean):
        out.append(
            Violation(
                path,
                line_of(clean, m.start()),
                "direct-map-query",
                "pool-map point query outside client/refresh.cpp: MapQuery "
                "hits the pool-service leader (O(clients) load per membership "
                "change); rely on the IV piggyback + delta fetch, or call "
                "refresh_pool_map() if the authoritative fallback is required",
            )
        )
    return out


# A handle bound from tx_begin(): `auto tx = cl.tx_begin(...)` or
# `TxHandle tx = tx_begin(...)`. The receiver chain mirrors RECEIVER_RE so
# `tb.client(0).tx_begin(...)` matches too. The *definition* of tx_begin
# (`TxHandle DaosClient::tx_begin(vos::Uuid cont)`) has no `=` before the name
# and never matches.
TX_BEGIN_ASSIGN_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*"
    r"(?:[A-Za-z_][\w:]*(?:\s*\([^();]*\))?\s*(?:\.|->|::)\s*)*"
    r"tx_begin\s*\(")


def enclosing_scope_end(clean, pos):
    """Index of the '}' closing the scope that contains pos (file end if the
    declaration sits at namespace level)."""
    depth = 0
    n = len(clean)
    while pos < n:
        c = clean[pos]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return pos
        pos += 1
    return n


def check_tx_unresolved(path, text, clean):
    """Every tx_begin() handle must reach a co_await'ed commit()/abort() (or
    escape the scope via return/std::move) before its scope closes. A handle
    that silently dies leaves prepared-but-undecided DTX entries on every
    participating shard: readers conflict against them and aggregation stalls
    until the server-side orphan reaper ages them out."""
    out = []
    for m in TX_BEGIN_ASSIGN_RE.finditer(clean):
        name = m.group(1)
        scope = clean[m.end():enclosing_scope_end(clean, m.end())]
        # Resolution: the handle's commit/abort awaited somewhere in the rest
        # of the scope. A bare `tx.commit();` without co_await does NOT count:
        # it discards the CoTask and the RPCs never run.
        resolved = re.search(
            rf"\bco_await\b[^;]*\b{re.escape(name)}\s*\.\s*(?:commit|abort)\s*\(",
            scope)
        # Escape: ownership moves out of this scope; resolution is the
        # recipient's job.
        escaped = re.search(
            rf"\b(?:co_)?return\s+(?:std\s*::\s*move\s*\(\s*)?{re.escape(name)}\b"
            rf"|std\s*::\s*move\s*\(\s*{re.escape(name)}\s*\)",
            scope)
        if not resolved and not escaped:
            out.append(
                Violation(
                    path,
                    line_of(clean, m.start()),
                    "tx-unresolved",
                    f"TxHandle '{name}' from tx_begin() is never resolved: no "
                    "co_await'ed .commit()/.abort() before end of scope; the "
                    "prepared entries block conflicting writers and pin "
                    "aggregation until the orphan reaper aborts them",
                )
            )
    return out


# A TraceContext brace-literal with members: `TraceContext{a, b, c}` or a
# declaration `TraceContext ctx{a, ...}`. Only sim/scheduler.hpp (where
# root()/child() live) may spell the triple out; everyone else either forwards
# a context they were handed, derives one with ctx.child(alloc_span_id()), or
# starts a protocol trace with TraceContext::root(alloc_span_id()). The empty
# `TraceContext{}` is the inactive context and stays free.
ORPHAN_SPAN_RE = re.compile(
    r"(?<!struct )(?<!class )\bTraceContext\s*(?:[A-Za-z_]\w*\s*)?\{\s*[^}\s]")
ORPHAN_SPAN_EXEMPT_PREFIX = "src/sim/"


def check_orphan_span(path, text, clean):
    if path.replace(os.sep, "/").startswith(ORPHAN_SPAN_EXEMPT_PREFIX):
        return []
    out = []
    for m in ORPHAN_SPAN_RE.finditer(clean):
        out.append(
            Violation(
                path,
                line_of(clean, m.start()),
                "orphan-span",
                "hand-rolled TraceContext literal: span ids minted outside "
                "Scheduler::alloc_span_id() collide or parent nothing, and the "
                "trace analyzer rejects the orphan; use "
                "TraceContext::root(alloc_span_id()) or ctx.child(alloc_span_id())",
            )
        )
    return out


# Any suppression marker, from either tool, line- or file-scoped. Group 1 is
# the tool, group 2 the optional "-file", group 3 the rule list, and the
# justification (": <reason>") is judged from the text that follows.
ALLOW_MARKER_RE = re.compile(r"daosim-(lint|check):\s*allow(-file)?\(([^)\n]*)\)")


def check_unjustified_allow(path, text, clean):
    """Every allow marker asserts the checker is wrong on that line; the
    assertion must carry a reason and name a rule that exists. Scans the raw
    text: markers live in comments, which `clean` blanks out."""
    out = []
    for m in ALLOW_MARKER_RE.finditer(text):
        tool = m.group(1)
        marker = f"daosim-{tool}: allow{m.group(2) or ''}(...)"
        known = RULES if tool == "lint" else CHECK_RULES
        names = [r.strip() for r in m.group(3).split(",")]
        line = line_of(text, m.start())
        for name in names:
            if name and name not in known:
                out.append(
                    Violation(
                        path, line, "unjustified-allow",
                        f"{marker} names unknown rule '{name}': it suppresses "
                        "nothing (known: " + ", ".join(known) + ")",
                    )
                )
        if not any(names):
            out.append(
                Violation(
                    path, line, "unjustified-allow",
                    f"{marker} lists no rule: it suppresses nothing",
                )
            )
        rest_of_line = text[m.end():].split("\n", 1)[0]
        if not re.match(r"\s*:\s*\S", rest_of_line):
            out.append(
                Violation(
                    path, line, "unjustified-allow",
                    f"{marker} has no justification: write "
                    f"allow(<rule>): <why this specific line is safe>",
                )
            )
    return out


# ----------------------------------------------------------- driver ----


def lint_file(path, rel, result_fns, wall_clock_scope, raw_rpc_scope=False,
              untracked_metric_scope=True):
    try:
        text = open(path, encoding="utf-8", errors="replace").read()
    except OSError as e:
        return [Violation(rel, 1, "io", str(e))]
    clean = blank_comments_and_strings(text)
    violations = []
    violations += check_spawn_temporary(rel, text, clean)
    if wall_clock_scope:
        violations += check_wall_clock(rel, text, clean)
    violations += check_unordered_iteration(rel, text, clean)
    violations += check_ignored_result(rel, text, clean, result_fns)
    if raw_rpc_scope:
        violations += check_raw_rpc_call(rel, text, clean)
        violations += check_unbatched_extent_rpc(rel, text, clean)
        violations += check_direct_map_query(rel, text, clean)
    violations += check_tx_unresolved(rel, text, clean)
    violations += check_orphan_span(rel, text, clean)
    if untracked_metric_scope:
        violations += check_untracked_metric(rel, text, clean)
    violations += check_unjustified_allow(rel, text, clean)

    # Apply suppressions from the original text (comments live there).
    file_allows = set()
    for m in ALLOW_FILE_RE.finditer(text):
        file_allows.update(r.strip() for r in m.group(1).split(","))
    lines = text.split("\n")
    kept = []
    for v in violations:
        if v.rule in file_allows:
            continue
        line_txt = lines[v.line - 1] if v.line - 1 < len(lines) else ""
        am = ALLOW_LINE_RE.search(line_txt)
        if am and v.rule in {r.strip() for r in am.group(1).split(",")}:
            continue
        kept.append(v)
    return kept


def iter_tree_files(root):
    for top in TREE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirs, files in os.walk(base):
            dirs[:] = [d for d in dirs if not d.startswith(("build", "."))]
            for f in sorted(files):
                if f.endswith(CPP_EXTS):
                    full = os.path.join(dirpath, f)
                    rel = os.path.relpath(full, root)
                    posix_rel = rel.replace(os.sep, "/")
                    rpc = posix_rel.startswith(tuple(d + "/" for d in RAW_RPC_DIRS))
                    untracked = not posix_rel.startswith(
                        tuple(d + "/" for d in UNTRACKED_METRIC_EXCLUDE))
                    yield full, rel, top in WALL_CLOCK_DIRS, rpc, untracked


def run_tree(root, quiet):
    result_fns = result_returning_functions(root)
    violations = []
    nfiles = 0
    for full, rel, wall, rpc, untracked in iter_tree_files(root):
        nfiles += 1
        violations.extend(lint_file(full, rel, result_fns, wall, rpc, untracked))
    for v in violations:
        print(v)
    if nfiles == 0:
        # A typo'd --root must not read as a clean scan.
        print(f"daosim-lint: error: no C++ files found under {root!r} "
              f"(expected subdirectories: {', '.join(TREE_DIRS)})", file=sys.stderr)
        return 2
    if not quiet:
        print(f"daosim-lint: {nfiles} files, {len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*([\w-]+)")


def run_self_test(root):
    """Each selftest fixture seeds violations and annotates the offending lines
    with  // EXPECT-LINT: <rule>.  The fixture set must produce exactly the
    annotated findings — nothing more, nothing less — proving every rule both
    fires and stays quiet."""
    fixture_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "selftest")
    # Fixtures play the role of src/ files: wall-clock in scope. Result-returning
    # names come from the fixtures themselves (same ambiguity subtraction as the
    # real tree scan).
    result_names, other_names = set(), set()
    for dirpath, _dirs, files in os.walk(fixture_dir):
        for f in files:
            if f.endswith(CPP_EXTS):
                text = open(os.path.join(dirpath, f), encoding="utf-8", errors="replace").read()
                scan_decls(blank_comments_and_strings(text), result_names, other_names)
    result_fns = result_names - other_names

    failures = []
    total_expected = 0
    covered = set()  # lint rules with at least one seeded fixture
    for dirpath, _dirs, files in os.walk(fixture_dir):
        for f in sorted(files):
            if not f.endswith(CPP_EXTS):
                continue
            full = os.path.join(dirpath, f)
            rel = os.path.relpath(full, fixture_dir)
            text = open(full, encoding="utf-8", errors="replace").read()
            expected = {}  # (line, rule) -> count
            for i, line in enumerate(text.split("\n"), start=1):
                for em in EXPECT_RE.finditer(line):
                    expected[(i, em.group(1))] = expected.get((i, em.group(1)), 0) + 1
                    total_expected += 1
                    covered.add(em.group(1))
            got = {}
            for v in lint_file(full, rel, result_fns, wall_clock_scope=True,
                               raw_rpc_scope=True):
                got[(v.line, v.rule)] = got.get((v.line, v.rule), 0) + 1
            for key, cnt in expected.items():
                if got.get(key, 0) < cnt:
                    failures.append(f"{rel}:{key[0]}: expected [{key[1]}] but the rule did not fire")
            for key, cnt in got.items():
                if expected.get(key, 0) < cnt:
                    failures.append(f"{rel}:{key[0]}: unexpected [{key[1]}] finding")

    # Meta-check: a rule without a seeded fixture is a rule nobody has proven
    # fires. Covers this linter's RULES (via EXPECT-LINT above) and the
    # analyzer's CHECK_RULES (via EXPECT-CHECK markers in its fixtures, read
    # textually so the check runs even on hosts without libclang).
    for rule in RULES:
        if rule not in covered:
            failures.append(
                f"selftest/: lint rule [{rule}] has no seeded fixture; add one "
                "with an EXPECT-LINT line")
    analyze_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, "analyze", "selftest")
    check_covered = set()
    check_expect_re = re.compile(r"//\s*EXPECT-CHECK:\s*([\w-]+)")
    if os.path.isdir(analyze_dir):
        for f in sorted(os.listdir(analyze_dir)):
            if f.endswith(CPP_EXTS):
                text = open(os.path.join(analyze_dir, f), encoding="utf-8",
                            errors="replace").read()
                check_covered.update(m.group(1) for m in check_expect_re.finditer(text))
    for rule in CHECK_RULES:
        if rule not in check_covered:
            failures.append(
                f"../analyze/selftest/: analyzer rule [{rule}] has no seeded "
                "fixture; add one with an EXPECT-CHECK line")
    for rule in sorted(check_covered - set(CHECK_RULES)):
        failures.append(
            f"../analyze/selftest/: EXPECT-CHECK names [{rule}], which is not "
            "in CHECK_RULES; update the lists together")

    for msg in failures:
        print(msg)
    print(
        f"daosim-lint self-test: {total_expected} seeded violations, "
        f"{len(failures)} mismatch(es)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    ap.add_argument("--self-test", action="store_true", help="run the seeded-violation fixtures")
    ap.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = ap.parse_args()
    if args.self_test:
        return run_self_test(os.path.abspath(args.root))
    return run_tree(os.path.abspath(args.root), args.quiet)


if __name__ == "__main__":
    sys.exit(main())
