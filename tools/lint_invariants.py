#!/usr/bin/env python3
"""Repo-invariant linter: machine-checks the concurrency and portability
rules that code review used to carry by hand. Runs as a CTest (see
CMakeLists.txt) and in CI's default build job; exit status 1 on any
violation, with file:line diagnostics.

Rules (over src/ unless stated otherwise):

  atomic-order    every std::atomic operation (load/store/RMW and
                  atomic_flag test_and_set/clear) must name an explicit
                  std::memory_order AND carry a justifying comment on the
                  same line or within the 5 lines above it. Implicit
                  seq_cst is almost always either an unintended cost or an
                  unexamined protocol; the comment records which ordering
                  argument was actually made. Operators on an atomic
                  are implicit seq_cst operations too: in a .cc file,
                  `=`, compound assignment, `++` and `--` on a name
                  declared std::atomic<...> in that file or in its header
                  are flagged — spell them .store() / .fetch_add() with
                  an order. Headers are not scanned for operators: a
                  header may declare an atomic and a plain struct with
                  the same field names (alloc/allocator.h does).
  no-assert       no assert() in src/ — it vanishes under NDEBUG, so the
                  invariant silently stops being checked in release
                  builds. Use APU_CHECK (always on) or return a Status.
                  static_assert is fine (compile-time, never stripped).
  no-march-native anywhere in the repo (sources, CMake, scripts):
                  -march=native makes builds non-reproducible across
                  machines and silently embeds AVX-512 on some CI hosts.
                  ISA dispatch is runtime (util/cpu_features) by design.
  avx2-target     _mm256_* intrinsics may appear only inside functions
                  marked __attribute__((target("avx2"))) (or files listed
                  in AVX2_FILE_ALLOWLIST that gate at file level). The
                  library builds without -mavx2 globally; an unmarked
                  intrinsic is an illegal-instruction crash on SSE-only
                  hosts waiting to happen.
  stepdef-outside-lowering
                  join::StepDef may be constructed (declared as a local /
                  member, or brace-initialized) only inside the lowering
                  layers: src/join, src/coproc and src/plan. Step series
                  are the pipeline runner's IR — an operator elsewhere in
                  src/ hand-rolling StepDefs bypasses plan validation,
                  calibration and the per-step reporting contract. Other
                  code receives series via the engine Steps()/ChainSteps()
                  factories and runs them through coproc.
  kernel-no-alloc MorselKernel bodies (`.run = [...]` lambdas in step
                  definitions) must not allocate: no new/malloc/
                  make_unique/make_shared and no growing container calls
                  (push_back/emplace_back/resize/reserve). Kernels run on
                  every morsel of every span; allocation there is both a
                  scalability bug (heap lock under the morsel loop) and a
                  modelling bug (unpriced work). Writers go through
                  pre-sized buffers and the alloc/ subsystem instead.
  kernel-no-schema-branch
                  MorselKernel bodies must not branch on the key schema at
                  runtime: no `if`/`switch` whose condition names KeySchema
                  / key_schema / kU32 / kU64 / kComposite / kDictString /
                  KeyIsWide. Schema dispatch happens once, at StepDef
                  construction scope (templated kernel bodies, one
                  instantiation per schema); a per-item schema branch
                  re-introduces exactly the mispredicted inner-loop
                  dispatch the typed-key refactor removed. Compile-time
                  `if constexpr` (e.g. on a kWide template parameter) is
                  allowed — it leaves no branch in the instantiation.

  no-stat-rmw     real kernels do not pay for simulator bookkeeping: no
                  atomic read-modify-write that is a statistics counter or
                  tally inside a MorselKernel body (`.run = [...]`) or
                  inside the per-element functions kernels call
                  (PER_ELEMENT_FUNCS: Allocate, the result writer's Emit
                  and Claim, FindOrAdd, InsertRid). Such an RMW puts a
                  shared cache line on every element of a real run, for a
                  number only the simulator reads. An RMW counts as a
                  statistic when its justifying comment (same line or the
                  lookback window above) calls it a statistic or tally,
                  when another atomic operation on the same object in the
                  file or its header is justified that way, or when its
                  result only chooses which statistics RMW runs. Tally in
                  locals and flush once per morsel, or derive the count
                  where the simulator reads it. STAT_RMW_ALLOWLIST names
                  each exception (file, function, member) with its reason;
                  an entry that matches nothing is itself an error.

The linter is line-oriented and deliberately heuristic — it joins
continuation lines to find the argument list of a call that spills over,
and brace-matches lambda/function bodies — but it does not parse C++.
Keep the rules honest: if a rule misfires, fix the pattern here rather
than sprinkling suppressions in the code.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

CXX_EXTS = (".cc", ".h", ".cpp", ".hpp")

# Atomic member operations that take a memory_order argument. `.clear(` is
# included only when the call names a memory_order (vector::clear shares
# the spelling); an atomic_flag.clear() without an order therefore shows up
# through the companion test_and_set hit on the same flag in practice.
ATOMIC_OPS = (
    r"\.load\s*\(",
    r"\.store\s*\(",
    r"\.exchange\s*\(",
    r"\.fetch_add\s*\(",
    r"\.fetch_sub\s*\(",
    r"\.fetch_and\s*\(",
    r"\.fetch_or\s*\(",
    r"\.fetch_xor\s*\(",
    r"\.compare_exchange_weak\s*\(",
    r"\.compare_exchange_strong\s*\(",
    r"\.test_and_set\s*\(",
)
ATOMIC_OP_RE = re.compile("|".join(ATOMIC_OPS))
# Lines that merely *declare* or pass a pointer to these members.
DECL_RE = re.compile(r"^\s*(//|\*|/\*)")

COMMENT_LOOKBACK = 5  # lines above an atomic op that may hold its comment

ALLOC_TOKENS = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"\.push_back\s*\(|\.emplace_back\s*\(|\.resize\s*\(|\.reserve\s*\(|"
    r"\bmake_unique\s*<|\bmake_shared\s*<"
)

AVX2_INTRIN = re.compile(r"\b_mm256_\w+\s*\(")
AVX2_TARGET = re.compile(r'__attribute__\s*\(\s*\(\s*target\s*\(\s*"avx2"')
# Files that gate every AVX2 path behind a single file-level mechanism the
# span matcher cannot see (none today; add "src/..." paths if one appears).
AVX2_FILE_ALLOWLIST: set[str] = set()

MARCH_NATIVE = re.compile(r"-march=native")
ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")


def iter_files(root, exts):
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def rel(path):
    return os.path.relpath(path, REPO)


def strip_strings(line):
    """Blanks out string literals so tokens inside them don't match."""
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def join_call(lines, i):
    """Returns the call starting at line i joined until parens balance
    (bounded), for argument inspection of calls that spill over."""
    joined = lines[i]
    depth = joined.count("(") - joined.count(")")
    j = i
    while depth > 0 and j + 1 < len(lines) and j - i < 8:
        j += 1
        joined += " " + lines[j].strip()
        depth += lines[j].count("(") - lines[j].count(")")
    return joined


def has_nearby_comment(lines, i):
    code, sep, _tail = lines[i].partition("//")
    if sep:
        return True
    for j in range(max(0, i - COMMENT_LOOKBACK), i):
        s = lines[j].strip()
        if s.startswith("//") or "//" in strip_strings(lines[j]) or \
                s.startswith("*") or s.startswith("/*"):
            return True
    return False


def check_atomic_order(path, lines, errors):
    for i, raw in enumerate(lines):
        line = strip_strings(raw)
        if DECL_RE.match(line):
            continue
        if not ATOMIC_OP_RE.search(line):
            continue
        call = strip_strings(join_call(lines, i))
        if "memory_order" not in call:
            errors.append(
                f"{rel(path)}:{i + 1}: atomic operation without an explicit "
                f"std::memory_order (implicit seq_cst): {raw.strip()}")
        elif not has_nearby_comment(lines, i):
            errors.append(
                f"{rel(path)}:{i + 1}: atomic operation lacks a justifying "
                f"comment (same line or the {COMMENT_LOOKBACK} lines above): "
                f"{raw.strip()}")


# `std::atomic<T> name` declarations (members, locals, references, arrays)
# — not containers of atomics: a preceding `<` (vector<std::atomic<T>>)
# excludes those, whose elements are reached through operator[] calls.
ATOMIC_DECL_RE = re.compile(
    r"(?<![<\w:])(?:std::)?atomic\s*<[^<>;]*>\s*&?\s*(\w+)")


def atomic_names(lines):
    names = set()
    for raw in lines:
        code = strip_strings(raw).partition("//")[0]
        names.update(ATOMIC_DECL_RE.findall(code))
    return names


def check_atomic_operators(path, lines, names, errors):
    """Flags `name = v`, `name op= v`, `name++` / `++name` (and `--`) on
    the atomic `names`: each is an implicit seq_cst store or RMW. Only bare
    names count — `obj.name` / `p->name` may be a non-atomic field of the
    same name in another struct — and a name preceded by a type token is a
    declaration of something else, not an operation."""
    if not names:
        return
    alt = "|".join(sorted(re.escape(n) for n in names))
    sub = r"(?:\s*\[[^\]]*\])?"
    assign = re.compile(
        rf"(?<![\w.>:])({alt}){sub}\s*(?:<<|>>|[-+*/%&|^])?=(?!=)")
    postfix = re.compile(rf"(?<![\w.>:])({alt}){sub}\s*(?:\+\+|--)")
    prefix = re.compile(rf"(?:\+\+|--)\s*({alt})\b(?!\s*(?:\.|->))")
    for i, raw in enumerate(lines):
        code = strip_strings(raw).partition("//")[0]
        if DECL_RE.match(code) or ATOMIC_DECL_RE.search(code):
            continue
        for rx in (assign, postfix, prefix):
            m = rx.search(code)
            if m is None:
                continue
            before = code[:m.start()].rstrip()
            if rx is not prefix and re.search(r"[\w*&>]$", before):
                continue  # `T name = ...`: declares a different variable
            errors.append(
                f"{rel(path)}:{i + 1}: operator on std::atomic "
                f"'{m.group(1)}' is an implicit seq_cst operation — use "
                f".store()/.fetch_add()/.fetch_sub() with an explicit "
                f"std::memory_order: {raw.strip()}")
            break


def check_no_assert(path, lines, errors):
    for i, raw in enumerate(lines):
        code = strip_strings(raw).partition("//")[0]
        if "static_assert" in code:
            code = code.replace("static_assert", "")
        if ASSERT_RE.search(code):
            errors.append(
                f"{rel(path)}:{i + 1}: assert() in src/ vanishes under "
                f"NDEBUG — use APU_CHECK or return a Status: {raw.strip()}")


def body_span(lines, i):
    """(start, end) line indexes of the brace-matched body opening at or
    after line i; end is inclusive. Returns None when no '{' is found."""
    depth = 0
    started = False
    for j in range(i, len(lines)):
        code = strip_strings(lines[j]).partition("//")[0]
        for ch in code:
            if ch == "{":
                depth += 1
                started = True
            elif ch == "}":
                depth -= 1
                if started and depth == 0:
                    return (i, j)
        if j - i > 400:  # runaway guard: unmatched brace
            break
    return (i, len(lines) - 1) if started else None


KERNEL_LAMBDA_RE = re.compile(r"\.run\s*=\s*\[")

# Tokens that identify a key-schema condition. `kWide` is deliberately NOT
# listed: it is the bool template parameter the construction-scope dispatch
# hands to `if constexpr`, and the constexpr form is filtered out anyway.
SCHEMA_TOKENS = re.compile(
    r"\bKeySchema\b|\bkey_schema\b|\bKeyIsWide\s*\(|"
    r"\bkU32\b|\bkU64\b|\bkComposite\b|\bkDictString\b")
BRANCH_RE = re.compile(r"\b(if|switch)\s*\(")
IF_CONSTEXPR_RE = re.compile(r"\bif\s+constexpr\b")


def check_kernel_no_schema_branch(path, lines, errors):
    for i, raw in enumerate(lines):
        if not KERNEL_LAMBDA_RE.search(strip_strings(raw)):
            continue
        span = body_span(lines, i)
        if span is None:
            continue
        for j in range(span[0], span[1] + 1):
            code = strip_strings(lines[j]).partition("//")[0]
            if IF_CONSTEXPR_RE.search(code):
                continue  # compile-time dispatch leaves no runtime branch
            if not BRANCH_RE.search(code):
                continue
            # Join the condition across continuation lines before testing
            # for schema tokens (conditions that spill over).
            cond = strip_strings(join_call(lines, j)).partition("//")[0]
            if IF_CONSTEXPR_RE.search(cond):
                continue
            if SCHEMA_TOKENS.search(cond):
                errors.append(
                    f"{rel(path)}:{j + 1}: runtime branch on the key schema "
                    f"inside a MorselKernel body (`.run = [...]` lambda "
                    f"opened at line {i + 1}) — dispatch on KeySchema at "
                    f"StepDef construction scope (one instantiation per "
                    f"schema, `if constexpr` on a template flag), never "
                    f"per item: {lines[j].strip()}")


def check_kernel_no_alloc(path, lines, errors):
    for i, raw in enumerate(lines):
        if not KERNEL_LAMBDA_RE.search(strip_strings(raw)):
            continue
        span = body_span(lines, i)
        if span is None:
            continue
        for j in range(span[0], span[1] + 1):
            code = strip_strings(lines[j]).partition("//")[0]
            m = ALLOC_TOKENS.search(code)
            if m:
                errors.append(
                    f"{rel(path)}:{j + 1}: allocation inside a MorselKernel "
                    f"body ('{m.group(0).strip()}' in the `.run = [...]` "
                    f"lambda opened at line {i + 1}) — kernels must run "
                    f"allocation-free; pre-size outside the kernel or go "
                    f"through alloc/")


# Atomic read-modify-writes (test_and_set is a lock, not a counter).
RMW_RE = re.compile(
    r"\.(fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|exchange|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\(")
STAT_WORDS = re.compile(r"statistic|\btall(?:y|ies)\b", re.IGNORECASE)
# Per-element functions kernels call, with the file stem each must live in
# (None: any file).
PER_ELEMENT_FUNCS = {
    "Allocate": None,
    "FindOrAdd": None,
    "InsertRid": None,
    "Emit": "result_writer",
    "Claim": "result_writer",
}
PER_ELEMENT_DEF_RE = re.compile(
    r"^\s*(?!return\b)[\w:<>,*&]+(?:\s+[\w:<>,*&]+)*?\s+[*&]?"
    r"(?:\w+::)*(" + "|".join(PER_ELEMENT_FUNCS) + r")\s*\(")
# (file, function, member) -> why that per-element statistics RMW stays.
STAT_RMW_ALLOWLIST = {
    ("src/alloc/basic_allocator.cc", "Allocate", "requests_"):
        "Basic is Figure 12's contended baseline: it already pays a shared "
        "RMW per request (the latched pointer bump), the per-device count "
        "beside it is what the sim prices, and no benchmark workload runs "
        "it",
}


def rmw_receiver(code, op_start):
    """The object expression an RMW applies to, subscripts and call
    arguments dropped: `counts_.requests[di].fetch_add(` -> counts_.requests.
    Scans backwards from the `.op(` at op_start over names, `.`, `->`,
    `::` and balanced brackets."""
    out = []
    j = op_start - 1
    while j >= 0:
        ch = code[j]
        if ch in "])":
            close, open_ = ch, "[" if ch == "]" else "("
            depth = 0
            while j >= 0:
                if code[j] == close:
                    depth += 1
                elif code[j] == open_:
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            j -= 1
            continue
        if ch.isalnum() or ch in "_.:":
            out.append(ch)
            j -= 1
        elif ch == ">" and j > 0 and code[j - 1] == "-":
            out.append(".")
            j -= 2
        else:
            break
    return "".join(reversed(out)).replace("::", ".").strip(".")


def stat_justified(lines, i):
    """True when the comment justifying line i calls it a statistic."""
    if STAT_WORDS.search(lines[i].partition("//")[2]):
        return True
    for j in range(max(0, i - COMMENT_LOOKBACK), i):
        s = lines[j].strip()
        comment = s if s.startswith(("//", "*", "/*")) else \
            strip_strings(lines[j]).partition("//")[2]
        if STAT_WORDS.search(comment):
            return True
    return False


def stat_roots(lines):
    """Objects that some atomic operation in `lines` justifies as a
    statistic: `counts_` for `counts_.requests[di].fetch_add(...)`."""
    roots = set()
    for i, raw in enumerate(lines):
        code = strip_strings(raw).partition("//")[0]
        m = ATOMIC_OP_RE.search(code)
        if m is None or DECL_RE.match(code) or not stat_justified(lines, i):
            continue
        roots.add(rmw_receiver(code, m.start()).split(".")[0])
    return roots


def branch_spans(lines, i):
    """Spans of the then-block and else-block of the `if` whose condition
    starts at line i (braced blocks only)."""
    spans = []
    then = body_span(lines, i)
    if then is None:
        return spans
    opens = next(j for j in range(i, then[1] + 1)
                 if "{" in strip_strings(lines[j]).partition("//")[0])
    spans.append((opens, then[1]))
    tail = strip_strings(lines[then[1]]).partition("//")[0]
    if re.search(r"\}\s*else\s*\{", tail):
        depth = 0
        for j in range(then[1], len(lines)):
            code = strip_strings(lines[j]).partition("//")[0]
            if j == then[1]:
                code = code[code.index("else"):]
            depth += code.count("{") - code.count("}")
            if depth == 0 and j > then[1]:
                spans.append((then[1], j))
                break
    return spans


def stat_rmws(lines, span, roots):
    """{line index: receiver} of the statistics RMWs inside span."""
    found = {}
    for i in range(span[0], span[1] + 1):
        code = strip_strings(lines[i]).partition("//")[0]
        m = RMW_RE.search(code)
        if m is None:
            continue
        recv = rmw_receiver(code, m.start())
        if stat_justified(lines, i) or recv.split(".")[0] in roots:
            found[i] = recv
    # A counter whose result only picks which statistics RMW runs is a
    # tally too: `if (claims.fetch_add(1) % chunk == 0) { stat } else {
    # stat }`.
    for i in range(span[0], span[1] + 1):
        code = strip_strings(lines[i]).partition("//")[0]
        m = RMW_RE.search(code)
        if m is None or i in found or not re.match(r"\s*if\s*\(", code):
            continue
        blocks = branch_spans(lines, i)
        inner = [j for b in blocks for j in range(b[0] + 1, b[1])
                 if strip_strings(lines[j]).partition("//")[0].strip()
                 not in ("", "}")]
        if inner and all(j in found for j in inner):
            found[i] = rmw_receiver(code, m.start())
    return found


def per_element_bodies(path, lines):
    """(function name, body span) of the per-element function definitions
    in `lines`."""
    stem = os.path.splitext(os.path.basename(path))[0]
    out = []
    for i, raw in enumerate(lines):
        code = strip_strings(raw).partition("//")[0]
        m = PER_ELEMENT_DEF_RE.match(code)
        if m is None or "=" in code[:m.start(1)]:
            continue
        name = m.group(1)
        if PER_ELEMENT_FUNCS[name] not in (None, stem):
            continue
        sig = strip_strings(join_call(lines, i)).partition("//")[0]
        rest = sig[sig.index(name):]
        depth = 0
        for k, ch in enumerate(rest):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if ch == ")" and depth == 0:
                rest = rest[k + 1:]
                break
        j = i
        while "{" not in rest and ";" not in rest and j + 1 < len(lines):
            j += 1
            rest += strip_strings(lines[j]).partition("//")[0]
        brace, semi = rest.find("{"), rest.find(";")
        if brace < 0 or (0 <= semi < brace):
            continue  # a declaration
        span = body_span(lines, i)
        if span is not None:
            out.append((name, span))
    return out


def check_no_stat_rmw(path, lines, roots, errors, allow_used):
    scopes = [(None, span) for i, raw in enumerate(lines)
              if KERNEL_LAMBDA_RE.search(strip_strings(raw))
              for span in [body_span(lines, i)] if span is not None]
    scopes += per_element_bodies(path, lines)
    for func, span in scopes:
        for i, recv in sorted(stat_rmws(lines, span, roots).items()):
            key = (rel(path), func, recv)
            if key in STAT_RMW_ALLOWLIST:
                allow_used.add(key)
                continue
            where = (f"per-element function {func}()" if func else
                     f"MorselKernel body (`.run = [...]` lambda opened at "
                     f"line {span[0] + 1})")
            errors.append(
                f"{rel(path)}:{i + 1}: statistics RMW on '{recv}' inside a "
                f"{where} — a shared cache line per element that only the "
                f"simulator reads; tally in locals and flush once per "
                f"morsel, or derive the count at the sim drain: "
                f"{lines[i].strip()}")


STEPDEF_DIRS = ("src/join", "src/coproc", "src/plan")
# Construction sites: a declaration (`StepDef x`, `std::vector<StepDef>`
# with later emplace, `StepDef{...}`) — not mere references/parameters.
STEPDEF_CONSTRUCT_RE = re.compile(
    r"\bStepDef\s+\w+\s*[;{=(]|\bStepDef\s*\{|"
    r"vector\s*<\s*(join::)?StepDef\s*>\s*\w")  # `> name`, not `>&` / `>)`
STEPDEF_REF_OK_RE = re.compile(
    r"\bStepDef\s*[&*]|const\s+(join::)?StepDef\b")


def check_stepdef_outside_lowering(path, lines, errors):
    r = rel(path)
    if any(r.startswith(d + os.sep) or r == d for d in STEPDEF_DIRS):
        return
    for i, raw in enumerate(lines):
        code = strip_strings(raw).partition("//")[0]
        if not STEPDEF_CONSTRUCT_RE.search(code):
            continue
        if STEPDEF_REF_OK_RE.search(code) and "{" not in code:
            continue
        errors.append(
            f"{rel(path)}:{i + 1}: StepDef constructed outside the lowering "
            f"layers ({', '.join(STEPDEF_DIRS)}) — build series through the "
            f"engine factories and run them via coproc: {raw.strip()}")


def check_avx2_target(path, lines, errors):
    if rel(path) in AVX2_FILE_ALLOWLIST:
        return
    # Collect spans of functions declared with the avx2 target attribute.
    spans = []
    for i, raw in enumerate(lines):
        if AVX2_TARGET.search(raw):
            s = body_span(lines, i)
            if s:
                spans.append(s)
    for i, raw in enumerate(lines):
        code = strip_strings(raw).partition("//")[0]
        if not AVX2_INTRIN.search(code):
            continue
        if any(s[0] <= i <= s[1] for s in spans):
            continue
        errors.append(
            f"{rel(path)}:{i + 1}: _mm256_* intrinsic outside an "
            f"__attribute__((target(\"avx2\"))) function — illegal "
            f"instruction on SSE-only hosts: {raw.strip()}")


def check_march_native(errors):
    exts = CXX_EXTS + (".txt", ".cmake", ".sh", ".yml", ".yaml", ".json")
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "build", "third_party")
                       and not d.startswith("build")]
        for name in sorted(filenames):
            if not name.endswith(exts):
                continue
            path = os.path.join(dirpath, name)
            if os.path.abspath(path) == os.path.abspath(__file__):
                continue
            comment = "//" if name.endswith(CXX_EXTS) else "#"
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    for i, raw in enumerate(f):
                        # Prose about the flag is fine; passing it is not.
                        code = strip_strings(raw).split(comment)[0]
                        if MARCH_NATIVE.search(code):
                            errors.append(
                                f"{rel(path)}:{i + 1}: -march=native breaks "
                                f"build reproducibility; use runtime ISA "
                                f"dispatch (util/cpu_features)")
            except OSError:
                continue


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def paired_file(path):
    """The header of a .cc file, or the .cc of a header (None if absent)."""
    base, ext = os.path.splitext(path)
    other = base + (".h" if ext == ".cc" else ".cc")
    return other if os.path.exists(other) else None


def main():
    errors = []
    allow_used = set()
    for path in iter_files(SRC, CXX_EXTS):
        lines = read_lines(path)
        pair = paired_file(path)
        pair_lines = read_lines(pair) if pair else []
        check_atomic_order(path, lines, errors)
        if path.endswith(".cc"):
            names = atomic_names(lines) | atomic_names(pair_lines)
            check_atomic_operators(path, lines, names, errors)
        check_no_stat_rmw(path, lines,
                          stat_roots(lines) | stat_roots(pair_lines), errors,
                          allow_used)
        check_no_assert(path, lines, errors)
        check_kernel_no_alloc(path, lines, errors)
        check_kernel_no_schema_branch(path, lines, errors)
        check_stepdef_outside_lowering(path, lines, errors)
        check_avx2_target(path, lines, errors)
    check_march_native(errors)
    for key in sorted(set(STAT_RMW_ALLOWLIST) - allow_used):
        errors.append(
            f"{key[0]}: STAT_RMW_ALLOWLIST entry ({key[1]}, {key[2]}) "
            f"matches no statistics RMW — delete it")

    if errors:
        print(f"lint_invariants: {len(errors)} violation(s)\n")
        for e in errors:
            print(e)
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
