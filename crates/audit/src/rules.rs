//! The deny-list: eight determinism/correctness rules tuned to this
//! workspace.
//!
//! Each rule is a predicate over the lexed `code` view of a line (see
//! [`crate::lexer`]) plus a path scope. The scopes encode where the
//! invariant actually matters:
//!
//! * `hashmap-iter` — everywhere: `HashMap`/`HashSet` iteration order
//!   is nondeterministic, and in this repo "iteration reached an
//!   output" has already produced a nondeterministic deadlock message.
//!   Keyed lookup that is never iterated may keep a `HashMap` behind
//!   an `audit:allow`.
//! * `wallclock` — everywhere except `runner/src/pool.rs`, the one
//!   module whose job is host timing. Simulated time must come from
//!   `Sim::now()`; a stray `Instant::now()` in a model silently turns
//!   a deterministic experiment into a flaky one.
//! * `float-eq` — experiment code (`harness`, `core`, `runner`):
//!   `f64` equality against literals is how tolerance bugs start.
//! * `unwrap` — simulator crates (`sim`, `os`, `fs`, `net`, `nfs`,
//!   `trace`): a panic inside a simulated process aborts the baton
//!   chain; errors must flow out as `SimError`.
//! * `must-use-cycles` — everywhere: a dropped `Cycles` return is a
//!   silently-lost charge, which breaks cycle conservation.
//! * `host-thread-spawn` — everywhere except the engine itself
//!   (`sim/src/engine.rs`, whose job is hosting simulated processes on
//!   real threads) and the worker pool (`runner/src/pool.rs`): a host
//!   thread spawned anywhere else runs outside the baton discipline,
//!   and crowds belong on the lite scheduler, not on OS threads.
//! * `nondet-taint` — everywhere: the cross-file pass in
//!   [`crate::taint`]. A nondeterminism source (host clock, entropy
//!   RNG, thread id, hash-order iteration) inside the callee closure
//!   of an experiment-output sink can leak into a blessed statistic;
//!   the per-line rules cannot see that reach, this pass can.
//! * `global-state` — everywhere: a `static` lock, atomic, once cell or
//!   lazy cell is process-wide state, which one pool job can leave set
//!   for the next. Run options travel in `tnt_sim::Instruments`,
//!   scoped to a thread; the few real process-wide values carry a
//!   reasoned allow.

use crate::lexer::Line;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `HashMap`/`HashSet` in scanned source.
    HashmapIter,
    /// `Instant::now` / `SystemTime::now` outside `runner::pool`.
    Wallclock,
    /// `f64` comparison against a float literal in experiment code.
    FloatEq,
    /// `.unwrap()` in non-test simulator code.
    Unwrap,
    /// `pub fn ... -> Cycles` without `#[must_use]`.
    MustUseCycles,
    /// `thread::spawn`/`Builder`/`scope` outside the engine and the
    /// worker pool.
    HostThreadSpawn,
    /// Nondeterminism source reachable from an experiment-output sink
    /// (the cross-file taint pass in [`crate::taint`]).
    NondetTaint,
    /// A `static` of type `Mutex`, `RwLock`, `Atomic*`, `Once*` or
    /// `LazyLock` in non-test code.
    GlobalState,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::HashmapIter,
        Rule::Wallclock,
        Rule::FloatEq,
        Rule::Unwrap,
        Rule::MustUseCycles,
        Rule::HostThreadSpawn,
        Rule::NondetTaint,
        Rule::GlobalState,
    ];

    /// The slug used in reports and `audit:allow(<slug>)` annotations.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HashmapIter => "hashmap-iter",
            Rule::Wallclock => "wallclock",
            Rule::FloatEq => "float-eq",
            Rule::Unwrap => "unwrap",
            Rule::MustUseCycles => "must-use-cycles",
            Rule::HostThreadSpawn => "host-thread-spawn",
            Rule::NondetTaint => "nondet-taint",
            Rule::GlobalState => "global-state",
        }
    }

    /// Looks a slug back up (for allow-annotation parsing).
    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.slug() == slug)
    }

    /// Does this rule apply to the file at `path` (workspace-relative,
    /// forward slashes)?
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Rule::HashmapIter | Rule::MustUseCycles => true,
            Rule::Wallclock => !path.ends_with("runner/src/pool.rs"),
            Rule::FloatEq => {
                in_crate(path, "harness") || in_crate(path, "core") || in_crate(path, "runner")
            }
            Rule::Unwrap => {
                ["sim", "proc", "race", "os", "fs", "net", "nfs", "trace", "farm"]
                    .iter()
                    .any(|c| in_crate(path, c))
            }
            Rule::HostThreadSpawn => {
                !path.ends_with("sim/src/engine.rs") && !path.ends_with("runner/src/pool.rs")
            }
            Rule::NondetTaint | Rule::GlobalState => true,
        }
    }

    /// The message attached to a hit.
    pub fn message(self) -> &'static str {
        match self {
            Rule::HashmapIter => {
                "HashMap/HashSet has nondeterministic iteration order; use BTreeMap/BTreeSet \
                 or sort before anything reaches an output path"
            }
            Rule::Wallclock => {
                "host wall-clock read outside runner::pool; simulated code must use Sim::now()"
            }
            Rule::FloatEq => {
                "f64 compared against a float literal without tolerance; use an epsilon or \
                 integer cycles"
            }
            Rule::Unwrap => {
                "unwrap() in simulator code; panics abort the baton chain — return SimError"
            }
            Rule::MustUseCycles => {
                "public function returns Cycles without #[must_use]; a dropped return is a \
                 silently-lost charge"
            }
            Rule::HostThreadSpawn => {
                "host thread spawned outside the engine/worker pool; simulated work belongs \
                 on Sim::spawn (threaded) or the lite scheduler (crowds)"
            }
            Rule::NondetTaint => {
                "nondeterminism source reachable from an experiment-output sink; anything \
                 feeding an ExperimentRecord/StatLine must be a pure function of the seed"
            }
            Rule::GlobalState => {
                "process-wide static state; a value one pool job leaves behind reaches the \
                 next — pass it explicitly or scope it to a thread (tnt_sim::Instruments)"
            }
        }
    }

    /// Runs the per-line check (all rules except `must-use-cycles`,
    /// which needs signature lookahead and runs in the scanner).
    pub fn hits_line(self, code: &str) -> bool {
        match self {
            Rule::HashmapIter => has_word(code, "HashMap") || has_word(code, "HashSet"),
            Rule::Wallclock => code.contains("Instant::now") || code.contains("SystemTime::now"),
            Rule::FloatEq => float_literal_comparison(code),
            Rule::Unwrap => code.contains(".unwrap()"),
            // Handled by whole-corpus passes, not per-line checks: the
            // scanner runs `must_use_cycles_hits` and `taint::analyze`.
            Rule::MustUseCycles | Rule::NondetTaint => false,
            Rule::HostThreadSpawn => {
                code.contains("thread::spawn")
                    || code.contains("thread::Builder")
                    || code.contains("thread::scope")
            }
            Rule::GlobalState => global_state_static(code),
        }
    }
}

fn in_crate(path: &str, name: &str) -> bool {
    path.starts_with(&format!("crates/{name}/"))
}

/// Word-boundary containment: `HashMap` hits, `MyHashMapLike` does not.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_char(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Detects `static NAME: T` where `T` names a lock, an atomic, a once
/// cell or a lazy cell. `&'static` lifetimes and `thread_local!` cells
/// (`Cell`/`RefCell`) do not hit.
fn global_state_static(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find("static ") {
        let start = from + pos;
        from = start + "static ".len();
        if start > 0 && (is_ident_char(bytes[start - 1]) || bytes[start - 1] == b'\'') {
            continue;
        }
        let rest = code[from..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let Some((name, ty)) = rest.split_once(':') else {
            continue;
        };
        if !name.trim().bytes().all(is_ident_char) {
            continue;
        }
        let ty = ty.split('=').next().unwrap_or(ty);
        return ty
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .any(|w| {
                matches!(w, "Mutex" | "RwLock" | "LazyLock")
                    || w.starts_with("Atomic")
                    || w.starts_with("Once")
            });
    }
    false
}

/// Detects `==` / `!=` with a float literal on either side.
fn float_literal_comparison(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0usize;
    while i + 1 < chars.len() {
        let is_eq = chars[i] == '=' && chars[i + 1] == '=';
        let is_ne = chars[i] == '!' && chars[i + 1] == '=';
        if is_eq || is_ne {
            // Skip <=, >=, ==> (no such op), pattern `=>` handled by
            // requiring a second '='; reject `a <= b` by looking back.
            let prev = if i > 0 { chars[i - 1] } else { ' ' };
            if is_eq && (prev == '<' || prev == '>' || prev == '=' || prev == '!') {
                i += 1;
                continue;
            }
            let left = token_before(&chars, i);
            let right = token_after(&chars, i + 2);
            if is_float_literal(&left) || is_float_literal(&right) {
                return true;
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    false
}

fn token_before(chars: &[char], op_start: usize) -> String {
    let mut j = op_start;
    while j > 0 && chars[j - 1] == ' ' {
        j -= 1;
    }
    let end = j;
    while j > 0 && (chars[j - 1].is_alphanumeric() || matches!(chars[j - 1], '.' | '_')) {
        j -= 1;
    }
    chars[j..end].iter().collect()
}

fn token_after(chars: &[char], mut j: usize) -> String {
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    let start = j;
    while j < chars.len() && (chars[j].is_alphanumeric() || matches!(chars[j], '.' | '_')) {
        j += 1;
    }
    chars[start..j].iter().collect()
}

/// `1024.0`, `0.5`, `1.` are float literals; `x.fract`, `self.jitter`
/// are not (they start with a letter).
fn is_float_literal(token: &str) -> bool {
    let mut saw_digit = false;
    let mut saw_dot = false;
    for (k, c) in token.chars().enumerate() {
        match c {
            '0'..='9' => saw_digit = true,
            '.' if k > 0 => saw_dot = true,
            '_' => {}
            _ => return false,
        }
    }
    saw_digit && saw_dot
}

/// Scans a whole file for `pub fn ... -> Cycles` signatures missing a
/// `#[must_use]` attribute. Returns hit line numbers (the `fn` line).
///
/// Signatures may span lines; attributes and doc comments may sit
/// between `#[must_use]` and the `fn`. Wrapped returns
/// (`Result<Cycles, _>`, `Option<Cycles>`) are exempt: the caller must
/// already look at them to get the value out.
pub fn must_use_cycles_hits(lines: &[Line]) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        let code = lines[i].code.trim();
        let is_pub_fn = !lines[i].in_test
            && (code.starts_with("pub fn ")
                || code.starts_with("pub(crate) fn ")
                || code.starts_with("pub(super) fn ")
                || code.contains(" pub fn ")
                || code.contains(" pub(crate) fn "));
        if !is_pub_fn {
            i += 1;
            continue;
        }
        // Accumulate the signature until the body opens or the item
        // ends (trait method declarations end with `;`).
        let mut sig = String::new();
        let mut j = i;
        while j < lines.len() {
            let piece = &lines[j].code;
            let stop = piece.find('{').or_else(|| piece.find(';'));
            match stop {
                Some(pos) => {
                    sig.push_str(&piece[..pos]);
                    break;
                }
                None => {
                    sig.push_str(piece);
                    sig.push(' ');
                    j += 1;
                }
            }
        }
        if returns_bare_cycles(&sig) && !has_must_use_above(lines, i) {
            hits.push(lines[i].number);
        }
        i = j.max(i) + 1;
    }
    hits
}

/// Does the signature's return type reduce to a bare `Cycles` path?
fn returns_bare_cycles(sig: &str) -> bool {
    let Some(pos) = sig.rfind("->") else {
        return false;
    };
    let ret = sig[pos + 2..].trim();
    let ret = ret.split(" where").next().unwrap_or(ret).trim();
    if ret.contains('<') {
        return false; // Result<Cycles, _> / Option<Cycles> are exempt
    }
    ret.rsplit("::").next().unwrap_or(ret).trim() == "Cycles"
}

/// Looks upward from the `fn` line across attributes/doc comments for
/// `#[must_use]`.
fn has_must_use_above(lines: &[Line], fn_idx: usize) -> bool {
    if lines[fn_idx].code.contains("#[must_use]") {
        return true;
    }
    let mut k = fn_idx;
    while k > 0 {
        k -= 1;
        let code = lines[k].code.trim();
        if code.contains("#[must_use]") {
            return true;
        }
        // Keep walking over other attributes, doc comments (already
        // stripped to empty code), and blank lines.
        if code.is_empty() || code.starts_with("#[") {
            continue;
        }
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn word_boundaries() {
        assert!(has_word("use std::collections::HashMap;", "HashMap"));
        assert!(!has_word("struct MyHashMapLike;", "HashMap"));
    }

    #[test]
    fn float_eq_detection() {
        assert!(float_literal_comparison("if jitter == 0.0 {"));
        assert!(float_literal_comparison("v % 1024.0 == 0.0"));
        assert!(float_literal_comparison("x != 1.5"));
        assert!(!float_literal_comparison("if n == 0 {"));
        assert!(!float_literal_comparison("a <= 0.5"));
        assert!(!float_literal_comparison("a >= 0.5"));
        assert!(!float_literal_comparison("match x { _ => 0.0 }"));
    }

    #[test]
    fn must_use_positive_and_negative() {
        let src = "pub fn charge(&self) -> Cycles {\n}\n\
                   #[must_use]\npub fn ok(&self) -> Cycles {\n}\n\
                   pub fn wrapped(&self) -> Result<Cycles, E> {\n}\n\
                   pub fn multi(\n    a: u64,\n) -> Cycles {\n}\n";
        let lines = lex(src);
        let hits = must_use_cycles_hits(&lines);
        assert!(hits.contains(&1), "bare hit: {hits:?}");
        assert!(!hits.contains(&4), "must_use above suppresses");
        assert!(!hits.contains(&6), "wrapped return exempt");
        assert!(hits.contains(&8), "multi-line signature found: {hits:?}");
    }

    #[test]
    fn scopes() {
        assert!(Rule::Wallclock.applies_to("crates/sim/src/engine.rs"));
        assert!(!Rule::Wallclock.applies_to("crates/runner/src/pool.rs"));
        assert!(Rule::FloatEq.applies_to("crates/harness/src/plot.rs"));
        assert!(!Rule::FloatEq.applies_to("crates/sim/src/engine.rs"));
        assert!(Rule::Unwrap.applies_to("crates/sim/src/lock.rs"));
        assert!(Rule::Unwrap.applies_to("crates/proc/src/lib.rs"));
        assert!(Rule::Unwrap.applies_to("crates/farm/src/farm.rs"));
        // The race detector panics *by design* exactly once (the report
        // itself); everything on the way there must flow errors.
        assert!(Rule::Unwrap.applies_to("crates/race/src/detector.rs"));
        assert!(!Rule::Unwrap.applies_to("crates/harness/src/table.rs"));
        // The taint pass scopes by reachability, not by path.
        assert!(Rule::NondetTaint.applies_to("crates/harness/src/plan.rs"));
        assert!(Rule::NondetTaint.applies_to("crates/runner/src/pool.rs"));
        // The farm's simulation code also answers to the determinism
        // lints that scope by path prefix.
        assert!(Rule::Wallclock.applies_to("crates/farm/src/farm.rs"));
        assert!(Rule::HashmapIter.applies_to("crates/farm/src/hist.rs"));
        assert!(Rule::HostThreadSpawn.applies_to("crates/farm/src/farm.rs"));
        assert!(Rule::HostThreadSpawn.applies_to("crates/os/src/kernel.rs"));
        assert!(Rule::HostThreadSpawn.applies_to("crates/harness/src/plan.rs"));
        assert!(!Rule::HostThreadSpawn.applies_to("crates/sim/src/engine.rs"));
        assert!(!Rule::HostThreadSpawn.applies_to("crates/runner/src/pool.rs"));
    }

    #[test]
    fn host_thread_spawn_detection() {
        assert!(Rule::HostThreadSpawn.hits_line("std::thread::spawn(move || {})"));
        assert!(Rule::HostThreadSpawn.hits_line("thread::Builder::new()"));
        assert!(Rule::HostThreadSpawn.hits_line("std::thread::scope(|s| {})"));
        assert!(!Rule::HostThreadSpawn.hits_line("sim.spawn(\"p\", |s| {})"));
        assert!(!Rule::HostThreadSpawn.hits_line("thread::sleep(dur)"));
    }

    #[test]
    fn global_state_detection() {
        let hit = |code| Rule::GlobalState.hits_line(code);
        assert!(hit("static N: AtomicU64 = AtomicU64::new(0);"));
        assert!(hit(
            "pub(crate) static mut M: Mutex<Vec<u8>> = Mutex::new(Vec::new());"
        ));
        assert!(hit(
            "static S: std::sync::LazyLock<u32> = std::sync::LazyLock::new(|| {"
        ));
        assert!(hit("static ONCE: Once = Once::new();"));
        assert!(hit("static CFG: OnceLock<String> = OnceLock::new();"));
        assert!(hit(
            "static R: parking_lot::RwLock<u8> = parking_lot::RwLock::new(0);"
        ));
        assert!(!hit(
            "static CURRENT: RefCell<Option<Session>> = const { RefCell::new(None) };"
        ));
        assert!(!hit("static NAME: &'static str = \"x\";"));
        assert!(!hit("fn f(s: &'static Mutex<u8>) {}"));
        assert!(!hit("let lock: Mutex<u8> = Mutex::new(0);"));
    }
}
