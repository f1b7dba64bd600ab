// Fixture for the global-state rule.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static COUNTER: AtomicU64 = AtomicU64::new(0); // line 5: bare hit

// audit:allow(global-state) set once at start-up, read-only after
static CONFIG: OnceLock<String> = OnceLock::new(); // line 8: allowed hit

pub static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new()); // line 10: bare hit

static NAME: &'static str = "static LOCK: Mutex<u8> in a string";
// static LOCK: Mutex<u8> in this comment must not hit.
fn immune(s: &'static str) -> &'static str {
    thread_local! {
        static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    let _ = (Ordering::Relaxed, NAME);
    s
}

#[cfg(test)]
mod tests {
    static SEEN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
}
