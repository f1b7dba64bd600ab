//! The capture shim: a per-simulation [`Recorder`].
//!
//! The recorder is wired into the engine (one per `Sim`) and into the
//! disk and filesystem models, which call `record_*` at their command
//! boundaries. Everything here is host-side bookkeeping: recording
//! never advances the simulated clock, takes no engine locks, and is
//! guarded by one relaxed atomic load when disabled — so a run with
//! recording off is byte-identical to one without the shim at all
//! (asserted by `record_off_is_byte_identical` in the harness tests).

use crate::format::{Op, Trace, TraceEvent};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Accumulates the events one simulation emits.
///
/// Created disabled; [`Recorder::enable`] arms it (explicitly, or via
/// `SimConfig::record` at `Sim` construction). Paths are interned on
/// first use, in order of first appearance, which keeps the table —
/// and therefore the serialised trace — deterministic.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: AtomicBool,
    state: Mutex<RecState>,
}

#[derive(Debug, Default)]
struct RecState {
    paths: Vec<String>,
    interned: BTreeMap<String, u64>,
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// A fresh, disabled recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Starts capturing events.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stops capturing events (already-captured events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Whether the recorder is capturing. The disabled fast path of
    /// every `record_*` call is exactly this one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Whether anything has been captured.
    pub fn is_empty(&self) -> bool {
        self.state.lock().events.is_empty()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Records a block command issued to a disk. No-op when disabled.
    pub fn record_block(&self, t: u64, pid: u32, write: bool, addr: u64, blocks: u64) {
        if !self.is_enabled() {
            return;
        }
        let op = if write { Op::BlockWrite } else { Op::BlockRead };
        self.state.lock().events.push(TraceEvent {
            t,
            pid,
            op,
            arg: addr,
            size: blocks,
        });
    }

    /// Records a file-layer event (`op` must not be a block op),
    /// interning `path`. No-op when disabled.
    pub fn record_path_event(&self, t: u64, pid: u32, op: Op, path: &str) {
        if !self.is_enabled() {
            return;
        }
        debug_assert!(!op.is_block());
        let mut st = self.state.lock();
        let arg = match st.interned.get(path) {
            Some(&i) => i,
            None => {
                let i = st.paths.len() as u64;
                st.paths.push(path.to_string());
                st.interned.insert(path.to_string(), i);
                i
            }
        };
        st.events.push(TraceEvent {
            t,
            pid,
            op,
            arg,
            size: 0,
        });
    }

    /// Takes the recording, leaving the recorder empty (and still in
    /// its current enabled/disabled state).
    pub fn take(&self) -> Trace {
        let mut st = self.state.lock();
        st.interned.clear();
        Trace {
            paths: std::mem::take(&mut st.paths),
            events: std::mem::take(&mut st.events),
        }
    }

    /// A copy of the recording so far.
    pub fn snapshot(&self) -> Trace {
        let st = self.state.lock();
        Trace {
            paths: st.paths.clone(),
            events: st.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::new();
        r.record_block(1, 1, false, 0, 1);
        r.record_path_event(2, 1, Op::FileOpen, "/x");
        assert!(r.is_empty());
    }

    #[test]
    fn paths_intern_in_first_use_order() {
        let r = Recorder::new();
        r.enable();
        r.record_path_event(1, 1, Op::FileOpen, "/b");
        r.record_path_event(2, 1, Op::FileOpen, "/a");
        r.record_path_event(3, 1, Op::FileUnlink, "/b");
        r.record_block(4, 2, true, 8, 2);
        let t = r.take();
        assert_eq!(t.paths, vec!["/b".to_string(), "/a".to_string()]);
        assert_eq!(t.events[0].arg, 0);
        assert_eq!(t.events[1].arg, 1);
        assert_eq!(t.events[2].arg, 0);
        assert_eq!(t.events[3].op, Op::BlockWrite);
        // take() resets interning as well as events.
        r.record_path_event(5, 1, Op::FileOpen, "/a");
        assert_eq!(r.take().paths, vec!["/a".to_string()]);
    }
}
