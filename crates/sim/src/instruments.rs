//! The run options every simulation boots with, scoped to a thread.
//!
//! A run's instruments — fault profile, race detector, workload capture
//! and profiling session — are one value installed on the thread that
//! boots simulations ([`Instruments::scope`]) and read once by each
//! `Sim::new` ([`Instruments::current`]). Nothing is process-wide: a
//! scope on one thread never reaches a simulation booted on another,
//! so independent runs cannot change each other. Worker pools carry
//! the submitting thread's value into each job themselves.

use std::cell::RefCell;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_fault::FaultProfile;
use tnt_replay::Trace;
use tnt_trace::session::{self, Session};

/// The run options a simulation boots with. The default is all off.
#[derive(Clone, Debug, Default)]
pub struct Instruments {
    /// Fault profile `boot`/`boot_cluster` put in `SimConfig::faults`.
    pub faults: FaultProfile,
    /// Arms every simulation's happens-before race detector (with the
    /// `audit` feature; without it there is no detector to arm).
    pub race: bool,
    /// Where finished recordings land: with a capture, `boot` arms each
    /// machine's recorder and `Sim::run` appends its recording here.
    pub capture: Option<Capture>,
    /// The profiling session sims enable their tracer for and publish
    /// into (installed by `tnt_trace::session::run`).
    pub session: Option<Session>,
}

thread_local! {
    /// The calling thread's instruments. Its `session` stays `None`:
    /// `tnt_trace::session` keeps the session itself, so that
    /// `session::run` works without this crate.
    static CURRENT: RefCell<Instruments> = const {
        RefCell::new(Instruments {
            faults: FaultProfile::off(),
            race: false,
            capture: None,
            session: None,
        })
    };
}

impl Instruments {
    /// A snapshot of the calling thread's instruments.
    pub fn current() -> Instruments {
        Instruments {
            session: session::current(),
            ..CURRENT.with(|c| c.borrow().clone())
        }
    }

    /// Runs `f` with these instruments installed on the calling thread,
    /// restoring the previous ones when `f` returns or unwinds.
    pub fn scope<T>(mut self, f: impl FnOnce() -> T) -> T {
        struct Restore(Instruments);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = std::mem::take(&mut self.0);
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let session = self.session.take();
        let _restore = Restore(CURRENT.with(|c| c.replace(self)));
        session::scope(session, f)
    }
}

/// A buffer of finished recordings, in completion order. Cheap to
/// clone; every clone shares one buffer.
#[derive(Clone, Debug, Default)]
pub struct Capture(Arc<Mutex<Vec<Trace>>>);

impl Capture {
    /// Takes every recording captured so far.
    pub fn take(&self) -> Vec<Trace> {
        std::mem::take(&mut *self.0.lock())
    }

    pub(crate) fn push(&self, trace: Trace) {
        self.0.lock().push(trace);
    }
}
